#ifndef QPLEX_GROVER_ENGINE_H_
#define QPLEX_GROVER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/events.h"
#include "quantum/statevector.h"

namespace qplex {

/// Optimal Grover iteration count floor(pi/4 * sqrt(N / M)) for N = 2^n and
/// M marked states (Algorithm 1, step 4). Returns 0 when M == 0 or M >= N.
int OptimalGroverIterations(int num_qubits, std::int64_t num_marked);

/// Exact success probability sin^2((2*I + 1) * theta) with
/// theta = asin(sqrt(M / N)) after I iterations — the theory the simulated
/// amplitudes are tested against.
double TheoreticalSuccessProbability(int num_qubits, std::int64_t num_marked,
                                     int iterations);

/// Gate-cost model of one diffusion operator on n qubits: H^n, X^n, an
/// (n-1)-controlled Z, X^n, H^n.
std::int64_t DiffusionCost(int num_qubits);

/// What a run of verified Grover attempts (GroverSimulation::RunAttempts)
/// ended with.
struct VerifiedAttempts {
  /// Whether some measurement passed verification.
  bool found = false;
  /// The verified measurement (only meaningful when found).
  std::uint64_t sample = 0;
  /// Grover iterations of the verified attempt (0 when none was verified).
  int iterations = 0;
  /// Attempts used.
  int attempts = 0;
  /// Whether the `stop` predicate ended the run before an attempt.
  bool stopped = false;
  /// Oracle invocations across all attempts (iterations summed).
  std::int64_t oracle_calls = 0;
};

/// Exact amplitude-level simulation of Grover's search over the n-qubit
/// vertex register. The oracle enters as a phase flip on the precomputed
/// marked set (the |O> = |-> kickback); amplitudes match a full-width
/// simulation of the literal circuit exactly, because the oracle's compute /
/// uncompute stages are classical and ancilla-clean (verified in tests).
class GroverSimulation {
 public:
  /// `num_threads` is forwarded to the underlying state-vector simulator;
  /// it changes wall-clock only, never amplitudes (see common/parallel.h).
  GroverSimulation(int num_qubits, std::vector<std::uint64_t> marked,
                   int num_threads = 1);

  int num_qubits() const { return simulator_.num_qubits(); }
  const std::vector<std::uint64_t>& marked() const { return marked_; }
  std::int64_t num_marked() const {
    return static_cast<std::int64_t>(marked_.size());
  }

  /// Returns to the uniform superposition (Algorithm 1, step 1).
  void Reset();

  /// One Grover iteration: phase oracle + diffusion.
  void Step();
  /// Runs `count` iterations.
  void Run(int count);

  int steps() const { return steps_; }

  /// Probability mass currently on the marked states.
  double SuccessProbability() const;
  /// Full measurement distribution (for the Fig. 8 style amplitude plots).
  std::vector<double> Probabilities() const { return simulator_.Probabilities(); }

  /// Measures once (collapse simulated classically).
  std::uint64_t Measure(Rng& rng) const { return simulator_.SampleOne(rng); }
  /// The measure-and-verify loop of qTKP (Algorithm 2) and the searches
  /// built like it: up to `budget` attempts, each a Reset, `next_iterations()`
  /// Grover iterations and one measurement, stopping at the first measurement
  /// `verify` accepts (the "run c times" error reduction of Section V-A).
  /// `next_iterations` runs before each attempt's measurement, so a schedule
  /// that draws its iteration count from `rng` keeps its draws interleaved
  /// with the measurements. Afterwards the simulation holds the last
  /// attempt's state, so SuccessProbability() is that attempt's. An optional
  /// `stop` predicate is asked once before each attempt; when it answers
  /// true the run ends there with `stopped` set.
  VerifiedAttempts RunAttempts(
      Rng& rng, int budget, const std::function<int()>& next_iterations,
      const std::function<bool(std::uint64_t)>& verify,
      const std::function<bool()>& stop = nullptr);

  /// Draws `shots` measurement outcomes; returns counts per basis state.
  std::vector<int> Sample(Rng& rng, int shots) const {
    return simulator_.Sample(rng, shots);
  }

 private:
  StateVectorSimulator simulator_;
  std::vector<std::uint64_t> marked_;
  std::vector<bool> is_marked_;
  int steps_ = 0;
  /// Live progress for long iteration runs; throttle state spans Reset()s so
  /// repeated attempts on one simulation share one heartbeat cadence.
  obs::ProgressHeartbeat heartbeat_{"grover"};
};

}  // namespace qplex

#endif  // QPLEX_GROVER_ENGINE_H_
