#ifndef QPLEX_QUANTUM_STATEVECTOR_H_
#define QPLEX_QUANTUM_STATEVECTOR_H_

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "quantum/circuit.h"

namespace qplex {

/// Process-wide amplitude-memory budget for state-vector simulation
/// (default 4 GiB). Engines that are about to allocate a 2^n register call
/// CheckSimulationBudget(n) first and surface kResourceExhausted as a value
/// instead of dying in std::bad_alloc — the service layer turns that into a
/// fallback down the backend chain. Setting 0 restores the default.
std::uint64_t MaxSimulationBytes();
void SetMaxSimulationBytes(std::uint64_t bytes);

/// Bytes a 2^n amplitude register occupies (16 bytes per complex<double>).
std::uint64_t SimulationBytes(int num_qubits);

/// Ok when a 2^n register fits the budget, kResourceExhausted otherwise.
/// Also hosts the `alloc` fault-injection site.
Status CheckSimulationBudget(int num_qubits);

/// Dense state-vector simulator for small registers (the n vertex qubits of
/// the gate-based algorithms). Basis index bit i is qubit i (little-endian),
/// matching the subset-mask convention in graph/kplex.h.
///
/// The wide oracle ancillas never appear here: the oracle acts as a phase
/// flip on the vertex register (the |O> = |-> kickback of the paper), with
/// the marked set computed by running the literal oracle circuit through
/// the bit-sliced evaluator of quantum/basis_sim.h, 64 basis states per word
/// operation.
///
/// Gate application precomputes one (control_mask, control_value) pair per
/// gate, so firing is a single mask compare per basis state instead of a
/// per-control loop, and every O(2^n) kernel (gates, diffusion, phase
/// oracle, probabilities, sampling CDF) runs over `num_threads` threads with
/// fixed chunk boundaries and ordered reduction combines — amplitudes are
/// bit-identical at 1 thread and at N threads (see common/parallel.h).
class StateVectorSimulator {
 public:
  /// At most kMaxQubits qubits (2^26 amplitudes = 1 GiB of doubles); the
  /// constructor CHECKs the bound.
  static constexpr int kMaxQubits = 26;

  explicit StateVectorSimulator(int num_qubits, int num_threads = 1);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }

  /// Worker threads used by the O(2^n) kernels; results never depend on it.
  int num_threads() const { return num_threads_; }
  void set_num_threads(int num_threads);

  /// Resets to |0...0>.
  void Reset();
  /// Resets to the uniform superposition H^{\otimes n}|0>.
  void PrepareUniform();

  const std::vector<std::complex<double>>& amplitudes() const {
    return amplitudes_;
  }
  std::complex<double> amplitude(std::uint64_t basis) const {
    QPLEX_CHECK(basis < dimension()) << "basis index out of range";
    return amplitudes_[basis];
  }

  /// Single-qubit and controlled gates.
  void ApplyX(int qubit);
  void ApplyH(int qubit);
  void ApplyZ(int qubit);
  void ApplyGate(const Gate& gate);
  /// Runs a whole (small) circuit.
  void RunCircuit(const Circuit& circuit);

  /// Multiplies the amplitude of every basis state satisfying `marked` by -1
  /// (the oracle's phase kickback). The predicate is called concurrently
  /// from multiple threads when num_threads > 1, so it must be thread-safe
  /// (pure functions of the basis index are).
  void ApplyPhaseOracle(const std::function<bool(std::uint64_t)>& marked);
  void ApplyPhaseOracle(const std::vector<std::uint64_t>& marked_states);

  /// Grover diffusion: reflection about the uniform superposition,
  /// amp <- 2*mean - amp.
  void ApplyDiffusion();

  /// Probability of measuring `basis`.
  double Probability(std::uint64_t basis) const;
  /// Full measurement distribution (2^n entries).
  std::vector<double> Probabilities() const;
  /// Sum of probabilities over states satisfying `predicate`. Like the
  /// phase-oracle predicate, called concurrently when num_threads > 1.
  double SuccessProbability(
      const std::function<bool(std::uint64_t)>& predicate) const;
  /// Sum over all basis states; ~1 up to rounding (used as a sanity check).
  double TotalProbability() const;

  /// Draws `shots` independent measurements; returns counts per basis state.
  std::vector<int> Sample(Rng& rng, int shots) const;
  /// Draws one measurement outcome.
  std::uint64_t SampleOne(Rng& rng) const;

 private:
  /// Cumulative probability distribution over basis states (the shared
  /// backbone of Sample and SampleOne): cdf[i] = sum_{j <= i} |amp_j|^2,
  /// built with deterministic per-chunk prefix sums.
  std::vector<double> BuildCdf() const;

  int num_qubits_;
  int num_threads_;
  std::vector<std::complex<double>> amplitudes_;
};

}  // namespace qplex

#endif  // QPLEX_QUANTUM_STATEVECTOR_H_
