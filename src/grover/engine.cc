#include "grover/engine.h"

#include <cmath>

#include "obs/metrics.h"

namespace qplex {

int OptimalGroverIterations(int num_qubits, std::int64_t num_marked) {
  QPLEX_CHECK(num_qubits >= 1 && num_qubits <= 62) << "bad qubit count";
  QPLEX_CHECK(num_marked >= 0) << "negative marked count";
  const double n_states = std::pow(2.0, num_qubits);
  if (num_marked <= 0 || static_cast<double>(num_marked) >= n_states) {
    return 0;
  }
  return static_cast<int>(std::floor(
      (M_PI / 4.0) * std::sqrt(n_states / static_cast<double>(num_marked))));
}

double TheoreticalSuccessProbability(int num_qubits, std::int64_t num_marked,
                                     int iterations) {
  const double n_states = std::pow(2.0, num_qubits);
  if (num_marked <= 0) {
    return 0.0;
  }
  if (static_cast<double>(num_marked) >= n_states) {
    return 1.0;
  }
  const double theta =
      std::asin(std::sqrt(static_cast<double>(num_marked) / n_states));
  const double amplitude = std::sin((2.0 * iterations + 1.0) * theta);
  return amplitude * amplitude;
}

std::int64_t DiffusionCost(int num_qubits) {
  // H^n + X^n + C^{n-1}Z (cost n) + X^n + H^n.
  return 4LL * num_qubits + num_qubits;
}

GroverSimulation::GroverSimulation(int num_qubits,
                                   std::vector<std::uint64_t> marked,
                                   int num_threads)
    : simulator_(num_qubits, num_threads), marked_(std::move(marked)) {
  is_marked_.assign(simulator_.dimension(), false);
  for (std::uint64_t basis : marked_) {
    QPLEX_CHECK(basis < simulator_.dimension())
        << "marked state " << basis << " outside register";
    is_marked_[basis] = true;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grover.simulations").Increment();
  registry.GetGauge("grover.diffusion_cost").Set(
      static_cast<double>(DiffusionCost(num_qubits)));
  Reset();
}

void GroverSimulation::Reset() {
  simulator_.PrepareUniform();
  steps_ = 0;
}

void GroverSimulation::Step() {
  simulator_.ApplyPhaseOracle(marked_);
  simulator_.ApplyDiffusion();
  ++steps_;
}

void GroverSimulation::Run(int count) {
  QPLEX_CHECK(count >= 0) << "negative iteration count";
  for (int i = 0; i < count; ++i) {
    Step();
    // Due() is an atomic load when no event stream is installed; one Grover
    // step is a full state-vector pass, so the poll is free by comparison.
    if (heartbeat_.Due()) {
      heartbeat_.Emit({{"iterations", steps_},
                       {"success_probability", SuccessProbability()}});
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grover.iterations").Add(count);
  registry.GetCounter("grover.runs").Increment();
  registry.GetHistogram("grover.success_probability")
      .Record(SuccessProbability());
}

VerifiedAttempts GroverSimulation::RunAttempts(
    Rng& rng, int budget, const std::function<int()>& next_iterations,
    const std::function<bool(std::uint64_t)>& verify,
    const std::function<bool()>& stop) {
  VerifiedAttempts run;
  while (run.attempts < budget) {
    if (stop && stop()) {
      run.stopped = true;
      break;
    }
    const int iterations = next_iterations();
    Reset();
    Run(iterations);
    ++run.attempts;
    run.oracle_calls += iterations;
    const std::uint64_t sample = Measure(rng);
    // Classical verification of the measured subset (cheap) — a failed
    // verification triggers a re-run.
    if (verify(sample)) {
      run.found = true;
      run.sample = sample;
      run.iterations = iterations;
      break;
    }
  }
  return run;
}

double GroverSimulation::SuccessProbability() const {
  double total = 0.0;
  for (std::uint64_t basis : marked_) {
    total += simulator_.Probability(basis);
  }
  return total;
}

}  // namespace qplex
