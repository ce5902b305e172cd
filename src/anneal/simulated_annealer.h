#ifndef QPLEX_ANNEAL_SIMULATED_ANNEALER_H_
#define QPLEX_ANNEAL_SIMULATED_ANNEALER_H_

#include <cstdint>

#include "anneal/annealer.h"
#include "common/cancel.h"

namespace qplex {

/// Classical simulated annealing over a QUBO — the paper's "SA" baseline.
/// Runtime is controlled exactly as in the paper: a fixed number of sweeps
/// per shot and a shot count (Section V, comparison setup: "we fix the number
/// of sweeps to 2 and vary s").
struct SimulatedAnnealerOptions {
  int sweeps_per_shot = 2;
  int shots = 100;
  /// Inverse-temperature schedule: beta rises geometrically from 0.1 to
  /// beta_final (at least 0.1) across the sweeps of one shot.
  double beta_final = 5.0;
  /// Optional stop token (cancellation and deadline); may be null. Polled
  /// every sweep, so a 1 ms deadline stops the run promptly; the incumbent
  /// is returned with `AnnealResult::completed == false`.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
  /// Observer callbacks (best-energy improvements); all optional.
  AnnealHooks hooks;
};

class SimulatedAnnealer {
 public:
  explicit SimulatedAnnealer(SimulatedAnnealerOptions options = {})
      : options_(options) {}

  /// Minimizes `model`; every shot starts from a fresh random sample.
  Result<AnnealResult> Run(const QuboModel& model) const;

 private:
  SimulatedAnnealerOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_ANNEAL_SIMULATED_ANNEALER_H_
