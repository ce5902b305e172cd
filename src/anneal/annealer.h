#ifndef QPLEX_ANNEAL_ANNEALER_H_
#define QPLEX_ANNEAL_ANNEALER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/events.h"
#include "qubo/qubo_model.h"

namespace qplex {

/// Modeled annealer time one Monte Carlo sweep accounts for on the anytime
/// curves of SA, parallel tempering and the hybrid solver's polish.
constexpr double kMicrosPerSweep = 1.0;

/// One point on an anytime cost curve: best energy seen after spending
/// `budget_micros` of modeled annealer time.
struct CostTracePoint {
  double budget_micros = 0;
  double energy = 0;
};

/// Common result type of every annealing-style solver.
struct AnnealResult {
  QuboSample best_sample;
  double best_energy = 0;
  /// False when the run stopped early (deadline expired or cancellation
  /// requested) and the result is the incumbent at that point, not the full
  /// budget's outcome.
  bool completed = true;
  /// Total shots (independent anneals) performed.
  int shots = 0;
  /// Monte Carlo sweeps executed in total.
  std::int64_t sweeps = 0;
  /// Modeled annealer time consumed (shots x per-shot annealing time).
  double modeled_micros = 0;
  /// Wall-clock seconds the simulation itself took.
  double wall_seconds = 0;
  /// Anytime curve: best energy after each shot's worth of modeled time.
  std::vector<CostTracePoint> trace;
};

/// Observer callbacks shared by every annealing-style solver. All optional;
/// invoked synchronously on the annealing thread.
struct AnnealHooks {
  /// Fires whenever the run's best energy strictly improves, with the sweep
  /// count spent so far — the deterministic work axis of the anytime curve.
  /// Service adapters repair the sample to a k-plex here and feed the
  /// incumbent timeline.
  std::function<void(const QuboSample& sample, double energy,
                     std::int64_t sweeps)>
      on_new_best;
};

/// Shared base utilities for the annealers.
namespace anneal_internal {

/// Updates `result` with a candidate sample; appends a trace point at
/// `budget_micros`. When `heartbeat` is non-null and due, also emits a
/// progress event (best energy, shots, modeled budget) into the global
/// event stream — the live view of the anytime cost curve. When `hooks` is
/// non-null, a strict best-energy improvement fires hooks->on_new_best.
void RecordSample(const QuboModel& model, const QuboSample& sample,
                  double budget_micros, AnnealResult* result,
                  obs::ProgressHeartbeat* heartbeat = nullptr,
                  const AnnealHooks* hooks = nullptr);

/// A deterministic random initial sample.
QuboSample RandomSample(int num_variables, Rng& rng);

}  // namespace anneal_internal

}  // namespace qplex

#endif  // QPLEX_ANNEAL_ANNEALER_H_
