#ifndef QPLEX_OBS_INCUMBENT_H_
#define QPLEX_OBS_INCUMBENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/stopwatch.h"

namespace qplex::obs {

class Counter;

/// Anytime-convergence reporter: every backend owns one per solve and calls
/// Report() whenever it improves its best solution, producing a monotone
/// "incumbent" event timeline (and, for bounded searches, a "bound" timeline)
/// in the global event sink.
///
/// Event schema (fields beyond the sink envelope):
///
///   incumbent: {trace?, path?, size, work, improvement, value?, elapsed_ms}
///   bound:     {trace?, path?, bound, work, update, elapsed_ms}
///
/// `work` is the backend's deterministic progress unit (branch nodes, masks
/// scanned, sweeps, probes, iterations, LP nodes) so two same-seed runs
/// produce byte-identical timelines regardless of wall-clock jitter;
/// `elapsed_ms` rides along for wall-clock views only. `improvement` /
/// `update` are 1-based per-reporter indices. `trace` and `path` are captured
/// from the job trace open on this thread at construction, keying each
/// timeline to the exact structural span (racer / retry attempt / fallback
/// hop) that produced it — a retried attempt starts a fresh timeline instead of breaking the
/// previous one's monotonicity.
///
/// Cost model: when no sink is installed the constructor is one atomic load
/// and every Report() is a single branch — no allocation, no field building
/// (gated by bench/telemetry_overhead). Report() only emits on a *strict*
/// size improvement, so noisy searches (annealer repair, MILP rounding) stay
/// monotone by construction.
class IncumbentReporter {
 public:
  explicit IncumbentReporter(std::string_view solver);

  IncumbentReporter(const IncumbentReporter&) = delete;
  IncumbentReporter& operator=(const IncumbentReporter&) = delete;

  /// True when a sink was installed at construction; callers can skip
  /// computing sizes/bounds entirely when false.
  bool enabled() const { return enabled_; }

  /// Records a candidate of `size` found after `work` deterministic progress
  /// units; emits an "incumbent" event iff size strictly beats the best seen.
  void Report(int size, std::int64_t work);

  /// Same, additionally attaching the backend's native objective ("value":
  /// QUBO energy, MILP objective) to the event.
  void Report(int size, std::int64_t work, double value);

  /// Records a dual/upper bound after `work` units; emits a "bound" event iff
  /// the bound changed since the last one reported.
  void ReportBound(double bound, std::int64_t work);

  int best_size() const { return best_size_; }
  int improvements() const { return improvements_; }

 private:
  void Emit(int size, std::int64_t work, bool has_value, double value);

  bool enabled_;
  int best_size_ = -1;
  int improvements_ = 0;
  int bound_updates_ = 0;
  bool has_bound_ = false;
  double last_bound_ = 0;
  // The fields below are only populated when enabled_.
  std::string solver_;
  std::string trace_;
  std::string path_;
  Counter* payload_counter_ = nullptr;
  Stopwatch watch_;
};

}  // namespace qplex::obs

#endif  // QPLEX_OBS_INCUMBENT_H_
