#ifndef QPLEX_RESILIENCE_HEALTH_H_
#define QPLEX_RESILIENCE_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace qplex::resilience {

/// Adaptive admission control for the serving front-ends (DESIGN.md
/// section 15). The controller watches one signal the caller feeds it —
/// per-request queue delay, reported as completed responses drain — and
/// combines it with instantaneous backlog depth and breaker state to decide
/// whether to admit the next request or shed it early with a retry_after_ms
/// hint. Shedding early (before the backlog hard cap) bounds the queue delay
/// accepted requests experience instead of serving every request late.
///
/// Determinism: the decision is a pure function of the inputs and the EWMA
/// state, which itself is a fold over the reported delays. Chaos tests that
/// need byte-stable event streams simply keep the adaptive path disabled
/// (target_delay_ms = 0) or drive it with synthetic delays.
struct OverloadOptions {
  /// Queue-delay objective in milliseconds. 0 disables adaptive shedding:
  /// only the backlog-full hard cap sheds, as before.
  double target_delay_ms = 0;

  /// EWMA smoothing factor in (0, 1]; higher reacts faster.
  double ewma_alpha = 0.2;

  /// Adaptive shedding triggers when the delay EWMA exceeds
  /// target_delay_ms * shed_factor (or target_delay_ms alone while any
  /// breaker is open — degraded capacity warrants shedding sooner).
  double shed_factor = 2.0;

  /// Adaptive shedding never fires while fewer than this many requests are
  /// queued, so a briefly-slow system still makes progress.
  std::size_t min_backlog = 2;
};

class OverloadController {
 public:
  explicit OverloadController(OverloadOptions options);

  /// Feeds one completed request's queue delay (milliseconds spent between
  /// admission and execution start) into the EWMA.
  void RecordQueueDelay(double delay_ms);

  struct Decision {
    bool admit = true;
    /// Meaningful when !admit: how long a client should wait before
    /// retrying, twice the smoothed delay clamped to [10, 2000] ms.
    double retry_after_ms = 0;
    const char* reason = "";    ///< "backlog_full" | "queue_delay" when shed
  };

  /// Admission decision for one incoming request given the current backlog
  /// depth, its capacity, and the number of open circuit breakers. Counts
  /// sheds into `svc.admission.*` metrics.
  Decision Admit(std::size_t backlog_depth, std::size_t backlog_capacity,
                 int open_breakers);

  /// Current smoothed queue delay in milliseconds (0 until first sample).
  double delay_ewma_ms() const;

  /// Requests shed by Admit() since construction.
  std::int64_t shed() const;

 private:
  const OverloadOptions options_;
  mutable std::mutex mutex_;
  double ewma_ms_ = 0;
  bool has_sample_ = false;
  std::int64_t shed_ = 0;
};

}  // namespace qplex::resilience

#endif  // QPLEX_RESILIENCE_HEALTH_H_
