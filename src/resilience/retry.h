#ifndef QPLEX_RESILIENCE_RETRY_H_
#define QPLEX_RESILIENCE_RETRY_H_

#include <cstdint>

#include "common/status.h"

namespace qplex::resilience {

/// Retry taxonomy over the canonical StatusCode space (full table in
/// DESIGN.md section 10). The scheduler retries transient failures with
/// backoff, walks the registry fallback chain on degradable ones, and
/// surfaces permanent ones immediately.
enum class FailureClass {
  kTransient,   ///< kInternal: crashed/flaky execution, retry may succeed
  kDegradable,  ///< kResourceExhausted: same backend will fail again at the
                ///< same scale — fall back, don't retry
  kPermanent,   ///< bad request, missing backend, expired deadline, ...
};

FailureClass ClassifyFailure(StatusCode code);

/// Exponential backoff with decorrelated jitter (the AWS architecture-blog
/// variant): delay_i = min(cap, uniform(base, 3 * prev)). Fully deterministic
/// for a fixed seed, so retry schedules are reproducible and safe to record
/// in gated bench counters.
struct BackoffOptions {
  double base_ms = 1.0;
  double cap_ms = 100.0;
  std::uint64_t seed = 1;
};

/// The `attempt`-th delay (attempt >= 1) of the backoff schedule `options`
/// describes, in milliseconds; grows (jittered) up to cap_ms. A pure function
/// of (options, attempt): the scheduler recomputes a task's delay without
/// carrying backoff state across re-enqueues, and the telemetry layer stamps
/// the exact same number into phase histograms and span events.
double DelayAtAttempt(const BackoffOptions& options, int attempt);

}  // namespace qplex::resilience

#endif  // QPLEX_RESILIENCE_RETRY_H_
