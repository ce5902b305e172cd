#include "resilience/health.h"

#include <algorithm>

#include "obs/metrics.h"

namespace qplex::resilience {
namespace {

/// Clamp range for the retry_after_ms hint attached to shed responses.
constexpr double kMinRetryAfterMs = 10;
constexpr double kMaxRetryAfterMs = 2000;

}  // namespace

OverloadController::OverloadController(OverloadOptions options)
    : options_(options) {}

void OverloadController::RecordQueueDelay(double delay_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!has_sample_) {
    ewma_ms_ = delay_ms;
    has_sample_ = true;
  } else {
    ewma_ms_ += options_.ewma_alpha * (delay_ms - ewma_ms_);
  }
  obs::MetricsRegistry::Global()
      .GetGauge("svc.admission.delay_ewma_ms")
      .Set(ewma_ms_);
}

OverloadController::Decision OverloadController::Admit(
    std::size_t backlog_depth, std::size_t backlog_capacity,
    int open_breakers) {
  Decision decision;
  std::lock_guard<std::mutex> lock(mutex_);
  if (backlog_capacity > 0 && backlog_depth >= backlog_capacity) {
    decision.admit = false;
    decision.reason = "backlog_full";
  } else if (options_.target_delay_ms > 0 && has_sample_ &&
             backlog_depth >= options_.min_backlog) {
    const double threshold =
        open_breakers > 0 ? options_.target_delay_ms
                          : options_.target_delay_ms * options_.shed_factor;
    if (ewma_ms_ > threshold) {
      decision.admit = false;
      decision.reason = "queue_delay";
    }
  }
  if (!decision.admit) {
    decision.retry_after_ms =
        std::clamp(2 * ewma_ms_, kMinRetryAfterMs, kMaxRetryAfterMs);
    ++shed_;
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("svc.admission.shed").Increment();
    registry
        .GetCounter(std::string("svc.admission.shed.") + decision.reason)
        .Increment();
    registry.GetHistogram("svc.admission.retry_after_ms")
        .Record(decision.retry_after_ms);
  }
  return decision;
}

double OverloadController::delay_ewma_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_ms_;
}

std::int64_t OverloadController::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

}  // namespace qplex::resilience
