#include "resilience/breaker.h"

#include <algorithm>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"

namespace qplex::resilience {
namespace {

/// A failed half-open probe scales the next cooldown by this factor, up to
/// the cap.
constexpr double kCooldownMultiplier = 2.0;
constexpr int kCooldownMaxConsults = 64;

void CountTransition(const std::string& backend, BreakerState to) {
  auto& registry = obs::MetricsRegistry::Global();
  std::string_view kind;
  switch (to) {
    case BreakerState::kOpen:
      kind = "opened";
      break;
    case BreakerState::kHalfOpen:
      kind = "half_opened";
      break;
    case BreakerState::kClosed:
      kind = "closed";
      break;
  }
  registry.GetCounter("resilience.breaker." + std::string(kind)).Increment();
  registry.GetCounter("resilience.breaker." + backend + "." + std::string(kind))
      .Increment();
  registry.GetGauge("resilience.breaker." + backend + ".state")
      .Set(static_cast<double>(static_cast<int>(to)));
}

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half_open";
    case BreakerState::kOpen:
      return "open";
  }
  return "closed";
}

bool BreakerCountsFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kInternal:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
    case StatusCode::kUnimplemented:
    case StatusCode::kOutOfRange:
      return true;
    default:
      return false;
  }
}

CircuitBreaker::CircuitBreaker(std::string backend, BreakerOptions options)
    : backend_(std::move(backend)),
      options_(options),
      current_cooldown_(std::max(1, options.cooldown_consults)) {}

void CircuitBreaker::TransitionLocked(BreakerState to) {
  const BreakerState from = state_;
  state_ = to;
  switch (to) {
    case BreakerState::kOpen:
      ++opened_;
      cooldown_remaining_ = current_cooldown_;
      break;
    case BreakerState::kHalfOpen:
      cooldown_remaining_ = 0;
      break;
    case BreakerState::kClosed:
      ++closed_count_;
      consecutive_failures_ = 0;
      current_cooldown_ = std::max(1, options_.cooldown_consults);
      break;
  }
  CountTransition(backend_, to);
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "resilience", "breaker_transition",
                   {{"backend", backend_},
                    {"from", std::string(BreakerStateName(from))},
                    {"to", std::string(BreakerStateName(to))},
                    {"consecutive_failures",
                     static_cast<std::int64_t>(consecutive_failures_)},
                    {"cooldown",
                     static_cast<std::int64_t>(cooldown_remaining_)}});
  }
}

CircuitBreaker::Decision CircuitBreaker::Consult() {
  if (options_.failure_threshold <= 0) {
    return Decision::kProceed;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return Decision::kProceed;
    case BreakerState::kOpen:
      if (--cooldown_remaining_ > 0) {
        ++short_circuits_;
        obs::MetricsRegistry::Global()
            .GetCounter("resilience.breaker.short_circuits")
            .Increment();
        return Decision::kShortCircuit;
      }
      TransitionLocked(BreakerState::kHalfOpen);
      probe_in_flight_ = true;
      ++probes_;
      obs::MetricsRegistry::Global()
          .GetCounter("resilience.breaker.probes")
          .Increment();
      return Decision::kProbe;
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) {
        // One probe at a time: concurrent consults keep short-circuiting
        // until the in-flight probe resolves the breaker's fate.
        ++short_circuits_;
        obs::MetricsRegistry::Global()
            .GetCounter("resilience.breaker.short_circuits")
            .Increment();
        return Decision::kShortCircuit;
      }
      probe_in_flight_ = true;
      ++probes_;
      obs::MetricsRegistry::Global()
          .GetCounter("resilience.breaker.probes")
          .Increment();
      return Decision::kProbe;
  }
  return Decision::kProceed;
}

void CircuitBreaker::RecordSuccess() {
  if (options_.failure_threshold <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;
    TransitionLocked(BreakerState::kClosed);
  }
}

void CircuitBreaker::RecordFailure() {
  if (options_.failure_threshold <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;
    current_cooldown_ = std::min(
        kCooldownMaxConsults,
        std::max(1, static_cast<int>(static_cast<double>(current_cooldown_) *
                                     kCooldownMultiplier)));
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= options_.failure_threshold) {
    TransitionLocked(BreakerState::kOpen);
  }
}

void CircuitBreaker::RecordNeutral() {
  if (options_.failure_threshold <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kHalfOpen) {
    // The probe produced no verdict; stay half-open and let the next consult
    // admit a fresh probe.
    probe_in_flight_ = false;
  }
}

BreakerSnapshot CircuitBreaker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BreakerSnapshot snapshot;
  snapshot.backend = backend_;
  snapshot.state = state_;
  snapshot.consecutive_failures = consecutive_failures_;
  snapshot.cooldown_remaining =
      state_ == BreakerState::kOpen ? cooldown_remaining_ : 0;
  snapshot.opened = opened_;
  snapshot.closed = closed_count_;
  snapshot.short_circuits = short_circuits_;
  snapshot.probes = probes_;
  return snapshot;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

BreakerBoard::BreakerBoard(BreakerOptions options) : options_(options) {}

CircuitBreaker* BreakerBoard::Get(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = breakers_.find(backend);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(backend,
                      std::make_unique<CircuitBreaker>(backend, options_))
             .first;
  }
  return it->second.get();
}

std::vector<BreakerSnapshot> BreakerBoard::Snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BreakerSnapshot> snapshots;
  snapshots.reserve(breakers_.size());
  for (const auto& [name, breaker] : breakers_) {
    snapshots.push_back(breaker->Snapshot());
  }
  return snapshots;
}

int BreakerBoard::OpenCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int open = 0;
  for (const auto& [name, breaker] : breakers_) {
    if (breaker->state() == BreakerState::kOpen) {
      ++open;
    }
  }
  return open;
}

}  // namespace qplex::resilience
