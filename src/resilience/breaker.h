#ifndef QPLEX_RESILIENCE_BREAKER_H_
#define QPLEX_RESILIENCE_BREAKER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qplex::resilience {

/// Circuit-breaker state machine (DESIGN.md section 15). Legal transitions:
///   closed -> open        (failure threshold reached)
///   open -> half_open     (cooldown elapsed; one probe admitted)
///   half_open -> closed   (probe succeeded)
///   half_open -> open     (probe failed; cooldown doubles up to a cap)
/// The analyzer rejects any event stream that closes a breaker without
/// passing through half_open.
enum class BreakerState { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

/// Stable lowercase name used in events, health responses, and metrics
/// ("closed", "half_open", "open").
std::string_view BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Consecutive counted failures that trip a closed breaker open.
  /// <= 0 (the default) disables the breaker entirely: Consult always
  /// proceeds, and the scheduler builds no breakers at all.
  int failure_threshold = 0;

  /// Deterministic backoff, measured in Consult() calls rather than wall
  /// time: after opening, the breaker short-circuits the next N-1
  /// consultations and admits a half-open probe on the Nth. Counting
  /// consultations instead of seconds keeps chaos runs byte-reproducible —
  /// the transition sequence is a pure function of the request stream, not
  /// of scheduling latency.
  /// Each half_open -> open reopen doubles the next cooldown, capped at 64
  /// consults; a successful close resets it.
  int cooldown_consults = 8;
};

/// Point-in-time view of one breaker, for health responses and tests.
struct BreakerSnapshot {
  std::string backend;
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  int cooldown_remaining = 0;      ///< consults left before a probe (open only)
  std::int64_t opened = 0;         ///< closed/half_open -> open transitions
  std::int64_t closed = 0;         ///< half_open -> closed transitions
  std::int64_t short_circuits = 0; ///< consults answered without execution
  std::int64_t probes = 0;         ///< half-open executions admitted
};

/// True when a failure with `code` should count toward tripping a breaker.
/// Counted: transient crashes (kInternal) and server-side permanent failures
/// (kFailedPrecondition, kNotFound, kUnimplemented, kOutOfRange). Not
/// counted: caller-attributable outcomes — kInvalidArgument (bad request) and
/// kDeadlineExceeded (the client's budget, not the backend's health) — and
/// kResourceExhausted, which the fallback chain already handles
/// deterministically per request. The scheduler separately force-counts
/// watchdog kills, which surface as kResourceExhausted but are genuine
/// backend-health signals.
bool BreakerCountsFailure(StatusCode code);

/// Per-backend circuit breaker. Thread-safe; every transition emits a
/// `breaker_transition` event (solver "resilience") and bumps
/// `resilience.breaker.*` counters. Event payloads carry only
/// deterministic fields (states, counts, configured cooldowns) so a
/// single-worker chaos run produces a byte-stable transition stream.
class CircuitBreaker {
 public:
  /// What the caller should do with the execution it is about to run.
  enum class Decision {
    kProceed,       ///< closed: execute normally
    kProbe,         ///< half-open: execute; this is the recovery probe
    kShortCircuit,  ///< open: skip the backend, go straight to fallback
  };

  CircuitBreaker(std::string backend, BreakerOptions options);

  /// Admission decision for one imminent execution. Open breakers consume
  /// one cooldown tick per consult and flip to half-open when it reaches
  /// zero. A kProbe/kProceed decision must be resolved with exactly one
  /// RecordSuccess/RecordFailure/RecordNeutral call after the execution.
  Decision Consult();

  /// The admitted execution completed successfully.
  void RecordSuccess();

  /// The admitted execution failed in a way that counts toward the breaker
  /// (see BreakerCountsFailure; the scheduler also routes watchdog kills
  /// here).
  void RecordFailure();

  /// The admitted execution ended without a health verdict (client deadline,
  /// cancellation, non-counting status). Releases a half-open probe slot
  /// without changing state or failure counts.
  void RecordNeutral();

  BreakerSnapshot Snapshot() const;
  BreakerState state() const;

 private:
  void TransitionLocked(BreakerState to);

  const std::string backend_;
  const BreakerOptions options_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int cooldown_remaining_ = 0;
  int current_cooldown_ = 0;   ///< cooldown to charge on the next trip
  bool probe_in_flight_ = false;
  std::int64_t opened_ = 0;
  std::int64_t closed_count_ = 0;
  std::int64_t short_circuits_ = 0;
  std::int64_t probes_ = 0;
};

/// Registry of breakers keyed by backend name, created on first consult.
/// Thread-safe; pointers remain valid for the board's lifetime.
class BreakerBoard {
 public:
  explicit BreakerBoard(BreakerOptions options);

  /// The breaker for `backend`, created closed on first use.
  CircuitBreaker* Get(const std::string& backend);

  /// Snapshots of every breaker created so far, sorted by backend name.
  std::vector<BreakerSnapshot> Snapshots() const;

  /// Number of breakers currently in the open state (half-open counts as
  /// available capacity, not as open).
  int OpenCount() const;

 private:
  const BreakerOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace qplex::resilience

#endif  // QPLEX_RESILIENCE_BREAKER_H_
