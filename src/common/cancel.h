#ifndef QPLEX_COMMON_CANCEL_H_
#define QPLEX_COMMON_CANCEL_H_

#include <atomic>
#include <cstdint>

#include "common/stopwatch.h"

namespace qplex {

/// Cooperative stop signal shared between a controller (the service
/// scheduler, a portfolio race) and one or more running solvers. The token
/// reports a stop when the controller called Cancel() or when its deadline
/// expired; solvers poll it through StopRequested() between units of work
/// and unwind with their incumbent. Both causes are level-triggered and
/// sticky: once set they stay set for the token's lifetime.
///
/// The deadline is fixed at construction (default: none), so a budget
/// covers every phase of a run — a solver never starts a clock of its own.
/// Callers that only want a time limit pass `CancelToken
/// token(Deadline::After(seconds))`.
///
/// Tokens can be chained: LinkParent() makes this token report a stop when
/// its own flag or deadline, or any ancestor's, says so. The scheduler builds
/// each job's token with the request deadline and hands each backend
/// execution a fresh attempt-scoped token linked to it, so the watchdog can
/// cancel one wedged attempt (fallback still runs) while a job-level
/// Cancel() or the job deadline reaches every attempt. A backend may link a
/// tighter child of its own (milp's time_limit cap). The parent must outlive
/// this token.
///
/// Poll() doubles as the liveness heartbeat: every StopRequested() check a
/// solver makes bumps the counter of this token and of each ancestor, which
/// the scheduler watchdog reads on the attempt token. A solver that stops
/// polling — wedged in an uninstrumented loop, blocked on I/O — stops
/// heartbeating and becomes eligible for a watchdog kill.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  /// True once this token or an ancestor was cancelled or ran past its
  /// deadline.
  bool Cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed) || deadline_.Expired()) {
      return true;
    }
    const CancelToken* parent = parent_.load(std::memory_order_relaxed);
    return parent != nullptr && parent->Cancelled();
  }

  /// Cancelled() plus a heartbeat: records that the owner is alive and
  /// polling. Solvers reach this through StopRequested(); monitors that must
  /// not count as progress (the watchdog itself, fault-injected stalls) read
  /// Cancelled() directly.
  bool Poll() const {
    for (const CancelToken* token = this; token != nullptr;
         token = token->parent_.load(std::memory_order_relaxed)) {
      token->polls_.fetch_add(1, std::memory_order_relaxed);
    }
    return Cancelled();
  }

  /// Heartbeat counter: Poll() calls on this token or any descendant.
  std::uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  /// This token's own deadline (ancestors' deadlines are not folded in).
  const Deadline& deadline() const { return deadline_; }

  /// Chains this token under `parent` (nullptr unlinks). The parent's
  /// cancellation and deadline are then visible through Cancelled()/Poll()
  /// here; Cancel() on this token never propagates upward.
  void LinkParent(const CancelToken* parent) {
    parent_.store(parent, std::memory_order_relaxed);
  }

 private:
  const Deadline deadline_ = Deadline::Infinite();
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<std::uint64_t> polls_{0};
  std::atomic<const CancelToken*> parent_{nullptr};
};

/// The stop predicate solvers poll between units of work: true when the
/// (optional) token was cancelled or its deadline, or an ancestor's, expired.
/// A null token never stops. Cheap enough for per-sweep / per-kilonode
/// polling; not meant for inner loops. Each call heartbeats the token,
/// feeding the scheduler's wedged-job watchdog.
inline bool StopRequested(const CancelToken* cancel) {
  return cancel != nullptr && cancel->Poll();
}

}  // namespace qplex

#endif  // QPLEX_COMMON_CANCEL_H_
