#ifndef QPLEX_COMMON_STOPWATCH_H_
#define QPLEX_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace qplex {

/// Monotonic wall-clock stopwatch used by solvers for deadlines and by the
/// bench harnesses for reporting.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }
  std::int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft deadline, fixed when created; a CancelToken carries one so solvers
/// see it through StopRequested(). A non-positive budget means "no
/// deadline".
class Deadline {
 public:
  /// Creates a deadline `budget_seconds` from now.
  static Deadline After(double budget_seconds) {
    return Deadline(budget_seconds);
  }
  /// A deadline that never expires.
  static Deadline Infinite() { return Deadline(-1.0); }

  bool Expired() const {
    return budget_seconds_ > 0 && watch_.ElapsedSeconds() >= budget_seconds_;
  }
  double RemainingSeconds() const {
    if (budget_seconds_ <= 0) {
      return std::numeric_limits<double>::infinity();
    }
    return budget_seconds_ - watch_.ElapsedSeconds();
  }

 private:
  explicit Deadline(double budget_seconds) : budget_seconds_(budget_seconds) {}

  double budget_seconds_;
  Stopwatch watch_;
};

}  // namespace qplex

#endif  // QPLEX_COMMON_STOPWATCH_H_
