#include "resilience/retry.h"

#include <algorithm>

#include "common/rng.h"

namespace qplex::resilience {
namespace {

/// Growth factor of the jitter window over the previous delay.
constexpr double kBackoffMultiplier = 3.0;

}  // namespace

FailureClass ClassifyFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kInternal:
      return FailureClass::kTransient;
    case StatusCode::kResourceExhausted:
      return FailureClass::kDegradable;
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnimplemented:
      return FailureClass::kPermanent;
  }
  return FailureClass::kPermanent;
}

double DelayAtAttempt(const BackoffOptions& options, int attempt) {
  const double lo = std::max(options.base_ms, 0.0);
  const double cap = std::max(options.cap_ms, lo);
  Rng rng(options.seed);
  double delay = 0;
  double previous = lo;
  for (int i = 0; i < attempt; ++i) {
    const double hi = std::max(lo, previous * kBackoffMultiplier);
    delay = std::min(cap, lo + rng.UniformDouble() * (hi - lo));
    previous = delay;
  }
  return delay;
}

}  // namespace qplex::resilience
