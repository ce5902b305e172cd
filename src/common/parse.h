#ifndef QPLEX_COMMON_PARSE_H_
#define QPLEX_COMMON_PARSE_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace qplex {

/// Strict whole-string number parse into `T`, shared by every flag and
/// option reader. Empty input, leading or trailing junk, overflow and, for a
/// floating-point `T`, non-finite values ("nan", "inf") are an
/// InvalidArgument naming `what` (a flag or an option key). A NaN must never
/// get through: it passes every `x < lo || x > hi` range check.
template <typename T>
Result<T> ParseNumber(std::string_view what, std::string_view text) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  bool ok = ec == std::errc{} && ptr == end && !text.empty();
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed);
  }
  if (!ok) {
    return Status::InvalidArgument("bad value for " + std::string(what) +
                                   ": '" + std::string(text) + "'");
  }
  return parsed;
}

}  // namespace qplex

#endif  // QPLEX_COMMON_PARSE_H_
