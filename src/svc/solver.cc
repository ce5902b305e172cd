#include "svc/solver.h"

#include "common/parse.h"

namespace qplex::svc {

Result<int> OptionInt(const SolveRequest& request, std::string_view key,
                      int fallback) {
  const auto it = request.options.find(std::string(key));
  if (it == request.options.end()) {
    return fallback;
  }
  return ParseNumber<int>("option '" + std::string(key) + "'", it->second);
}

Result<double> OptionDouble(const SolveRequest& request, std::string_view key,
                            double fallback) {
  const auto it = request.options.find(std::string(key));
  if (it == request.options.end()) {
    return fallback;
  }
  return ParseNumber<double>("option '" + std::string(key) + "'",
                             it->second);
}

Result<std::string> OptionString(const SolveRequest& request,
                                 std::string_view key, std::string fallback) {
  const auto it = request.options.find(std::string(key));
  if (it == request.options.end()) {
    return fallback;
  }
  return it->second;
}

}  // namespace qplex::svc
