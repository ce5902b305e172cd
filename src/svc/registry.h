#ifndef QPLEX_SVC_REGISTRY_H_
#define QPLEX_SVC_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "svc/solver.h"

namespace qplex::svc {

/// Name -> Solver mapping. Registration happens at service construction;
/// afterwards the registry is read-only and safe to share across scheduler
/// worker threads.
class SolverRegistry {
 public:
  SolverRegistry() = default;

  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;
  SolverRegistry(SolverRegistry&&) = default;
  SolverRegistry& operator=(SolverRegistry&&) = default;

  /// Registers `solver` under solver->name(). Duplicate names are an
  /// InvalidArgument (two backends silently shadowing each other is a
  /// configuration bug).
  Status Register(std::unique_ptr<Solver> solver);

  /// The solver registered under `name`, or nullptr.
  const Solver* Get(std::string_view name) const;

  /// Sorted backend names.
  std::vector<std::string> Names() const;

  /// Declares that jobs for `name` degrade to `fallback` when `name` fails
  /// with kResourceExhausted (e.g. a state-vector register over the memory
  /// budget). Both backends must already be registered; chains may be linked
  /// (a→b→c), and FallbackChain guards against cycles.
  Status SetFallback(std::string_view name, std::string_view fallback);

  /// The fallback registered for `name`, or nullptr when it has none.
  const std::string* Fallback(std::string_view name) const;

  /// The full degradation chain starting at (and excluding) `name`, in hop
  /// order; the scheduler's fallback walk. Cycle-guarded: a linked chain
  /// that loops back onto a visited backend is truncated at the repeat.
  std::vector<std::string> FallbackChain(std::string_view name) const;

 private:
  std::map<std::string, std::unique_ptr<Solver>, std::less<>> solvers_;
  std::map<std::string, std::string, std::less<>> fallbacks_;
};

/// Registers every built-in backend adapter:
///   bs      branch-and-search (exact; proves optimality when it completes)
///   enum    exhaustive enumeration (exact, n <= 30)
///   grasp   randomized greedy + local search
///   qtkp    one Grover threshold probe (options: threshold, oracle, threads)
///   qmkp    Grover binary search over the threshold
///   sa      simulated annealing over the qaMKP QUBO
///   pt      parallel tempering over the QUBO
///   pia     path-integral (simulated quantum) annealing over the QUBO
///   hybrid  SA portfolio + domain refinement (the haMKP stand-in)
///   milp    McCormick linearization + branch & bound (proves optimality)
Status RegisterBuiltinBackends(SolverRegistry* registry);

/// A registry pre-loaded with the built-in backends.
SolverRegistry MakeBuiltinRegistry();

}  // namespace qplex::svc

#endif  // QPLEX_SVC_REGISTRY_H_
