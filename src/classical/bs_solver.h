#ifndef QPLEX_CLASSICAL_BS_SOLVER_H_
#define QPLEX_CLASSICAL_BS_SOLVER_H_

#include <cstdint>
#include <functional>

#include "classical/exact.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "graph/graph.h"

namespace qplex {

/// Search statistics of a BS run.
struct BsSolverStats {
  std::int64_t branch_nodes = 0;
  std::int64_t prunes_bound = 0;
  std::int64_t prunes_infeasible = 0;
  double elapsed_seconds = 0;
  bool completed = true;  ///< false when the stop token fired first
};

/// Options for the branch-and-search baseline.
struct BsSolverOptions {
  /// Apply the core/truss reduction (classical::ReduceForTarget) before and
  /// during search whenever the incumbent improves.
  bool use_reduction = true;
  /// Use the degree-support upper bound min_{u in P}(deg_P(u)+deg_C(u))+k.
  bool use_support_bound = true;
  /// Optional stop token (cancellation and deadline); may be null. Polled
  /// every ~1k branch nodes, so a stop is detected within milliseconds; the
  /// incumbent so far is returned with `stats().completed == false`. The
  /// greedy and reduction phases before the search count against the
  /// token's deadline too.
  const CancelToken* cancel = nullptr;
  /// Invoked whenever the incumbent improves (progressive reporting). The
  /// stats argument carries the deterministic work spent so far (branch
  /// nodes, prune counters) at the moment of the improvement.
  std::function<void(const MkpSolution&, const BsSolverStats&)> on_incumbent;
  /// Invoked whenever the proven upper bound on the maximum k-plex tightens:
  /// once at the trivial bound n, after graph reduction, and at completion
  /// (bound = incumbent size, gap closed).
  std::function<void(double upper_bound, const BsSolverStats&)> on_bound;
};

/// The classical exact baseline the paper compares against ("BS",
/// Xiao et al. 2017): a branch-and-search maximum k-plex solver. This
/// implementation keeps the same algorithmic skeleton — vertex branching on
/// the candidate with the tightest degree slack, candidate filtering against
/// the k-plex invariant, size and degree-support upper bounds, and
/// core/truss-style graph reduction — without the paper's full measure-and-
/// conquer branching rules (those only sharpen the worst-case exponent).
/// The search runs on the BitGraph kernel engines (graph/bitgraph.h): a
/// single-word mask engine when the search graph fits in 64 vertices (the
/// historical fast path, zero-allocation subset ops) and the multi-word
/// engine for arbitrary n. The engine is picked per search graph, so a large
/// instance whose reduction survives with <= 64 vertices still branches on
/// the fast path.
class BsSolver {
 public:
  explicit BsSolver(BsSolverOptions options = {}) : options_(options) {}

  /// Finds a maximum k-plex of `graph` (any n).
  Result<MkpSolution> Solve(const Graph& graph, int k);

  const BsSolverStats& stats() const { return stats_; }

 private:
  BsSolverOptions options_;
  BsSolverStats stats_;
};

}  // namespace qplex

#endif  // QPLEX_CLASSICAL_BS_SOLVER_H_
