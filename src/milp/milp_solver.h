#ifndef QPLEX_MILP_MILP_SOLVER_H_
#define QPLEX_MILP_MILP_SOLVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "milp/simplex.h"

namespace qplex {

/// A mixed binary/continuous linear program: the LP of `lp` plus a set of
/// variables constrained to {0, 1}.
struct MilpProblem {
  LpProblem lp;
  std::vector<int> binary_vars;
};

/// A point on the solver's anytime curve.
struct MilpTracePoint {
  double seconds = 0;
  double objective = 0;
};

struct MilpSolution {
  bool feasible = false;
  /// True when optimality was proven before the stop token fired.
  bool optimal = false;
  double objective = 0;
  std::vector<double> x;
  std::int64_t nodes = 0;
  int lp_pivots = 0;
  double seconds = 0;
  std::vector<MilpTracePoint> trace;
};

struct MilpSolverOptions {
  /// Optional stop token (cancellation and deadline); may be null. Polled at
  /// every branch-and-bound node and every 16 simplex pivots of a node LP;
  /// on a stop the incumbent is returned with `optimal == false`.
  const CancelToken* cancel = nullptr;
  /// Optional primal heuristic: given a node's (fractional) LP solution,
  /// construct a feasible integer point. Returns true on success and fills
  /// the full solution vector + objective. The QUBO linearization supplies a
  /// rounding-plus-derive-products completer here.
  std::function<bool(const std::vector<double>& lp_x, std::vector<double>* x,
                     double* objective)>
      incumbent_heuristic;
  /// Invoked on every strict incumbent improvement with the node count spent
  /// so far (the search's deterministic work unit).
  std::function<void(const std::vector<double>& x, double objective,
                     std::int64_t nodes)>
      on_incumbent;
  /// Invoked when the proven dual bound changes: once with the root LP
  /// relaxation, and at completion with the optimal objective (gap closed).
  /// The MILP minimizes, so bounds here are lower bounds on the objective.
  std::function<void(double bound, std::int64_t nodes)> on_bound;
};

/// Branch-and-bound binary MILP solver over the dense simplex — qplex's
/// stand-in for the Gurobi baseline of the paper's Fig. 10/11. DFS
/// best-bound hybrid with most-fractional branching; every LP-feasible node
/// is also rounded to generate early incumbents, which produces the anytime
/// trace the figures plot.
class MilpSolver {
 public:
  explicit MilpSolver(MilpSolverOptions options = {}) : options_(options) {}

  Result<MilpSolution> Solve(const MilpProblem& problem) const;

 private:
  MilpSolverOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_MILP_MILP_SOLVER_H_
