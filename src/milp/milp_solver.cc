#include "milp/milp_solver.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace qplex {
namespace {

/// Integrality tolerance for classifying LP values.
constexpr double kIntegralityTolerance = 1e-6;

/// One branch-and-bound node: variable fixings accumulated along the path.
struct Node {
  std::vector<std::pair<int, int>> fixings;  // (var, value 0/1)
  double bound = -1e300;                     // parent LP objective
};

}  // namespace

Result<MilpSolution> MilpSolver::Solve(const MilpProblem& problem) const {
  for (int var : problem.binary_vars) {
    if (var < 0 || var >= problem.lp.num_vars) {
      return Status::InvalidArgument("binary variable out of range");
    }
  }

  Stopwatch watch;

  MilpSolution solution;
  double incumbent = 1e300;

  auto record_incumbent = [&](double objective, std::vector<double> x) {
    if (!solution.feasible || objective < incumbent) {
      incumbent = objective;
      solution.feasible = true;
      solution.objective = objective;
      solution.x = std::move(x);
      solution.trace.push_back(
          MilpTracePoint{watch.ElapsedSeconds(), objective});
      if (options_.on_incumbent) {
        options_.on_incumbent(solution.x, objective, solution.nodes);
      }
    }
  };

  // Initial heuristic incumbent (the B&B analogue of an MILP solver's
  // start heuristics): complete the all-zeros point before the first LP.
  if (options_.incumbent_heuristic) {
    std::vector<double> zero(problem.lp.num_vars, 0.0);
    std::vector<double> heuristic_x;
    double heuristic_objective = 0;
    if (options_.incumbent_heuristic(zero, &heuristic_x,
                                     &heuristic_objective)) {
      record_incumbent(heuristic_objective, std::move(heuristic_x));
    }
  }

  std::vector<Node> stack;
  stack.push_back(Node{});

  while (!stack.empty()) {
    if (StopRequested(options_.cancel)) {
      solution.optimal = false;
      solution.seconds = watch.ElapsedSeconds();
      return solution;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++solution.nodes;

    // Bound check against the incumbent before paying for the LP.
    if (solution.feasible && node.bound >= incumbent - 1e-9) {
      continue;
    }

    // Build the node LP: base problem + fixings.
    LpProblem lp = problem.lp;
    if (lp.upper.empty()) {
      lp.upper.assign(lp.num_vars, -1.0);
    }
    for (int var : problem.binary_vars) {
      if (lp.upper[var] < 0 || lp.upper[var] > 1.0) {
        lp.upper[var] = 1.0;
      }
    }
    for (const auto& [var, value] : node.fixings) {
      if (value == 0) {
        lp.upper[var] = 0.0;
      } else {
        lp.AddRowGe({{var, 1.0}}, 1.0);
      }
    }

    QPLEX_ASSIGN_OR_RETURN(LpSolution lp_solution,
                           SolveLp(lp, options_.cancel));
    solution.lp_pivots += lp_solution.pivots;
    if (lp_solution.status == LpStatus::kTimeLimit) {
      solution.optimal = false;
      solution.seconds = watch.ElapsedSeconds();
      return solution;
    }
    if (lp_solution.status == LpStatus::kInfeasible) {
      continue;
    }
    if (lp_solution.status == LpStatus::kUnbounded) {
      return Status::InvalidArgument("MILP relaxation is unbounded");
    }
    if (solution.nodes == 1 && options_.on_bound) {
      // The root relaxation is the search's initial proven dual bound.
      options_.on_bound(lp_solution.objective, solution.nodes);
    }
    if (solution.feasible && lp_solution.objective >= incumbent - 1e-9) {
      continue;  // dominated
    }

    // Select the most fractional binary variable.
    int branch_var = -1;
    double branch_frac = kIntegralityTolerance;
    for (int var : problem.binary_vars) {
      const double value = lp_solution.x[var];
      const double frac = std::abs(value - std::round(value));
      if (frac > branch_frac) {
        branch_frac = frac;
        branch_var = var;
      }
    }

    if (branch_var < 0) {
      // LP solution is integral on the binaries: a feasible MILP point.
      record_incumbent(lp_solution.objective, lp_solution.x);
      continue;
    }

    // Heuristic incumbent from this fractional node.
    if (options_.incumbent_heuristic) {
      std::vector<double> heuristic_x;
      double heuristic_objective = 0;
      if (options_.incumbent_heuristic(lp_solution.x, &heuristic_x,
                                       &heuristic_objective)) {
        record_incumbent(heuristic_objective, std::move(heuristic_x));
      }
    }

    // Dive first on the side the LP already prefers.
    const int preferred = lp_solution.x[branch_var] >= 0.5 ? 1 : 0;
    Node far = node;
    far.bound = lp_solution.objective;
    far.fixings.emplace_back(branch_var, 1 - preferred);
    Node near = node;
    near.bound = lp_solution.objective;
    near.fixings.emplace_back(branch_var, preferred);
    stack.push_back(std::move(far));
    stack.push_back(std::move(near));  // popped first (DFS dive)
  }

  solution.optimal = solution.feasible;
  solution.seconds = watch.ElapsedSeconds();
  if (solution.optimal && options_.on_bound) {
    // Tree exhausted: the dual bound meets the incumbent objective.
    options_.on_bound(solution.objective, solution.nodes);
  }
  return solution;
}

}  // namespace qplex
