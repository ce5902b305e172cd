#ifndef QPLEX_MILP_SIMPLEX_H_
#define QPLEX_MILP_SIMPLEX_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"

namespace qplex {

/// A linear program in inequality form:
///   minimize    c . x
///   subject to  A x <= b         (rows)
///               0 <= x <= upper  (upper defaults to +inf; binaries use 1)
struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  ///< c, size num_vars

  struct Row {
    std::vector<std::pair<int, double>> terms;  ///< sparse (var, coeff)
    double rhs = 0;
  };
  std::vector<Row> rows;

  /// Per-variable upper bound; negative means unbounded above.
  std::vector<double> upper;

  /// Appends a constraint sum(terms) <= rhs.
  void AddRowLe(std::vector<std::pair<int, double>> terms, double rhs) {
    rows.push_back(Row{std::move(terms), rhs});
  }
  /// Appends sum(terms) >= rhs as its negation.
  void AddRowGe(std::vector<std::pair<int, double>> terms, double rhs);
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kTimeLimit };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0;
  std::vector<double> x;
  int pivots = 0;
};

/// Dense two-phase primal simplex with Bland's anti-cycling rule. Intended
/// for the moderate LP sizes produced by the McCormick linearization of
/// qaMKP QUBOs; no scaling/presolve. Polls `cancel` (cancellation and
/// deadline; may be null) every 16 pivots; on a stop the solve aborts with
/// LpStatus::kTimeLimit.
Result<LpSolution> SolveLp(const LpProblem& problem,
                           const CancelToken* cancel = nullptr);

}  // namespace qplex

#endif  // QPLEX_MILP_SIMPLEX_H_
