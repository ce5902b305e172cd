#include "milp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/cancel.h"

namespace qplex {
namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau over columns [structural | slack | artificial | rhs]
/// with an explicit cost row. Implements the textbook two-phase method with
/// Dantzig pricing and a Bland fallback for anti-cycling.
class Tableau {
 public:
  Tableau(int num_rows, int num_cols)
      : rows_(num_rows), cols_(num_cols),
        data_((num_rows + 1) * num_cols, 0.0), basis_(num_rows, -1) {}

  double& At(int row, int col) { return data_[row * cols_ + col]; }
  double At(int row, int col) const { return data_[row * cols_ + col]; }
  // Cost row is stored at index rows_.
  double& Cost(int col) { return data_[rows_ * cols_ + col]; }
  double Cost(int col) const { return data_[rows_ * cols_ + col]; }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::vector<int>& basis() { return basis_; }

  void Pivot(int pivot_row, int pivot_col) {
    const double pivot = At(pivot_row, pivot_col);
    const double inv = 1.0 / pivot;
    for (int c = 0; c < cols_; ++c) {
      At(pivot_row, c) *= inv;
    }
    for (int r = 0; r <= rows_; ++r) {
      if (r == pivot_row) {
        continue;
      }
      const double factor = At(r, pivot_col);
      if (std::abs(factor) < kEps) {
        continue;
      }
      for (int c = 0; c < cols_; ++c) {
        At(r, c) -= factor * At(pivot_row, c);
      }
      At(r, pivot_col) = 0.0;
    }
    basis_[pivot_row] = pivot_col;
  }

  /// Runs simplex iterations until optimal or unbounded; polls `cancel` every
  /// 16 pivots. `allowed` marks columns permitted to enter the basis.
  enum class OptimizeOutcome { kOptimal, kUnbounded, kTimeLimit };
  OptimizeOutcome Optimize(const std::vector<bool>& allowed, int* pivots,
                           const CancelToken* cancel) {
    const int bland_threshold = 20 * (rows_ + cols_);
    for (;;) {
      // Pricing.
      int entering = -1;
      if (*pivots < bland_threshold) {
        double most_negative = -kEps;
        for (int c = 0; c + 1 < cols_; ++c) {
          if (allowed[c] && Cost(c) < most_negative) {
            most_negative = Cost(c);
            entering = c;
          }
        }
      } else {  // Bland's rule
        for (int c = 0; c + 1 < cols_; ++c) {
          if (allowed[c] && Cost(c) < -kEps) {
            entering = c;
            break;
          }
        }
      }
      if (entering < 0) {
        return OptimizeOutcome::kOptimal;
      }
      if ((*pivots & 0xF) == 0 && StopRequested(cancel)) {
        return OptimizeOutcome::kTimeLimit;
      }
      // Ratio test (smallest index tie-break keeps Bland valid).
      int leaving = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      const int rhs = cols_ - 1;
      for (int r = 0; r < rows_; ++r) {
        const double a = At(r, entering);
        if (a > kEps) {
          const double ratio = At(r, rhs) / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leaving >= 0 &&
               basis_[r] < basis_[leaving])) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving < 0) {
        return OptimizeOutcome::kUnbounded;
      }
      Pivot(leaving, entering);
      ++*pivots;
    }
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
  std::vector<int> basis_;
};

}  // namespace

void LpProblem::AddRowGe(std::vector<std::pair<int, double>> terms,
                         double rhs) {
  for (auto& [var, coeff] : terms) {
    coeff = -coeff;
  }
  AddRowLe(std::move(terms), -rhs);
}

Result<LpSolution> SolveLp(const LpProblem& problem,
                           const CancelToken* cancel) {
  const int n = problem.num_vars;
  if (static_cast<int>(problem.objective.size()) != n) {
    return Status::InvalidArgument("objective arity mismatch");
  }
  if (!problem.upper.empty() &&
      static_cast<int>(problem.upper.size()) != n) {
    return Status::InvalidArgument("upper-bound arity mismatch");
  }

  // Materialise upper bounds as extra rows.
  std::vector<LpProblem::Row> rows = problem.rows;
  for (int i = 0; i < n && !problem.upper.empty(); ++i) {
    if (problem.upper[i] >= 0) {
      rows.push_back(LpProblem::Row{{{i, 1.0}}, problem.upper[i]});
    }
  }
  const int m = static_cast<int>(rows.size());

  // Columns: n structural, m slacks, up to m artificials, 1 rhs.
  int num_artificials = 0;
  for (const auto& row : rows) {
    if (row.rhs < 0) {
      ++num_artificials;
    }
  }
  const int slack_base = n;
  const int art_base = n + m;
  const int total_cols = n + m + num_artificials + 1;
  const int rhs_col = total_cols - 1;

  Tableau tableau(m, total_cols);
  int next_artificial = art_base;
  std::vector<int> artificial_cols;
  for (int r = 0; r < m; ++r) {
    const double sign = rows[r].rhs < 0 ? -1.0 : 1.0;
    for (const auto& [var, coeff] : rows[r].terms) {
      QPLEX_CHECK(var >= 0 && var < n) << "row references variable " << var;
      tableau.At(r, var) += sign * coeff;
    }
    tableau.At(r, slack_base + r) = sign;  // slack (negated for flipped rows)
    tableau.At(r, rhs_col) = sign * rows[r].rhs;
    if (sign < 0) {
      tableau.At(r, next_artificial) = 1.0;
      tableau.basis()[r] = next_artificial;
      artificial_cols.push_back(next_artificial);
      ++next_artificial;
    } else {
      tableau.basis()[r] = slack_base + r;
    }
  }

  LpSolution solution;
  int pivots = 0;

  // ---- Phase 1: minimize the sum of artificials. ---------------------------
  if (num_artificials > 0) {
    for (int col : artificial_cols) {
      tableau.Cost(col) = 1.0;
    }
    // Make the cost row consistent with the starting basis (price out the
    // basic artificials).
    for (int r = 0; r < m; ++r) {
      if (tableau.basis()[r] >= art_base) {
        for (int c = 0; c < total_cols; ++c) {
          tableau.Cost(c) -= tableau.At(r, c);
        }
      }
    }
    std::vector<bool> allowed(total_cols, true);
    allowed[rhs_col] = false;
    switch (tableau.Optimize(allowed, &pivots, cancel)) {
      case Tableau::OptimizeOutcome::kOptimal:
        break;
      case Tableau::OptimizeOutcome::kUnbounded:
        return Status::Internal("phase-1 LP unbounded (should be impossible)");
      case Tableau::OptimizeOutcome::kTimeLimit:
        solution.status = LpStatus::kTimeLimit;
        solution.pivots = pivots;
        return solution;
    }
    if (tableau.Cost(rhs_col) < -1e-6) {
      // Residual infeasibility: -cost_row[rhs] is the phase-1 objective.
      solution.status = LpStatus::kInfeasible;
      solution.pivots = pivots;
      return solution;
    }
    // Drive any artificial that is still basic (at value 0) out of the
    // basis; otherwise later pivots could silently regrow it, voiding its
    // constraint. If its row has no eligible column the row is redundant and
    // can never change the artificial's value, so it is safe to leave.
    for (int r = 0; r < m; ++r) {
      if (tableau.basis()[r] < art_base) {
        continue;
      }
      for (int c = 0; c < art_base; ++c) {
        if (std::abs(tableau.At(r, c)) > kEps) {
          tableau.Pivot(r, c);
          ++pivots;
          break;
        }
      }
    }
    // Clear the phase-1 cost row.
    for (int c = 0; c < total_cols; ++c) {
      tableau.Cost(c) = 0.0;
    }
  }

  // ---- Phase 2: original objective. ----------------------------------------
  for (int i = 0; i < n; ++i) {
    tableau.Cost(i) = problem.objective[i];
  }
  // Price out the basic columns.
  for (int r = 0; r < m; ++r) {
    const int basic = tableau.basis()[r];
    const double cost = tableau.Cost(basic);
    if (std::abs(cost) > kEps) {
      for (int c = 0; c < total_cols; ++c) {
        tableau.Cost(c) -= cost * tableau.At(r, c);
      }
    }
  }
  std::vector<bool> allowed(total_cols, true);
  allowed[rhs_col] = false;
  for (int col : artificial_cols) {
    allowed[col] = false;  // artificials may never re-enter
  }
  switch (tableau.Optimize(allowed, &pivots, cancel)) {
    case Tableau::OptimizeOutcome::kOptimal:
      break;
    case Tableau::OptimizeOutcome::kUnbounded:
      solution.status = LpStatus::kUnbounded;
      solution.pivots = pivots;
      return solution;
    case Tableau::OptimizeOutcome::kTimeLimit:
      solution.status = LpStatus::kTimeLimit;
      solution.pivots = pivots;
      return solution;
  }

  solution.status = LpStatus::kOptimal;
  solution.pivots = pivots;
  solution.x.assign(n, 0.0);
  for (int r = 0; r < m; ++r) {
    const int basic = tableau.basis()[r];
    if (basic < n) {
      solution.x[basic] = tableau.At(r, rhs_col);
    }
  }
  double objective = 0;
  for (int i = 0; i < n; ++i) {
    objective += problem.objective[i] * solution.x[i];
  }
  solution.objective = objective;
  return solution;
}

}  // namespace qplex
