#include "milp/qubo_linearization.h"

#include <cmath>

namespace qplex {

LinearizedQubo LinearizeQubo(const QuboModel& model) {
  LinearizedQubo out;
  out.num_x = model.num_variables();
  out.offset = model.offset();

  const int num_products = static_cast<int>(model.quadratic_terms().size());
  LpProblem& lp = out.milp.lp;
  lp.num_vars = out.num_x + num_products;
  lp.objective.assign(lp.num_vars, 0.0);
  lp.upper.assign(lp.num_vars, 1.0);

  for (int i = 0; i < out.num_x; ++i) {
    lp.objective[i] = model.linear(i);
    out.milp.binary_vars.push_back(i);
  }

  int next = out.num_x;
  for (const auto& [u, v, weight] : model.quadratic_terms()) {
    const int y = next++;
    out.product_vars[{u, v}] = y;
    lp.objective[y] = weight;
    // McCormick envelope: y <= x_u, y <= x_v, y >= x_u + x_v - 1, y >= 0.
    lp.AddRowLe({{y, 1.0}, {u, -1.0}}, 0.0);
    lp.AddRowLe({{y, 1.0}, {v, -1.0}}, 0.0);
    lp.AddRowGe({{y, 1.0}, {u, -1.0}, {v, -1.0}}, -1.0);
  }
  return out;
}

QuboSample ExtractSample(const LinearizedQubo& linearized,
                         const std::vector<double>& x) {
  QuboSample sample(linearized.num_x);
  for (int i = 0; i < linearized.num_x; ++i) {
    sample[i] = x[i] >= 0.5 ? 1 : 0;
  }
  return sample;
}

std::function<bool(const std::vector<double>&, std::vector<double>*, double*)>
MakeQuboRoundingHeuristic(const QuboModel& model,
                          const LinearizedQubo& linearized) {
  return [&model, &linearized](const std::vector<double>& lp_x,
                               std::vector<double>* x, double* objective) {
    QuboSample sample(linearized.num_x);
    for (int i = 0; i < linearized.num_x; ++i) {
      sample[i] = lp_x[i] >= 0.5 ? 1 : 0;
    }
    // Single-flip steepest descent on the true QUBO energy — the rounding
    // alone can land on terrible points of the penalty landscape (this is
    // the MILP solver's "improvement heuristic").
    for (;;) {
      int best_var = -1;
      double best_delta = -1e-12;
      for (int i = 0; i < linearized.num_x; ++i) {
        const double delta = model.FlipDelta(sample, i);
        if (delta < best_delta) {
          best_delta = delta;
          best_var = i;
        }
      }
      if (best_var < 0) {
        break;
      }
      sample[best_var] ^= 1;
    }
    x->assign(linearized.milp.lp.num_vars, 0.0);
    for (int i = 0; i < linearized.num_x; ++i) {
      (*x)[i] = sample[i];
    }
    for (const auto& [key, y] : linearized.product_vars) {
      (*x)[y] = sample[key.first] && sample[key.second] ? 1.0 : 0.0;
    }
    // The MILP objective excludes the constant offset; report the LP-scale
    // objective so bounds compare apples to apples.
    *objective = model.Evaluate(sample) - model.offset();
    return true;
  };
}

}  // namespace qplex
