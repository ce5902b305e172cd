#include <gtest/gtest.h>

#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "milp/milp_solver.h"
#include "milp/qubo_linearization.h"
#include "milp/simplex.h"
#include "qubo/mkp_qubo.h"

namespace qplex {
namespace {

// -- simplex ------------------------------------------------------------------

TEST(SimplexTest, SimpleTwoVarProblem) {
  // minimize -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2  ->  x=2? no:
  // optimum at x=2,y=2: obj -6.
  LpProblem problem;
  problem.num_vars = 2;
  problem.objective = {-1.0, -2.0};
  problem.AddRowLe({{0, 1.0}, {1, 1.0}}, 4.0);
  problem.upper = {3.0, 2.0};
  const LpSolution solution = SolveLp(problem).value();
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -6.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 2.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualRowsNeedPhase1) {
  // minimize x + y  s.t.  x + y >= 3, x <= 2, y <= 2  -> obj 3.
  LpProblem problem;
  problem.num_vars = 2;
  problem.objective = {1.0, 1.0};
  problem.AddRowGe({{0, 1.0}, {1, 1.0}}, 3.0);
  problem.upper = {2.0, 2.0};
  const LpSolution solution = SolveLp(problem).value();
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x >= 3 with x <= 1.
  LpProblem problem;
  problem.num_vars = 1;
  problem.objective = {0.0};
  problem.AddRowGe({{0, 1.0}}, 3.0);
  problem.upper = {1.0};
  const LpSolution solution = SolveLp(problem).value();
  EXPECT_EQ(solution.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // minimize -x, x unbounded above.
  LpProblem problem;
  problem.num_vars = 1;
  problem.objective = {-1.0};
  problem.upper = {-1.0};  // no upper bound
  const LpSolution solution = SolveLp(problem).value();
  EXPECT_EQ(solution.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple constraints active at the optimum.
  LpProblem problem;
  problem.num_vars = 3;
  problem.objective = {-0.75, 150.0, -0.02};
  problem.AddRowLe({{0, 0.25}, {1, -60.0}, {2, -0.04}}, 0.0);
  problem.AddRowLe({{0, 0.5}, {1, -90.0}, {2, -0.02}}, 0.0);
  problem.AddRowLe({{2, 1.0}}, 1.0);
  problem.upper = {-1.0, -1.0, -1.0};
  const LpSolution solution = SolveLp(problem).value();
  EXPECT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -0.05, 1e-6);
}

TEST(SimplexTest, RejectsAritymismatch) {
  LpProblem problem;
  problem.num_vars = 2;
  problem.objective = {1.0};
  EXPECT_FALSE(SolveLp(problem).ok());
}

// -- MILP ---------------------------------------------------------------------

TEST(MilpTest, SimpleKnapsack) {
  // maximize 5a + 4b + 3c (as minimize negative) s.t. 2a+3b+c <= 4, binaries.
  // Optimum: a = c = 1 (weight 3), value 8; taking b instead caps at 7.
  LpProblem lp;
  lp.num_vars = 3;
  lp.objective = {-5.0, -4.0, -3.0};
  lp.AddRowLe({{0, 2.0}, {1, 3.0}, {2, 1.0}}, 4.0);
  MilpProblem problem;
  problem.lp = lp;
  problem.binary_vars = {0, 1, 2};
  const MilpSolution solution = MilpSolver().Solve(problem).value();
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(solution.optimal);
  EXPECT_NEAR(solution.objective, -8.0, 1e-9);
  EXPECT_NEAR(solution.x[0], 1.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 0.0, 1e-9);
  EXPECT_NEAR(solution.x[2], 1.0, 1e-9);
}

TEST(MilpTest, InfeasibleIntegerProblem) {
  // x + y = 1.5 impossible for binaries: model as two inequalities.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.AddRowLe({{0, 1.0}, {1, 1.0}}, 1.5);
  lp.AddRowGe({{0, 1.0}, {1, 1.0}}, 1.5);
  MilpProblem problem;
  problem.lp = lp;
  problem.binary_vars = {0, 1};
  const MilpSolution solution = MilpSolver().Solve(problem).value();
  EXPECT_FALSE(solution.feasible);
}

TEST(MilpTest, NodeLimitStopsEarly) {
  LpProblem lp;
  lp.num_vars = 6;
  lp.objective.assign(6, -1.0);
  lp.AddRowLe({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}, {5, 1.0}},
              3.5);
  MilpProblem problem;
  problem.lp = lp;
  problem.binary_vars = {0, 1, 2, 3, 4, 5};
  MilpSolverOptions options;
  options.max_nodes = 1;
  const MilpSolution solution = MilpSolver(options).Solve(problem).value();
  EXPECT_FALSE(solution.optimal);
  EXPECT_LE(solution.nodes, 1);
}

// -- QUBO linearization ---------------------------------------------------------

TEST(LinearizationTest, StructureMatchesPaperEq14) {
  QuboBuilder builder(3);
  builder.AddLinear(0, -1.0);
  builder.AddQuadratic(0, 1, 2.0);
  builder.AddQuadratic(1, 2, -1.5);
  const LinearizedQubo linearized = LinearizeQubo(builder.Build());
  EXPECT_EQ(linearized.num_x, 3);
  EXPECT_EQ(linearized.milp.lp.num_vars, 5);  // 3 x + 2 y
  EXPECT_EQ(linearized.milp.binary_vars.size(), 3u);
  // 3 McCormick rows per product.
  EXPECT_EQ(linearized.milp.lp.rows.size(), 6u);
}

TEST(LinearizationTest, MilpMatchesQuboMinimumExhaustively) {
  Rng rng(31);
  QuboBuilder builder(5);
  for (int i = 0; i < 5; ++i) {
    builder.AddLinear(i, rng.UniformDouble() * 4 - 2);
  }
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      if (rng.Bernoulli(0.7)) {
        builder.AddQuadratic(i, j, rng.UniformDouble() * 4 - 2);
      }
    }
  }
  const QuboModel model = builder.Build();
  // Exhaustive QUBO minimum.
  double qubo_min = 1e300;
  for (std::uint64_t a = 0; a < 32; ++a) {
    QuboSample sample(5);
    for (int i = 0; i < 5; ++i) {
      sample[i] = (a >> i) & 1;
    }
    qubo_min = std::min(qubo_min, model.Evaluate(sample));
  }
  const LinearizedQubo linearized = LinearizeQubo(model);
  const MilpSolution solution =
      MilpSolver().Solve(linearized.milp).value();
  ASSERT_TRUE(solution.optimal);
  EXPECT_NEAR(solution.objective + linearized.offset, qubo_min, 1e-6);
}

TEST(LinearizationTest, EndToEndMkpViaMilp) {
  // The paper's Fig. 10 "MILP" pipeline in miniature: MKP -> QUBO ->
  // McCormick MILP -> branch and bound -> maximum k-plex.
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const LinearizedQubo linearized = LinearizeQubo(qubo.model);
  MilpSolverOptions options;
  options.incumbent_heuristic =
      MakeQuboRoundingHeuristic(qubo.model, linearized);
  const MilpSolution solution =
      MilpSolver(options).Solve(linearized.milp).value();
  ASSERT_TRUE(solution.optimal);
  EXPECT_NEAR(solution.objective + linearized.offset,
              MkpQubo::CostOfPlexSize(4), 1e-6);
  const QuboSample sample = ExtractSample(linearized, solution.x);
  EXPECT_TRUE(qubo.IsFeasible(sample));
  EXPECT_EQ(qubo.DecodeVertices(sample).size(), 4u);
}

TEST(LinearizationTest, RoundingHeuristicProducesConsistentPoints) {
  QuboBuilder builder(4);
  builder.AddLinear(0, -2.0);
  builder.AddQuadratic(0, 1, 1.0);
  builder.AddQuadratic(2, 3, -1.0);
  const QuboModel model = builder.Build();
  const LinearizedQubo linearized = LinearizeQubo(model);
  const auto heuristic = MakeQuboRoundingHeuristic(model, linearized);
  std::vector<double> lp_x(linearized.milp.lp.num_vars, 0.6);
  std::vector<double> x;
  double objective = 0;
  ASSERT_TRUE(heuristic(lp_x, &x, &objective));
  // x binary, products consistent with the x block, objective matches a
  // fresh evaluation, and the built-in descent leaves a local minimum.
  QuboSample sample(linearized.num_x);
  for (int i = 0; i < linearized.num_x; ++i) {
    EXPECT_TRUE(x[i] == 0.0 || x[i] == 1.0);
    sample[i] = x[i] >= 0.5 ? 1 : 0;
  }
  for (const auto& [key, y] : linearized.product_vars) {
    EXPECT_EQ(x[y], (sample[key.first] && sample[key.second]) ? 1.0 : 0.0);
  }
  EXPECT_NEAR(objective, model.Evaluate(sample) - model.offset(), 1e-12);
  for (int i = 0; i < linearized.num_x; ++i) {
    EXPECT_GE(model.FlipDelta(sample, i), -1e-9) << "descent incomplete";
  }
}

TEST(MilpTest, TraceRecordsImprovements) {
  const Graph graph = RandomGnm(7, 12, 8).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const LinearizedQubo linearized = LinearizeQubo(qubo.model);
  MilpSolverOptions options;
  options.incumbent_heuristic =
      MakeQuboRoundingHeuristic(qubo.model, linearized);
  const MilpSolution solution =
      MilpSolver(options).Solve(linearized.milp).value();
  ASSERT_TRUE(solution.feasible);
  ASSERT_FALSE(solution.trace.empty());
  for (std::size_t i = 1; i < solution.trace.size(); ++i) {
    EXPECT_LT(solution.trace[i].objective, solution.trace[i - 1].objective);
  }
}

}  // namespace
}  // namespace qplex
