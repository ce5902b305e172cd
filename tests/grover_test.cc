#include <gtest/gtest.h>

#include <cmath>

#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "grover/engine.h"
#include "grover/qmkp.h"
#include "grover/qtkp.h"
#include "kplex_sweep.h"
#include "quantum/statevector.h"

namespace qplex {
namespace {

// -- engine ---------------------------------------------------------------------

TEST(GroverEngineTest, OptimalIterations) {
  EXPECT_EQ(OptimalGroverIterations(6, 1), 6);  // pi/4 * 8 = 6.28
  EXPECT_EQ(OptimalGroverIterations(3, 1), 2);
  EXPECT_EQ(OptimalGroverIterations(10, 4), 12);  // pi/4 * 16
  EXPECT_EQ(OptimalGroverIterations(4, 0), 0);
  EXPECT_EQ(OptimalGroverIterations(4, 16), 0);
}

TEST(GroverEngineTest, TheoreticalProbabilityEndpoints) {
  EXPECT_DOUBLE_EQ(TheoreticalSuccessProbability(5, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(TheoreticalSuccessProbability(5, 32, 0), 1.0);
  // Zero iterations: P = M / N.
  EXPECT_NEAR(TheoreticalSuccessProbability(5, 4, 0), 4.0 / 32, 1e-12);
}

TEST(GroverEngineTest, SimulationMatchesTheory) {
  for (int n : {4, 6, 8}) {
    for (std::int64_t m : {1, 2, 5}) {
      std::vector<std::uint64_t> marked;
      for (std::int64_t i = 0; i < m; ++i) {
        marked.push_back(static_cast<std::uint64_t>(i * 3 + 1));
      }
      GroverSimulation grover(n, marked);
      for (int step = 0; step <= OptimalGroverIterations(n, m); ++step) {
        EXPECT_NEAR(grover.SuccessProbability(),
                    TheoreticalSuccessProbability(n, m, step), 1e-9)
            << "n=" << n << " m=" << m << " step=" << step;
        grover.Step();
      }
    }
  }
}

TEST(GroverEngineTest, OptimalIterationNearCertainSuccess) {
  GroverSimulation grover(8, {77});
  grover.Run(OptimalGroverIterations(8, 1));
  EXPECT_GT(grover.SuccessProbability(), 0.99);
}

TEST(GroverEngineTest, ResetRestartsFromUniform) {
  GroverSimulation grover(5, {3});
  grover.Run(3);
  grover.Reset();
  EXPECT_EQ(grover.steps(), 0);
  EXPECT_NEAR(grover.SuccessProbability(), 1.0 / 32, 1e-12);
}

TEST(GroverEngineTest, MeasureConcentratesOnMarked) {
  GroverSimulation grover(7, {42});
  grover.Run(OptimalGroverIterations(7, 1));
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    hits += (grover.Measure(rng) == 42);
  }
  EXPECT_GT(hits, 190);
}

TEST(GroverEngineTest, DiffusionCostLinear) {
  EXPECT_EQ(DiffusionCost(6), 30);
  EXPECT_EQ(DiffusionCost(10), 50);
}

// -- qTKP -----------------------------------------------------------------------

TEST(QtkpTest, FindsPaperExamplePlex) {
  QtkpOptions options;
  options.seed = 1;
  const QtkpResult result =
      RunQtkp(PaperExampleGraph(), 2, 4, options).value();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.mask, 0b011011u);
  EXPECT_EQ(result.plex, (VertexList{0, 1, 3, 4}));
  EXPECT_EQ(result.num_solutions, 1);
  EXPECT_EQ(result.iterations, 6);  // paper Fig. 8's final iteration count
  EXPECT_LT(result.error_probability, 0.01);
  EXPECT_GT(result.gate_cost, 0);
  EXPECT_GT(result.oracle_calls, 0);
}

TEST(QtkpTest, InfeasibleThresholdReportsNotFound) {
  QtkpOptions options;
  options.seed = 2;
  const QtkpResult result =
      RunQtkp(PaperExampleGraph(), 2, 5, options).value();
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.num_solutions, 0);
}

TEST(QtkpTest, PredicateBackendAgreesWithCircuit) {
  const Graph graph = RandomGnm(7, 11, 6).value();
  QtkpOptions circuit_opts;
  circuit_opts.backend = OracleBackend::kCircuit;
  circuit_opts.seed = 3;
  QtkpOptions predicate_opts = circuit_opts;
  predicate_opts.backend = OracleBackend::kPredicate;
  for (int t = 1; t <= 5; ++t) {
    const QtkpResult a = RunQtkp(graph, 2, t, circuit_opts).value();
    const QtkpResult b = RunQtkp(graph, 2, t, predicate_opts).value();
    EXPECT_EQ(a.found, b.found) << "T=" << t;
    EXPECT_EQ(a.num_solutions, b.num_solutions) << "T=" << t;
    EXPECT_EQ(a.iterations, b.iterations) << "T=" << t;
  }
}

TEST(QtkpTest, SolutionCountMatchesEnumeration) {
  const Graph graph = RandomGnm(8, 14, 12).value();
  QtkpOptions options;
  options.backend = OracleBackend::kPredicate;
  for (int k = 1; k <= 3; ++k) {
    for (int t = 2; t <= 6; ++t) {
      const QtkpResult result = RunQtkp(graph, k, t, options).value();
      EXPECT_EQ(result.num_solutions,
                sweep::Count(graph, k, t))
          << "k=" << k << " T=" << t;
    }
  }
}

TEST(QtkpTest, MeasuredPlexAlwaysVerified) {
  // Over several seeds, every "found" answer must genuinely be a k-plex of
  // the requested size (the classical verification contract).
  const Graph graph = RandomGnm(9, 18, 5).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    QtkpOptions options;
    options.backend = OracleBackend::kPredicate;
    options.seed = seed;
    const QtkpResult result = RunQtkp(graph, 2, 4, options).value();
    if (result.found) {
      EXPECT_TRUE(IsKPlexMask(adjacency, result.mask, 2));
      EXPECT_GE(__builtin_popcountll(result.mask), 4);
    }
  }
}

TEST(QtkpTest, BbhtFindsSolutionWithoutKnownM) {
  QtkpOptions options;
  options.use_bbht = true;
  options.seed = 9;
  const QtkpResult result =
      RunQtkp(PaperExampleGraph(), 2, 4, options).value();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.mask, 0b011011u);
}

TEST(QtkpTest, BbhtReportsMeaningfulErrorAccounting) {
  // Regression: the BBHT branch used to leave attempt_budget at 0 and
  // error_probability at its default, so qMKP's residual-error product
  // multiplied by 1 - e^0 = 0 and every BBHT run claimed certain failure.
  QtkpOptions options;
  options.use_bbht = true;
  options.seed = 9;
  const QtkpResult result =
      RunQtkp(PaperExampleGraph(), 2, 4, options).value();
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.attempt_budget, options.max_attempts * 8);
  EXPECT_GE(result.error_probability, 0.0);
  EXPECT_LT(result.error_probability, 1.0);
}

TEST(QtkpTest, LargeMaxAttemptsClampIsWellDefined) {
  // Regression: the retry-budget clamp used a fixed hi of 64, which is UB
  // (std::clamp requires lo <= hi) as soon as max_attempts > 64. The budget
  // must come out exactly at the caller's floor, not at garbage.
  QtkpOptions options;
  options.seed = 1;
  options.max_attempts = 100;
  const QtkpResult result =
      RunQtkp(PaperExampleGraph(), 2, 4, options).value();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.attempt_budget, 100);
}

TEST(QtkpTest, ThreadCountDoesNotChangeResults) {
  QtkpOptions serial_opts;
  serial_opts.seed = 1;
  QtkpOptions threaded_opts = serial_opts;
  threaded_opts.threads = 4;
  const QtkpResult serial =
      RunQtkp(PaperExampleGraph(), 2, 4, serial_opts).value();
  const QtkpResult threaded =
      RunQtkp(PaperExampleGraph(), 2, 4, threaded_opts).value();
  EXPECT_EQ(serial.mask, threaded.mask);
  EXPECT_EQ(serial.iterations, threaded.iterations);
  EXPECT_EQ(serial.attempts, threaded.attempts);
  EXPECT_EQ(serial.error_probability, threaded.error_probability);
}

TEST(QtkpTest, RejectsOversizedGraphs) {
  QtkpOptions options;
  EXPECT_FALSE(RunQtkp(Graph(40), 2, 3, options).ok());
  EXPECT_FALSE(RunQtkp(Graph(0), 2, 0, options).ok());
  options.max_attempts = 0;
  EXPECT_FALSE(RunQtkp(PaperExampleGraph(), 2, 3, options).ok());
  options.max_attempts = 1;
  options.threads = 0;
  EXPECT_FALSE(RunQtkp(PaperExampleGraph(), 2, 3, options).ok());
}

// -- qMKP -----------------------------------------------------------------------

TEST(QmkpTest, PaperExampleMaximum) {
  QtkpOptions options;
  options.seed = 11;
  const QmkpResult result = RunQmkp(PaperExampleGraph(), 2, options).value();
  EXPECT_EQ(result.best_size, 4);
  EXPECT_EQ(result.best_mask, 0b011011u);
  EXPECT_FALSE(result.probes.empty());
  EXPECT_GT(result.total_oracle_calls, 0);
  EXPECT_LT(result.error_probability, 0.05);
}

class QmkpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(QmkpRandomTest, MatchesEnumerationAcrossSeeds) {
  const int k = GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph graph = RandomGnm(8, 13, seed).value();
    const MkpSolution expected = SolveMkpByEnumeration(graph, k).value();
    QtkpOptions options;
    options.backend = OracleBackend::kPredicate;
    options.seed = seed * 17 + 1;
    options.max_attempts = 6;  // push the failure probability to ~0
    const QmkpResult result = RunQmkp(graph, k, options).value();
    EXPECT_EQ(result.best_size, expected.size)
        << "k=" << k << " seed=" << seed;
    EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), result.best_mask, k));
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, QmkpRandomTest, ::testing::Values(1, 2, 3, 4));

TEST(QmkpTest, FirstResultAtLeastHalfOptimal) {
  // The paper's progression claim: the first feasible probe (T = ~n/2) yields
  // a plex at least half the optimum size.
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    const Graph graph = RandomGnm(10, 25, seed).value();
    QtkpOptions options;
    options.backend = OracleBackend::kPredicate;
    options.seed = seed;
    options.max_attempts = 6;
    const QmkpResult result = RunQmkp(graph, 2, options).value();
    EXPECT_GE(2 * result.first_result_size, result.best_size) << seed;
    EXPECT_LE(result.first_result_gate_cost, result.total_gate_cost);
  }
}

TEST(QmkpTest, ProgressCallbackSeesEveryProbe) {
  int calls = 0;
  int feasible_seen = 0;
  QtkpOptions options;
  options.backend = OracleBackend::kPredicate;
  options.seed = 3;
  const QmkpResult result =
      RunQmkp(PaperExampleGraph(), 2, options,
              [&](const QmkpProbe& probe, const QmkpResult&) {
                ++calls;
                feasible_seen += probe.feasible;
              })
          .value();
  EXPECT_EQ(calls, static_cast<int>(result.probes.size()));
  EXPECT_GT(feasible_seen, 0);
}

TEST(QmkpTest, ProbeCountLogarithmic) {
  QtkpOptions options;
  options.backend = OracleBackend::kPredicate;
  options.seed = 8;
  const QmkpResult result = RunQmkp(RandomGnm(12, 30, 2).value(), 2,
                                    options)
                                .value();
  // Binary search over [1, 12]: at most ceil(log2(12)) + 1 = 5 probes, plus
  // the size-skip shortcut can only shorten it.
  EXPECT_LE(result.probes.size(), 5u);
}

TEST(QmkpTest, MaxCliqueAdaptation) {
  QtkpOptions options;
  options.backend = OracleBackend::kPredicate;
  options.seed = 13;
  options.max_attempts = 6;
  const QmkpResult result = RunQMaxClique(CompleteGraph(5), options).value();
  EXPECT_EQ(result.best_size, 5);

  const Graph petersen = PetersenGraph();
  const QmkpResult petersen_clique =
      RunQMaxClique(petersen, options).value();
  EXPECT_EQ(petersen_clique.best_size, 2);  // triangle-free
}

TEST(QmkpTest, EmptyGraph) {
  QtkpOptions options;
  const QmkpResult result = RunQmkp(Graph(0), 2, options).value();
  EXPECT_EQ(result.best_size, 0);
  EXPECT_TRUE(result.probes.empty());
}

TEST(QmkpTest, BbhtOverallErrorBelowOne) {
  // Regression companion to BbhtReportsMeaningfulErrorAccounting: with the
  // zero attempt_budget bug, every successful BBHT probe contributed
  // 1 - e^0 = 0 to the success product and qMKP reported
  // error_probability == 1 regardless of how reliably it succeeded.
  QtkpOptions options;
  options.use_bbht = true;
  options.seed = 3;
  const QmkpResult result =
      RunQmkp(PaperExampleGraph(), 2, options).value();
  EXPECT_EQ(result.best_size, 4);
  EXPECT_LT(result.error_probability, 1.0);
  EXPECT_GE(result.error_probability, 0.0);
}

TEST(QtkpTest, SimulationBudgetBreachIsResourceExhausted) {
  // A 6-vertex instance needs a 2^6-amplitude register (1024 bytes); a
  // 64-byte budget must surface kResourceExhausted as a value, not a throw,
  // so the service layer can walk the qtkp -> bs fallback chain.
  SetMaxSimulationBytes(64);
  struct Restore {
    ~Restore() { SetMaxSimulationBytes(0); }
  } restore;

  const Graph graph = CompleteGraph(6);
  const Result<QtkpResult> result = RunQtkp(graph, 2, 3, QtkpOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("simulation budget"),
            std::string::npos);
}

}  // namespace
}  // namespace qplex
