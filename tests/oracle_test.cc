#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "oracle/mkp_oracle.h"
#include "quantum/basis_sim.h"

namespace qplex {
namespace {

TEST(MkpPredicateTest, MatchesKPlexCheck) {
  const Graph graph = PaperExampleGraph();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    for (int t = 0; t <= 6; ++t) {
      const bool expected = IsKPlexMask(adjacency, mask, 2) &&
                            __builtin_popcountll(mask) >= t;
      EXPECT_EQ(MkpPredicate(graph, 2, t, mask), expected)
          << "mask " << mask << " T " << t;
    }
  }
}

TEST(MkpOracleTest, BuildValidation) {
  const Graph graph = PaperExampleGraph();
  EXPECT_FALSE(MkpOracle::Build(graph, 0, 3).ok());
  EXPECT_FALSE(MkpOracle::Build(graph, 2, -1).ok());
  EXPECT_FALSE(MkpOracle::Build(graph, 2, 7).ok());
  EXPECT_TRUE(MkpOracle::Build(graph, 2, 6).ok());
  EXPECT_FALSE(MkpOracle::Build(Graph(0), 1, 0).ok());
}

TEST(MkpOracleTest, PaperExampleMatchesPredicateExhaustively) {
  const Graph graph = PaperExampleGraph();
  for (int k = 1; k <= 3; ++k) {
    for (int threshold : {1, 3, 4}) {
      const MkpOracle oracle = MkpOracle::Build(graph, k, threshold).value();
      for (std::uint64_t mask = 0; mask < 64; ++mask) {
        EXPECT_EQ(oracle.Evaluate(mask),
                  MkpPredicate(graph, k, threshold, mask))
            << "k=" << k << " T=" << threshold << " mask=" << mask;
      }
    }
  }
}

TEST(MkpOracleTest, UncomputeRestoresAncillas) {
  const Graph graph = PaperExampleGraph();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 4).value();
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    const Result<bool> bit = oracle.EvaluateChecked(mask);
    ASSERT_TRUE(bit.ok()) << bit.status();
    EXPECT_EQ(bit.value(), MkpPredicate(graph, 2, 4, mask));
  }
}

TEST(MkpOracleTest, MarkedStatesOfPaperExample) {
  const Graph graph = PaperExampleGraph();
  // The paper's Fig. 8 experiment: exactly one subset of size >= 4 is a
  // 2-plex, namely {v1, v2, v4, v5} = mask 0b011011.
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 4).value();
  const auto marked = oracle.MarkedStates();
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0], 0b011011u);
}

/// Sweep over random graphs, k, and T: the literal circuit must agree with
/// the semantic predicate on every one of the 2^n subsets.
class OracleRandomGraphTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OracleRandomGraphTest, CircuitAgreesWithPredicate) {
  const auto [n, k, seed] = GetParam();
  const int max_edges = n * (n - 1) / 2;
  const Graph graph = RandomGnm(n, max_edges / 2, seed).value();
  for (int threshold : {1, n / 2, n}) {
    const MkpOracle oracle = MkpOracle::Build(graph, k, threshold).value();
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      ASSERT_EQ(oracle.Evaluate(mask), MkpPredicate(graph, k, threshold, mask))
          << "n=" << n << " k=" << k << " seed=" << seed << " T=" << threshold
          << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleRandomGraphTest,
    ::testing::Combine(::testing::Values(4, 5, 6, 7),  // n
                       ::testing::Values(1, 2, 3),     // k
                       ::testing::Values(11, 22)));    // seed

TEST(MkpOracleTest, ExtremeGraphs) {
  // Complete graph: every subset is a 1-plex (complement has no edges).
  const Graph complete = CompleteGraph(5);
  const MkpOracle oracle_complete = MkpOracle::Build(complete, 1, 5).value();
  EXPECT_TRUE(oracle_complete.Evaluate(0b11111));
  EXPECT_FALSE(oracle_complete.Evaluate(0b01111));  // size 4 < T

  // Empty graph: a k-plex can have at most k vertices.
  Graph empty(5);
  const MkpOracle oracle_empty = MkpOracle::Build(empty, 2, 3).value();
  for (std::uint64_t mask = 0; mask < 32; ++mask) {
    EXPECT_EQ(oracle_empty.Evaluate(mask),
              __builtin_popcountll(mask) >= 3 && __builtin_popcountll(mask) <= 2)
        << mask;
  }
  EXPECT_TRUE(MkpOracle::Build(empty, 3, 3).value().Evaluate(0b111));
}

TEST(MkpOracleTest, ThresholdZeroMarksAllKPlexes) {
  const Graph graph = PaperExampleGraph();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 0).value();
  // Empty subset is a 2-plex of size 0 >= 0.
  EXPECT_TRUE(oracle.Evaluate(0));
}

TEST(MkpOracleTest, DegreeCountModesAgree) {
  const Graph graph = RandomGnm(7, 10, 9).value();
  MkpOracleOptions ripple;
  ripple.degree_count_mode = DegreeCountMode::kRippleAdder;
  MkpOracleOptions increment;
  increment.degree_count_mode = DegreeCountMode::kIncrement;
  const MkpOracle a = MkpOracle::Build(graph, 2, 4, ripple).value();
  const MkpOracle b = MkpOracle::Build(graph, 2, 4, increment).value();
  for (std::uint64_t mask = 0; mask < 128; ++mask) {
    EXPECT_EQ(a.Evaluate(mask), b.Evaluate(mask)) << "mask " << mask;
  }
  // The ablation point: the paper's adder chains are much more expensive.
  EXPECT_GT(a.CostReport().degree_count, 2 * b.CostReport().degree_count);
}

TEST(MkpOracleTest, IncrementModeUncomputeAlsoClean) {
  const Graph graph = RandomGnm(6, 8, 14).value();
  MkpOracleOptions options;
  options.degree_count_mode = DegreeCountMode::kIncrement;
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 3, options).value();
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    ASSERT_TRUE(oracle.EvaluateChecked(mask).ok());
  }
}

TEST(MkpOracleTest, CostReportStagesPositive) {
  const Graph graph = PaperExampleGraph();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 4).value();
  const OracleCostReport report = oracle.CostReport();
  EXPECT_GT(report.encoding, 0);
  EXPECT_GT(report.degree_count, 0);
  EXPECT_GT(report.degree_compare, 0);
  EXPECT_GT(report.size_check, 0);
  EXPECT_GT(report.oracle_flip, 0);
  // U_check^dagger mirrors everything except the oracle flip.
  EXPECT_EQ(report.uncompute, report.ComputeTotal());
}

TEST(MkpOracleTest, DegreeCountDominatesOnDenserGraphs) {
  // The paper's Table V: degree counting is the dominant oracle stage and its
  // share grows with n.
  const Graph small = RandomGnm(7, 8, 1).value();
  const Graph large = RandomGnm(10, 23, 1).value();
  const auto report_small = MkpOracle::Build(small, 2, 3).value().CostReport();
  const auto report_large = MkpOracle::Build(large, 2, 3).value().CostReport();
  const double share_small =
      static_cast<double>(report_small.degree_count) /
      static_cast<double>(report_small.ComputeTotal());
  const double share_large =
      static_cast<double>(report_large.degree_count) /
      static_cast<double>(report_large.ComputeTotal());
  EXPECT_GT(share_small, 0.5);
  EXPECT_GT(share_large, share_small);
}

TEST(MkpOracleTest, QubitCountGrowsQuadratically) {
  // Space is O(n^2 log n): complement edges dominate. Sanity-check monotone
  // growth and the presence of the n^2-ish term.
  const MkpOracle small =
      MkpOracle::Build(RandomGnm(6, 7, 2).value(), 2, 3).value();
  const MkpOracle large =
      MkpOracle::Build(RandomGnm(12, 14, 2).value(), 2, 3).value();
  EXPECT_GT(large.num_qubits(), small.num_qubits());
  EXPECT_GT(large.num_qubits(), 12 + (12 * 11 / 2 - 14));
}

// -- Bit-sliced evaluator vs the scalar reference ------------------------------

/// The reference the bit-sliced evaluator must reproduce: every mask run
/// through the full literal circuit on the scalar BasisStateSimulator.
std::vector<std::uint64_t> ScalarMarkedStates(const Circuit& circuit, int n,
                                              int oracle_wire) {
  std::vector<std::uint64_t> marked;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    BitString input(n);
    input.StoreInt(0, n, mask);
    const Result<BitString> out = BasisStateSimulator::Execute(circuit, input);
    QPLEX_CHECK(out.ok()) << out.status().ToString();
    if (out.value().Get(oracle_wire)) {
      marked.push_back(mask);
    }
  }
  return marked;
}

/// n = 1..12 (n < 6 leaves part of the single word unused), k = 1..4, every
/// T in 0..n, both degree-count constructions.
class BitSlicedMkpOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BitSlicedMkpOracleTest, MarkedStatesMatchScalarReference) {
  const int n = GetParam();
  const Graph graph = RandomGnp(n, 0.5, 100 + n).value();
  for (const DegreeCountMode mode :
       {DegreeCountMode::kRippleAdder, DegreeCountMode::kIncrement}) {
    MkpOracleOptions options;
    options.degree_count_mode = mode;
    for (int k = 1; k <= 4; ++k) {
      for (int threshold = 0; threshold <= n; ++threshold) {
        const MkpOracle oracle =
            MkpOracle::Build(graph, k, threshold, options).value();
        const std::vector<std::uint64_t> expected = ScalarMarkedStates(
            oracle.circuit(), n, oracle.oracle_wire());
        ASSERT_EQ(oracle.MarkedStates(), expected)
            << "n=" << n << " k=" << k << " T=" << threshold << " mode="
            << static_cast<int>(mode);
        for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n);
             mask += 7) {
          ASSERT_EQ(oracle.Evaluate(mask),
                    std::binary_search(expected.begin(), expected.end(), mask))
              << "n=" << n << " k=" << k << " T=" << threshold
              << " mask=" << mask;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(N, BitSlicedMkpOracleTest, ::testing::Range(1, 13));

TEST(BitSlicedOracleTest, EarlyStopKeepsTheLastOracleGate) {
  // The oracle wire is written twice, with an ancilla-only tail (and a
  // phase-only Z) in between: stopping at the first write would be wrong.
  Circuit circuit;
  const QubitRange v = circuit.AllocateRegister("v", 2);
  const int a = circuit.AllocateQubit("a");
  const int o = circuit.AllocateQubit("O");
  circuit.Append(MakeCCX(v[0], v[1], a));                 // a = v0 v1
  circuit.Append(MakeCX(a, o));                           // O = v0 v1
  circuit.Append(MakeCX(v[0], a));                        // a = v0 !v1
  circuit.Append(MakeZ(a));
  circuit.Append(MakeMCX({{v[1], true}, {a, false}}, o));  // O ^= v1 !a
  circuit.Append(MakeCX(v[0], a));                        // tail: a = v0 v1
  // O = v0 v1 ^ v1 = !v0 v1: only mask 0b10 is marked.
  const std::vector<std::uint64_t> marked =
      OracleCircuitMarkedStates(circuit, 2, o);
  EXPECT_EQ(marked, std::vector<std::uint64_t>{0b10});
  EXPECT_EQ(marked, ScalarMarkedStates(circuit, 2, o));
  for (std::uint64_t mask = 0; mask < 4; ++mask) {
    EXPECT_EQ(EvaluateOracleCircuit(circuit, 2, o, mask), mask == 0b10)
        << mask;
  }
}

TEST(BitSlicedOracleDeathTest, HadamardGateIsRejected) {
  // An H gate leaves the computational basis; no oracle the library builds
  // has one, so meeting it is a programmer error.
  Circuit circuit;
  const QubitRange v = circuit.AllocateRegister("v", 2);
  const int o = circuit.AllocateQubit("O");
  circuit.Append(MakeCCX(v[0], v[1], o));
  circuit.Append(MakeH(v[0]));
  EXPECT_DEATH(OracleCircuitMarkedStates(circuit, 2, o), "H gate");
  EXPECT_DEATH(EvaluateOracleCircuit(circuit, 2, o, 0b11), "H gate");
}

}  // namespace
}  // namespace qplex
