#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "quantum/basis_sim.h"
#include "relax/club.h"
#include "relax/club_oracle.h"

namespace qplex {
namespace {

// -- predicates -----------------------------------------------------------------

TEST(ClubPredicateTest, InducedDistances) {
  const Graph path = PathGraph(5);
  VertexBitset all = VertexBitset::FromList(5, {0, 1, 2, 3, 4});
  EXPECT_EQ(InducedDistance(path, all, 0, 4), 4);
  // Removing the middle vertex disconnects the ends.
  VertexBitset split = VertexBitset::FromList(5, {0, 1, 3, 4});
  EXPECT_EQ(InducedDistance(path, split, 0, 4), kUnreachable);
}

TEST(ClubPredicateTest, Diameters) {
  EXPECT_EQ(InducedDiameter(CompleteGraph(5),
                            VertexBitset::FromList(5, {0, 1, 2, 3, 4})),
            1);
  EXPECT_EQ(InducedDiameter(StarGraph(6),
                            VertexBitset::FromList(6, {0, 1, 2, 3, 4, 5})),
            2);
  EXPECT_EQ(InducedDiameter(PathGraph(4), VertexBitset(4)), 0);
  EXPECT_EQ(InducedDiameter(PathGraph(4), VertexBitset::FromList(4, {2})), 0);
}

TEST(ClubPredicateTest, StarIsTwoClub) {
  const Graph star = StarGraph(8);
  VertexBitset all(8);
  for (Vertex v = 0; v < 8; ++v) {
    all.Set(v);
  }
  EXPECT_TRUE(IsSClub(star, all, 2));
  EXPECT_FALSE(IsSClub(star, all, 1));
  // Leaves alone (no hub) are pairwise unreachable in the induced graph even
  // though their global distance is 2: a 2-clique but not a 2-club.
  VertexBitset leaves = VertexBitset::FromList(8, {1, 2, 3});
  EXPECT_TRUE(IsSClique(star, leaves, 2));
  EXPECT_FALSE(IsSClub(star, leaves, 2));
  EXPECT_FALSE(IsSClan(star, leaves, 2));
}

TEST(ClubPredicateTest, CycleCases) {
  const Graph c5 = CycleGraph(5).value();
  VertexBitset all5(5);
  for (Vertex v = 0; v < 5; ++v) {
    all5.Set(v);
  }
  EXPECT_TRUE(IsSClub(c5, all5, 2));  // C5 has diameter 2

  const Graph c6 = CycleGraph(6).value();
  VertexBitset all6(6);
  for (Vertex v = 0; v < 6; ++v) {
    all6.Set(v);
  }
  EXPECT_FALSE(IsSClub(c6, all6, 2));  // C6 has diameter 3
  EXPECT_TRUE(IsSClub(c6, all6, 3));
}

TEST(ClubPredicateTest, ClanRequiresBoth) {
  // In the paper graph, any subset that is a 2-club is also a 2-clan iff it
  // is a 2-clique; sweep all subsets and check the implication lattice.
  const Graph graph = PaperExampleGraph();
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    const bool club = IsSClubMask(graph, mask, 2);
    const bool clique = IsSCliqueMask(graph, mask, 2);
    const bool clan = IsSClanMask(graph, mask, 2);
    EXPECT_EQ(clan, club && clique) << mask;
    if (club) {
      EXPECT_TRUE(clique) << "every s-club is an s-clique; mask " << mask;
    }
  }
}

TEST(ClubEnumerationTest, KnownMaxima) {
  // Star: the whole graph is the maximum 2-club.
  EXPECT_EQ(SolveMaxSClubByEnumeration(StarGraph(8), 2).value().size, 8);
  // Petersen: diameter 2, so the whole graph is a 2-club.
  EXPECT_EQ(SolveMaxSClubByEnumeration(PetersenGraph(), 2).value().size, 10);
  // 1-club == clique.
  EXPECT_EQ(SolveMaxSClubByEnumeration(PaperExampleGraph(), 1).value().size,
            3);
  EXPECT_FALSE(SolveMaxSClubByEnumeration(Graph(31), 2).ok());
}

// -- 2-club oracle circuit --------------------------------------------------------

class Club2OracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Club2OracleTest, CircuitAgreesWithPredicate) {
  const std::uint64_t seed = GetParam();
  const Graph graph = RandomGnm(7, 10, seed).value();
  for (int threshold : {1, 3, 5}) {
    const Club2Oracle oracle = Club2Oracle::Build(graph, threshold).value();
    for (std::uint64_t mask = 0; mask < 128; ++mask) {
      const bool expected = IsSClubMask(graph, mask, 2) &&
                            __builtin_popcountll(mask) >= threshold;
      ASSERT_EQ(oracle.Evaluate(mask), expected)
          << "seed=" << seed << " T=" << threshold << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Club2OracleTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(Club2OracleTest, UncomputeRestoresAncillas) {
  const Graph graph = PaperExampleGraph();
  const Club2Oracle oracle = Club2Oracle::Build(graph, 3).value();
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    ASSERT_TRUE(oracle.EvaluateChecked(mask).ok()) << mask;
  }
}

/// n = 1..12 (n < 6 leaves part of the single word unused), every T in
/// 0..n: the bit-sliced marked set equals the scalar BasisStateSimulator
/// reference, which runs the full circuit one mask at a time.
class BitSlicedClubOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BitSlicedClubOracleTest, MarkedStatesMatchScalarReference) {
  const int n = GetParam();
  const Graph graph = RandomGnp(n, 0.5, 200 + n).value();
  for (int threshold = 0; threshold <= n; ++threshold) {
    const Club2Oracle oracle = Club2Oracle::Build(graph, threshold).value();
    std::vector<std::uint64_t> expected;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      BitString input(n);
      input.StoreInt(0, n, mask);
      const Result<BitString> out =
          BasisStateSimulator::Execute(oracle.circuit(), input);
      ASSERT_TRUE(out.ok()) << out.status();
      if (out.value().Get(oracle.oracle_wire())) {
        expected.push_back(mask);
      }
    }
    ASSERT_EQ(oracle.MarkedStates(), expected)
        << "n=" << n << " T=" << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(N, BitSlicedClubOracleTest, ::testing::Range(1, 13));

TEST(Club2OracleTest, BuildValidation) {
  EXPECT_FALSE(Club2Oracle::Build(Graph(0), 0).ok());
  EXPECT_FALSE(Club2Oracle::Build(PaperExampleGraph(), 7).ok());
  EXPECT_TRUE(Club2Oracle::Build(PaperExampleGraph(), 6).ok());
}

/// The circuit size and per-stage cost of the 2-club oracle on the paper's
/// example graph at every threshold, pinned so that a change to how the
/// oracle is assembled cannot silently change the circuit.
TEST(Club2OracleTest, PinnedCircuitShapePerThreshold) {
  struct Pin {
    int threshold;
    int num_qubits;
    int num_gates;
    std::vector<std::int64_t> stage_costs;
  };
  const std::vector<Pin> pins = {
      {0, 41, 111, {0, 56, 99, 3, 155}},  {1, 41, 113, {0, 56, 100, 3, 156}},
      {2, 41, 113, {0, 56, 100, 3, 156}}, {3, 41, 115, {0, 56, 101, 3, 157}},
      {4, 41, 113, {0, 56, 100, 3, 156}}, {5, 41, 115, {0, 56, 101, 3, 157}},
      {6, 41, 115, {0, 56, 101, 3, 157}},
  };
  const std::vector<std::string> stages = {"default", "pair_check",
                                           "size_check", "oracle_flip",
                                           "uncompute"};
  for (const Pin& pin : pins) {
    const Club2Oracle oracle =
        Club2Oracle::Build(PaperExampleGraph(), pin.threshold).value();
    EXPECT_EQ(oracle.num_qubits(), pin.num_qubits) << "T=" << pin.threshold;
    EXPECT_EQ(oracle.circuit().num_gates(), pin.num_gates)
        << "T=" << pin.threshold;
    EXPECT_EQ(oracle.circuit().stage_names(), stages) << "T=" << pin.threshold;
    EXPECT_EQ(oracle.circuit().CostsByStage(), pin.stage_costs)
        << "T=" << pin.threshold;
  }
}

TEST(QMax2ClubTest, MatchesEnumeration) {
  for (std::uint64_t seed : {2ull, 5ull, 9ull}) {
    const Graph graph = RandomGnm(9, 14, seed).value();
    const ClubSolution expected =
        SolveMaxSClubByEnumeration(graph, 2).value();
    const Max2ClubResult result = RunQMax2Club(graph, seed + 1).value();
    EXPECT_EQ(result.size, expected.size) << "seed " << seed;
    EXPECT_TRUE(IsSClubMask(graph, result.mask, 2));
  }
}

TEST(QMax2ClubTest, StarGraph) {
  const Max2ClubResult result = RunQMax2Club(StarGraph(7), 3).value();
  EXPECT_EQ(result.size, 7);
}

/// Seeded answers and search counters of the Grover 2-club search, pinned on
/// the graphs and seeds above: the measurement sequence, not just the optimum
/// size, must survive refactors of the attempt loop.
TEST(QMax2ClubTest, PinnedAnswersAndCounters) {
  struct Pin {
    Graph graph;
    std::uint64_t seed;
    int size;
    std::uint64_t mask;
    std::int64_t oracle_calls;
    int probes;
  };
  const std::vector<Pin> pins = {
      {RandomGnm(9, 14, 2).value(), 3, 6, 476, 16, 3},
      {RandomGnm(9, 14, 5).value(), 6, 8, 495, 8, 3},
      {RandomGnm(9, 14, 9).value(), 10, 6, 159, 17, 3},
      {StarGraph(7), 3, 7, 127, 12, 3},
  };
  for (const Pin& pin : pins) {
    const Max2ClubResult result = RunQMax2Club(pin.graph, pin.seed).value();
    EXPECT_EQ(result.size, pin.size) << "seed " << pin.seed;
    EXPECT_EQ(result.mask, pin.mask) << "seed " << pin.seed;
    EXPECT_EQ(result.oracle_calls, pin.oracle_calls) << "seed " << pin.seed;
    EXPECT_EQ(result.probes, pin.probes) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace qplex
