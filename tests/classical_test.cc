#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "classical/grasp.h"
#include "classical/reduce.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "kplex_sweep.h"

namespace qplex {
namespace {

TEST(EnumerationTest, PaperExample) {
  const MkpSolution best =
      SolveMkpByEnumeration(PaperExampleGraph(), 2).value();
  EXPECT_EQ(best.size, 4);
  EXPECT_EQ(best.mask, 0b011011u);  // {v1, v2, v4, v5}
  EXPECT_EQ(best.members, (VertexList{0, 1, 3, 4}));
}

TEST(EnumerationTest, CliqueCases) {
  EXPECT_EQ(SolveMkpByEnumeration(CompleteGraph(6), 1).value().size, 6);
  EXPECT_EQ(SolveMkpByEnumeration(CompleteGraph(6), 3).value().size, 6);
  // Empty graph: any k vertices form a k-plex (degree 0 >= k - k).
  EXPECT_EQ(SolveMkpByEnumeration(Graph(6), 2).value().size, 2);
  EXPECT_EQ(SolveMkpByEnumeration(Graph(6), 5).value().size, 5);
}

TEST(EnumerationTest, PetersenPlexes) {
  // Petersen is triangle-free and 3-regular: max clique 2.
  EXPECT_EQ(SolveMkpByEnumeration(PetersenGraph(), 1).value().size, 2);
  const MkpSolution two_plex = SolveMkpByEnumeration(PetersenGraph(), 2).value();
  EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(PetersenGraph()), two_plex.mask, 2));
}

TEST(EnumerationTest, RejectsBadInput) {
  EXPECT_FALSE(SolveMkpByEnumeration(PaperExampleGraph(), 0).ok());
  EXPECT_FALSE(SolveMkpByEnumeration(Graph(31), 1).ok());
}

/// The k-plexes of at least `threshold` members, as a visitor of the walk.
std::vector<std::uint64_t> MarkedByWalk(const Graph& graph, int k,
                                        int threshold,
                                        const CancelToken* cancel = nullptr,
                                        bool* completed = nullptr) {
  KPlexWalk walk(AdjacencyMasks(graph), k, cancel);
  std::vector<std::uint64_t> marked;
  walk.Run(threshold, [&marked, threshold](std::uint64_t mask, int) {
    marked.push_back(mask);
    return threshold;
  });
  if (completed != nullptr) {
    *completed = walk.completed();
  }
  return marked;
}

TEST(EnumerationTest, CountKPlexes) {
  // Paper example, k=2, T=4: exactly one solution (drives Fig. 8's 6
  // Grover iterations).
  EXPECT_EQ(MarkedByWalk(PaperExampleGraph(), 2, 4).size(), 1u);
  // Threshold 0 counts every 2-plex including the empty set.
  EXPECT_EQ(MarkedByWalk(PaperExampleGraph(), 2, 0).front(), 0u);
  EXPECT_GT(MarkedByWalk(PaperExampleGraph(), 2, 0).size(), 1u);
}

/// The walk against the plain sweep on one graph, for every k = 1..4: the
/// same maximum (size and mask), the same incumbent sequence, and at every
/// threshold the identical marked set (so also the same count).
void ExpectWalkMatchesSweep(const Graph& graph, const std::string& name) {
  const int n = graph.num_vertices();
  for (int k = 1; k <= 4; ++k) {
    const std::string at = name + " k=" + std::to_string(k);
    std::vector<sweep::Incumbent> expected_incumbents;
    const MkpSolution expected = sweep::Maximum(graph, k, &expected_incumbents);
    std::vector<sweep::Incumbent> incumbents;
    EnumerationControl control;
    control.on_incumbent = [&incumbents](const MkpSolution& best,
                                         std::uint64_t) {
      incumbents.emplace_back(best.size, best.mask);
    };
    const MkpSolution actual = SolveMkpByEnumeration(graph, k, control).value();
    EXPECT_EQ(actual.size, expected.size) << at;
    EXPECT_EQ(actual.mask, expected.mask) << at;
    EXPECT_EQ(actual.members, expected.members) << at;
    EXPECT_EQ(incumbents, expected_incumbents) << at;

    // One sweep at T = 0 holds every k-plex; each threshold filters it.
    const std::vector<std::uint64_t> all = sweep::Marked(graph, k, 0);
    for (int t = 0; t <= n + 1; ++t) {
      std::vector<std::uint64_t> marked;
      std::copy_if(all.begin(), all.end(), std::back_inserter(marked),
                   [t](std::uint64_t mask) { return std::popcount(mask) >= t; });
      EXPECT_EQ(MarkedByWalk(graph, k, t), marked) << at << " T=" << t;
    }
  }
}

/// (n, edge probability, seed).
class KPlexWalkSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {};

TEST_P(KPlexWalkSweepTest, MatchesTheSweep) {
  const auto [n, p, seed] = GetParam();
  ExpectWalkMatchesSweep(RandomGnp(n, p, seed).value(),
                         "G(" + std::to_string(n) + ", " + std::to_string(p) +
                             ") seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Gnp, KPlexWalkSweepTest,
    ::testing::Values(std::make_tuple(12, 0.2, 1u), std::make_tuple(12, 0.9, 2u),
                      std::make_tuple(16, 0.3, 3u), std::make_tuple(16, 0.8, 4u),
                      std::make_tuple(20, 0.2, 5u),
                      std::make_tuple(20, 0.5, 6u),
                      std::make_tuple(20, 0.9, 7u)));

TEST(KPlexWalkTest, MatchesTheSweepOnEmptyAndCompleteGraphs) {
  ExpectWalkMatchesSweep(Graph(0), "K0");
  ExpectWalkMatchesSweep(Graph(14), "empty(14)");
  ExpectWalkMatchesSweep(CompleteGraph(14), "K14");
}

TEST(KPlexWalkTest, PrunesTheSweep) {
  // The maximum on a sparse G(22, 88) tests a sliver of the 2^22 masks,
  // and on a complete graph (every subset a k-plex) the target skips all
  // but O(n^2) children.
  const Graph sparse = RandomGnm(22, 88, 1).value();
  KPlexWalk walk(AdjacencyMasks(sparse), 2, nullptr);
  int best = 0;
  walk.Run(1, [&best](std::uint64_t, int size) {
    best = size;
    return size + 1;
  });
  EXPECT_EQ(best, SolveMkpByEnumeration(sparse, 2).value().size);
  EXPECT_LT(walk.tested(), std::uint64_t{1} << 16);

  KPlexWalk dense(AdjacencyMasks(CompleteGraph(24)), 1, nullptr);
  dense.Run(1, [](std::uint64_t, int size) { return size + 1; });
  EXPECT_LE(dense.tested(), 24u * 24u);
}

// -- reduction ----------------------------------------------------------------

TEST(ReduceTest, PreservesLargePlexes) {
  for (std::uint64_t seed : {3ull, 7ull, 19ull}) {
    const Graph graph = RandomGnm(14, 40, seed).value();
    for (int k = 1; k <= 3; ++k) {
      const MkpSolution best = SolveMkpByEnumeration(graph, k).value();
      const ReductionResult reduction =
          ReduceForTarget(graph, k, best.size);
      ASSERT_LE(reduction.reduced.num_vertices(), 14);
      const MkpSolution reduced_best =
          SolveMkpByEnumeration(reduction.reduced, k).value();
      EXPECT_EQ(reduced_best.size, best.size)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(ReduceTest, RemovesLowDegreeVertices) {
  // Star graph: leaves have degree 1; for target 4, k 1 they all vanish.
  const ReductionResult reduction = ReduceForTarget(StarGraph(8), 1, 4);
  EXPECT_EQ(reduction.reduced.num_vertices(), 0);
  EXPECT_EQ(reduction.vertices_removed, 8);
}

TEST(ReduceTest, KeepsEverythingWhenTargetTiny) {
  const Graph graph = KarateClub();
  const ReductionResult reduction = ReduceForTarget(graph, 2, 1);
  EXPECT_EQ(reduction.reduced.num_vertices(), 34);
  EXPECT_EQ(reduction.reduced.num_edges(), 78);
}

TEST(ReduceTest, MappingIsConsistent) {
  const Graph graph = RandomGnm(12, 20, 4).value();
  const ReductionResult reduction = ReduceForTarget(graph, 2, 5);
  for (Vertex old_id = 0; old_id < 12; ++old_id) {
    const Vertex new_id = reduction.old_to_new[old_id];
    if (new_id >= 0) {
      EXPECT_EQ(reduction.new_to_old[new_id], old_id);
    }
  }
}

// -- BS solver ----------------------------------------------------------------

class BsRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BsRandomTest, MatchesEnumeration) {
  const auto [n, k] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const int m = n * (n - 1) / 3;
    const Graph graph = RandomGnm(n, m, seed).value();
    const MkpSolution expected = SolveMkpByEnumeration(graph, k).value();
    BsSolver solver;
    const MkpSolution actual = solver.Solve(graph, k).value();
    EXPECT_EQ(actual.size, expected.size)
        << "n=" << n << " k=" << k << " seed=" << seed;
    EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), actual.mask, k));
    EXPECT_EQ(static_cast<int>(actual.members.size()), actual.size);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BsRandomTest,
                         ::testing::Combine(::testing::Values(8, 10, 12, 14),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(BsSolverTest, PaperExample) {
  BsSolver solver;
  const MkpSolution best = solver.Solve(PaperExampleGraph(), 2).value();
  EXPECT_EQ(best.size, 4);
  EXPECT_EQ(best.mask, 0b011011u);
}

TEST(BsSolverTest, WithoutReductionOrBound) {
  BsSolverOptions options;
  options.use_reduction = false;
  options.use_support_bound = false;
  BsSolver solver(options);
  const Graph graph = RandomGnm(12, 30, 8).value();
  const MkpSolution expected = SolveMkpByEnumeration(graph, 2).value();
  EXPECT_EQ(solver.Solve(graph, 2).value().size, expected.size);
}

TEST(BsSolverTest, BoundsReduceSearchNodes) {
  const Graph graph = RandomGnm(16, 60, 2).value();
  BsSolverOptions no_bound;
  no_bound.use_support_bound = false;
  no_bound.use_reduction = false;
  BsSolver baseline(no_bound);
  (void)baseline.Solve(graph, 2);

  BsSolver pruned;  // defaults: reduction + bound on
  (void)pruned.Solve(graph, 2);
  EXPECT_LT(pruned.stats().branch_nodes, baseline.stats().branch_nodes);
}

TEST(BsSolverTest, IncumbentCallbackMonotone) {
  std::vector<int> sizes;
  BsSolverOptions options;
  options.on_incumbent = [&](const MkpSolution& s, const BsSolverStats&) {
    sizes.push_back(s.size);
  };
  BsSolver solver(options);
  (void)solver.Solve(KarateClub(), 2);
  ASSERT_FALSE(sizes.empty());
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
}

TEST(BsSolverTest, KarateClubKnownValues) {
  // Known maximum k-plex sizes for Zachary's karate club.
  BsSolver solver;
  EXPECT_EQ(solver.Solve(KarateClub(), 1).value().size, 5);   // max clique
  const MkpSolution two = solver.Solve(KarateClub(), 2).value();
  EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(KarateClub()), two.mask, 2));
  EXPECT_GE(two.size, 6);
  EXPECT_GE(solver.Solve(KarateClub(), 3).value().size, two.size);
}

TEST(BsSolverTest, EmptyAndTinyGraphs) {
  BsSolver solver;
  EXPECT_EQ(solver.Solve(Graph(0), 2).value().size, 0);
  EXPECT_EQ(solver.Solve(Graph(1), 1).value().size, 1);
  EXPECT_EQ(solver.Solve(Graph(3), 2).value().size, 2);
}

// -- GRASP ----------------------------------------------------------------------

TEST(GraspTest, FindsOptimumOnSmallInstances) {
  for (std::uint64_t seed : {1ull, 4ull, 6ull}) {
    const Graph graph = RandomGnm(12, 32, seed).value();
    const int truth = SolveMkpByEnumeration(graph, 2).value().size;
    GraspOptions options;
    options.seed = seed;
    options.iterations = 128;
    const MkpSolution solution = GraspSolver(options).Solve(graph, 2).value();
    // GRASP is a heuristic; on these sizes it reliably reaches the optimum.
    EXPECT_EQ(solution.size, truth) << "seed " << seed;
    EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), solution.mask, 2));
  }
}

TEST(GraspTest, AlwaysReturnsValidPlex) {
  const Graph graph = RandomGnm(20, 70, 3).value();
  for (int k = 1; k <= 4; ++k) {
    GraspOptions options;
    options.iterations = 16;
    const MkpSolution solution = GraspSolver(options).Solve(graph, k).value();
    EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), solution.mask, k));
    EXPECT_GE(solution.size, 1);
  }
}

TEST(GraspTest, PureGreedyAndPureRandomBothValid) {
  const Graph graph = RandomGnm(14, 40, 8).value();
  for (double alpha : {0.0, 1.0}) {
    GraspOptions options;
    options.alpha = alpha;
    options.iterations = 8;
    const MkpSolution solution = GraspSolver(options).Solve(graph, 2).value();
    EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), solution.mask, 2));
  }
}

TEST(GraspTest, Validation) {
  GraspOptions bad;
  bad.alpha = 2.0;
  EXPECT_FALSE(GraspSolver(bad).Solve(PathGraph(3), 1).ok());
  bad.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(GraspSolver(bad).Solve(PathGraph(3), 1).ok());
  EXPECT_FALSE(GraspSolver().Solve(PathGraph(3), 0).ok());
  EXPECT_EQ(GraspSolver().Solve(Graph(0), 2).value().size, 0);
}

TEST(BsSolverTest, StatsPopulated) {
  BsSolver solver;
  (void)solver.Solve(RandomGnm(12, 30, 3).value(), 2);
  EXPECT_GT(solver.stats().branch_nodes, 0);
  EXPECT_GE(solver.stats().elapsed_seconds, 0.0);
  EXPECT_TRUE(solver.stats().completed);
}

TEST(BsSolverTest, DeadlineStopsSearchWithValidIncumbent) {
  // Large enough that branch-and-search cannot finish inside a microsecond;
  // the deadline poll (every ~1k nodes) must stop it with completed=false
  // while still returning a feasible incumbent.
  const Graph graph = RandomGnm(64, 1000, 5).value();
  BsSolverOptions options;
  const CancelToken time_limit(Deadline::After(1e-6));
  options.cancel = &time_limit;
  BsSolver solver(options);
  const MkpSolution solution = solver.Solve(graph, 2).value();
  EXPECT_FALSE(solver.stats().completed);
  EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), solution.mask, 2));
}

TEST(GraspTest, CancellationStopsIterationsEarly) {
  const Graph graph = RandomGnm(30, 120, 4).value();
  CancelToken cancel;
  cancel.Cancel();  // pre-cancelled: polled once per iteration
  GraspOptions options;
  options.iterations = 10'000'000;
  options.cancel = &cancel;
  GraspSolver solver(options);
  const MkpSolution solution = solver.Solve(graph, 2).value();
  EXPECT_FALSE(solver.stats().completed);
  // The token is polled before any work: zero iterations, empty incumbent.
  EXPECT_EQ(solver.stats().iterations_run, 0);
  EXPECT_EQ(solution.size, 0);
}

TEST(GraspTest, TimeLimitStopsIterationsEarly) {
  const Graph graph = RandomGnm(30, 120, 4).value();
  GraspOptions options;
  options.iterations = 10'000'000;
  const CancelToken time_limit(Deadline::After(1e-3));
  options.cancel = &time_limit;
  GraspSolver solver(options);
  const MkpSolution solution = solver.Solve(graph, 2).value();
  EXPECT_FALSE(solver.stats().completed);
  EXPECT_LT(solver.stats().iterations_run, options.iterations);
  EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), solution.mask, 2));
}

TEST(GraspTest, SameSeedSameResult) {
  // The local-search RNG tie-break must stay deterministic per seed.
  const Graph graph = RandomGnm(40, 200, 17).value();
  GraspOptions options;
  options.iterations = 32;
  options.seed = 99;
  GraspSolver first(options);
  GraspSolver second(options);
  const MkpSolution a = first.Solve(graph, 2).value();
  const MkpSolution b = second.Solve(graph, 2).value();
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.members, b.members);
}

// -- beyond 64 vertices (the multi-word kernel engine) ------------------------

TEST(BsSolverTest, SolvesBeyond64Vertices) {
  // Previously an InvalidArgument cliff; with the BitGraph engine BS must
  // recover at least the planted plex, and every answer must verify against
  // the bitset ground-truth predicate.
  const int n = 90;
  const int planted = 10;
  const int k = 2;
  const Graph graph = PlantedKPlex(n, planted, k, 0.05, 123).value();
  BsSolver solver;
  const MkpSolution solution = solver.Solve(graph, k).value();
  EXPECT_TRUE(solver.stats().completed);
  EXPECT_GE(solution.size, planted);
  EXPECT_EQ(static_cast<int>(solution.members.size()), solution.size);
  EXPECT_TRUE(IsKPlex(
      graph, VertexBitset::FromList(n, solution.members), k));
}

TEST(BsSolverTest, MatchesEnumerationAcrossWordBoundaryEmbedding) {
  // Embed a small instance in a 70-vertex graph (the extra vertices are
  // isolated): the optimum over the embedded component must be found by the
  // wide engine exactly as the mask engine finds it on the small graph.
  const Graph small = RandomGnm(12, 34, 9).value();
  Graph wide(70);
  for (const auto& [u, v] : small.Edges()) {
    wide.AddEdge(u, v);
  }
  for (int k = 1; k <= 2; ++k) {
    BsSolver small_solver;
    BsSolver wide_solver;
    const MkpSolution small_best = small_solver.Solve(small, k).value();
    const MkpSolution wide_best = wide_solver.Solve(wide, k).value();
    // Isolated vertices form a k-plex of size k by themselves; beyond that
    // the embedded component dominates.
    EXPECT_EQ(wide_best.size, std::max(small_best.size, k));
    EXPECT_TRUE(IsKPlex(
        wide, VertexBitset::FromList(70, wide_best.members), k));
  }
}

TEST(GraspTest, SolvesBeyond64Vertices) {
  const int n = 80;
  const int planted = 9;
  const int k = 2;
  const Graph graph = PlantedKPlex(n, planted, k, 0.05, 7).value();
  GraspOptions options;
  options.iterations = 64;
  GraspSolver solver(options);
  const MkpSolution solution = solver.Solve(graph, k).value();
  EXPECT_GE(solution.size, 3);
  EXPECT_EQ(static_cast<int>(solution.members.size()), solution.size);
  EXPECT_TRUE(IsKPlex(
      graph, VertexBitset::FromList(n, solution.members), k));
}

TEST(EnumerationTest, CountKPlexesStopsOnCancellation) {
  const Graph graph = RandomGnm(22, 80, 2).value();
  CancelToken cancel;
  cancel.Cancel();
  bool completed = true;
  const std::size_t partial =
      MarkedByWalk(graph, 2, 1, &cancel, &completed).size();
  EXPECT_FALSE(completed);
  // The poll fires at the 0x1000th tested subset, so at most that many
  // k-plexes are counted.
  EXPECT_LE(partial, 0x1000u);
  EXPECT_LT(static_cast<std::int64_t>(partial), sweep::Count(graph, 2, 1));
}

TEST(EnumerationTest, CountKPlexesControlDefaultsComplete) {
  bool completed = false;
  EXPECT_EQ(MarkedByWalk(PaperExampleGraph(), 2, 4, nullptr, &completed).size(),
            1u);
  EXPECT_TRUE(completed);
}

TEST(EnumerationTest, StopsOnCancellationWithAVerifiedIncumbent) {
  // The walk tests far more than 4096 subsets on G(30, 260) with k = 7, so
  // it reaches its first poll and stops there.
  const Graph graph = RandomGnm(30, 260, 1).value();
  CancelToken cancel;
  cancel.Cancel();
  EnumerationControl control;
  control.cancel = &cancel;
  bool completed = true;
  control.completed = &completed;
  const MkpSolution partial = SolveMkpByEnumeration(graph, 7, control).value();
  EXPECT_FALSE(completed);
  EXPECT_GT(partial.size, 0);
  EXPECT_TRUE(IsKPlexMask(AdjacencyMasks(graph), partial.mask, 7));
  EXPECT_EQ(static_cast<int>(partial.members.size()), partial.size);
}

}  // namespace
}  // namespace qplex
