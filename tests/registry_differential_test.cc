// Differential test of every registered backend against the plain 2^n
// sweep: seeded sparse and dense G(n, p) graphs with k = 1..4 go through
// all ten MakeBuiltinRegistry() adapters. The exact backends (bs, enum,
// milp, and qtkp/qmkp under both oracles) must reach the sweep's optimum;
// the heuristics must return a verified, non-empty k-plex no larger than it
// (any single vertex is a k-plex, so an empty answer is never the best
// found). milp runs only on the graphs of at most kMilpMaxVertices vertices:
// its B&B over the linearized QUBO does not close the gap on a sparse
// 8-vertex graph within 5 s, while the 6- and 7-vertex cases close in well
// under a second each.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/kplex.h"
#include "kplex_sweep.h"
#include "svc/registry.h"
#include "svc/solver.h"

namespace qplex::svc {
namespace {

constexpr int kMilpMaxVertices = 7;

/// A well-formed answer: sorted in-range members that form a k-plex, with
/// `size` and `mask` consistent with them.
void ExpectVerifiedPlex(const Graph& graph, int k, const MkpSolution& solution,
                        const std::string& where) {
  const int n = graph.num_vertices();
  ASSERT_EQ(static_cast<int>(solution.members.size()), solution.size)
      << where;
  EXPECT_TRUE(std::is_sorted(solution.members.begin(), solution.members.end()))
      << where;
  for (Vertex v : solution.members) {
    ASSERT_TRUE(v >= 0 && v < n) << where << ": member " << v;
  }
  const VertexBitset members = VertexBitset::FromList(n, solution.members);
  EXPECT_TRUE(IsKPlex(graph, members, k)) << where;
  EXPECT_EQ(solution.mask, BitsetToMask(members)) << where;
}

/// (n, edge probability, seed); each graph runs with k = 1..4.
class RegistryDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {
 protected:
  SolveOutcome Run(const std::string& backend, const Graph& graph, int k,
                   std::map<std::string, std::string> options = {}) {
    SolveRequest request;
    request.graph = graph;
    request.k = k;
    request.backend = backend;
    request.seed = 7;
    request.options = std::move(options);
    const Result<SolveOutcome> outcome =
        registry_.Get(backend)->Solve(request, SolveContext{});
    EXPECT_TRUE(outcome.ok()) << backend << ": " << outcome.status();
    return outcome.ok() ? outcome.value() : SolveOutcome{};
  }

  const SolverRegistry registry_ = MakeBuiltinRegistry();
};

TEST_P(RegistryDifferentialTest, BackendsAgreeWithTheSweep) {
  const auto [n, p, seed] = GetParam();
  const Graph graph = RandomGnp(n, p, seed).value();
  std::set<std::string> ran;
  for (int k = 1; k <= 4; ++k) {
    const MkpSolution optimum = sweep::Maximum(graph, k);
    const std::string at = "n=" + std::to_string(n) +
                           " p=" + std::to_string(p) +
                           " seed=" + std::to_string(seed) +
                           " k=" + std::to_string(k) + " ";

    for (const char* exact : {"bs", "enum", "milp"}) {
      if (exact == std::string("milp") && n > kMilpMaxVertices) {
        continue;
      }
      const SolveOutcome outcome = Run(exact, graph, k);
      EXPECT_TRUE(outcome.completed) << at << exact;
      EXPECT_EQ(outcome.solution.size, optimum.size) << at << exact;
      ExpectVerifiedPlex(graph, k, outcome.solution, at + exact);
      ran.insert(exact);
    }
    // Enumeration also returns the sweep's mask: the first of maximum size.
    EXPECT_EQ(Run("enum", graph, k).solution.mask, optimum.mask) << at;

    for (const char* oracle : {"circuit", "predicate"}) {
      const std::string where = at + "oracle=" + oracle + " ";
      const SolveOutcome qmkp = Run("qmkp", graph, k, {{"oracle", oracle}});
      EXPECT_EQ(qmkp.solution.size, optimum.size) << where << "qmkp";
      ExpectVerifiedPlex(graph, k, qmkp.solution, where + "qmkp");
      // qTKP at the optimum finds a maximum k-plex; one above, nothing.
      const SolveOutcome hit =
          Run("qtkp", graph, k,
              {{"oracle", oracle},
               {"threshold", std::to_string(optimum.size)}});
      EXPECT_EQ(hit.solution.size, optimum.size) << where << "qtkp";
      ExpectVerifiedPlex(graph, k, hit.solution, where + "qtkp");
      if (optimum.size < n) {
        const SolveOutcome miss =
            Run("qtkp", graph, k,
                {{"oracle", oracle},
                 {"threshold", std::to_string(optimum.size + 1)}});
        EXPECT_TRUE(miss.completed) << where << "qtkp miss";
        EXPECT_EQ(miss.solution.size, 0) << where << "qtkp miss";
      }
    }
    ran.insert({"qmkp", "qtkp"});

    for (const char* heuristic : {"grasp", "sa", "pt", "pia", "hybrid"}) {
      const SolveOutcome outcome = Run(heuristic, graph, k);
      EXPECT_LE(outcome.solution.size, optimum.size) << at << heuristic;
      EXPECT_GE(outcome.solution.size, 1) << at << heuristic;
      ExpectVerifiedPlex(graph, k, outcome.solution, at + heuristic);
      ran.insert(heuristic);
    }
  }
  // Every registered backend took part, so a new one cannot skip this test.
  for (const std::string& name : registry_.Names()) {
    if (name != "milp" || n <= kMilpMaxVertices) {
      EXPECT_EQ(ran.count(name), 1u) << name << " was not run";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gnp, RegistryDifferentialTest,
    ::testing::Values(std::make_tuple(6, 0.4, 1u), std::make_tuple(7, 0.8, 2u),
                      std::make_tuple(10, 0.3, 3u),
                      std::make_tuple(10, 0.8, 4u),
                      std::make_tuple(12, 0.25, 5u),
                      std::make_tuple(12, 0.75, 6u)));

}  // namespace
}  // namespace qplex::svc
