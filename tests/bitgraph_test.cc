#include "graph/bitgraph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/kplex.h"

namespace qplex {
namespace {

/// A random subset of [0, n) where each vertex joins with probability ~1/2
/// (or a smaller slice for dense-subset stress, via `keep_mod`).
VertexBitset RandomSubset(int n, Rng& rng, int keep_mod = 2) {
  VertexBitset subset(n);
  for (Vertex v = 0; v < n; ++v) {
    if (rng.UniformInt(static_cast<std::uint64_t>(keep_mod)) == 0) {
      subset.Set(v);
    }
  }
  return subset;
}

TEST(BitGraphTest, PrimitivesMatchGraph) {
  for (const int n : {8, 63, 64, 65, 200}) {
    const Graph graph = RandomGnp(n, 0.3, 7 + n).value();
    const BitGraph bits(graph);
    ASSERT_EQ(bits.num_vertices(), n);
    ASSERT_EQ(bits.words_per_row(), (n + 63) / 64);
    Rng rng(11 + n);
    for (Vertex u = 0; u < n; ++u) {
      EXPECT_EQ(bits.Degree(u), graph.Degree(u));
      const Vertex v =
          static_cast<Vertex>(rng.UniformInt(static_cast<std::uint64_t>(n)));
      EXPECT_EQ(bits.HasEdge(u, v), graph.HasEdge(u, v));
      EXPECT_EQ(bits.IntersectCount(u, v),
                graph.NeighborBits(u).IntersectCount(graph.NeighborBits(v)));
      const VertexBitset subset = RandomSubset(n, rng);
      EXPECT_EQ(bits.DegreeIn(u, subset), graph.DegreeIn(u, subset));
      VertexList listed;
      bits.ForEachNeighbor(u, [&listed](Vertex w) { listed.push_back(w); });
      EXPECT_EQ(listed, graph.Neighbors(u));
    }
  }
}

TEST(BitGraphTest, RemoveEdgeAndVertex) {
  const Graph graph = RandomGnp(70, 0.4, 3).value();
  BitGraph bits(graph);
  const auto edges = graph.Edges();
  ASSERT_FALSE(edges.empty());
  const auto [u, v] = edges.front();
  bits.RemoveEdge(u, v);
  EXPECT_FALSE(bits.HasEdge(u, v));
  EXPECT_FALSE(bits.HasEdge(v, u));
  EXPECT_EQ(bits.Degree(u), graph.Degree(u) - 1);
  bits.RemoveEdge(u, v);  // no-op on an absent edge
  EXPECT_EQ(bits.Degree(u), graph.Degree(u) - 1);

  const Vertex hub = 65;
  const int hub_degree = bits.Degree(hub);
  ASSERT_GT(hub_degree, 0);
  const VertexList hub_neighbors = graph.Neighbors(hub);
  bits.RemoveVertex(hub);
  EXPECT_EQ(bits.Degree(hub), 0);
  for (Vertex w : hub_neighbors) {
    EXPECT_FALSE(bits.HasEdge(w, hub));
  }
}

/// IsKPlex (bitset) and IsKPlexMask (uint64) must agree on random subsets of
/// random graphs up to the one-word limit of the mask form.
TEST(BitGraphTest, KPlexPredicatesAgreeAcrossRepresentations) {
  for (const int n : {8, 63, 64}) {
    const Graph graph = RandomGnp(n, 0.5, 21 + n).value();
    const auto masks = AdjacencyMasks(graph);
    Rng rng(33 + n);
    for (int trial = 0; trial < 40; ++trial) {
      const VertexBitset subset = RandomSubset(n, rng, 2 + trial % 4);
      for (const int k : {1, 2, 3}) {
        EXPECT_EQ(IsKPlexMask(masks, BitsetToMask(subset), k),
                  IsKPlex(graph, subset, k))
            << "n=" << n << " k=" << k << " trial=" << trial;
      }
    }
  }
}

/// The two engines must make identical extension decisions on n <= 64
/// graphs — this is the contract that lets solvers dispatch per search
/// graph without changing results.
TEST(BitGraphTest, EnginesAgreeOnExtensionDecisions) {
  for (const int n : {8, 63, 64}) {
    const Graph graph = RandomGnp(n, 0.4, 55 + n).value();
    const MaskEngine narrow(graph);
    const WideEngine wide(graph);
    Rng rng(77 + n);
    for (int trial = 0; trial < 60; ++trial) {
      const VertexBitset subset = RandomSubset(n, rng, 3);
      const std::uint64_t mask = BitsetToMask(subset);
      const int size = subset.Count();
      for (const int k : {1, 2, 3}) {
        for (Vertex v = 0; v < n; ++v) {
          if (subset.Test(v)) {
            continue;
          }
          EXPECT_EQ(CanExtendPlex(narrow, mask, size, v, k),
                    CanExtendPlex(wide, subset, size, v, k))
              << "n=" << n << " k=" << k << " v=" << v;
        }
      }
    }
  }
}

TEST(BitGraphTest, CanExtendPlexMatchesDefinition) {
  const Graph graph = RandomGnp(90, 0.45, 9).value();
  const WideEngine engine(graph);
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    // Start from a set that is itself a k-plex so the extension contract
    // ("stays a k-plex after adding v") is well-defined.
    const int k = 2;
    VertexBitset plex(90);
    plex.Set(static_cast<Vertex>(rng.UniformInt(90)));
    for (Vertex v = 0; v < 90; ++v) {
      if (!plex.Test(v) && CanExtendPlex(engine, plex, plex.Count(), v, k) &&
          rng.UniformInt(2) == 0) {
        plex.Set(v);
      }
    }
    ASSERT_TRUE(IsKPlex(graph, plex, k));
    const int size = plex.Count();
    for (Vertex v = 0; v < 90; ++v) {
      if (plex.Test(v)) {
        continue;
      }
      VertexBitset with_v = plex;
      with_v.Set(v);
      EXPECT_EQ(CanExtendPlex(engine, plex, size, v, k),
                IsKPlex(graph, with_v, k))
          << "trial=" << trial << " v=" << v;
    }
  }
}

TEST(BitGraphTest, IterateBitsAscending) {
  VertexBitset set(130);
  const VertexList members{0, 1, 63, 64, 127, 129};
  for (Vertex v : members) {
    set.Set(v);
  }
  VertexList seen;
  IterateBits(set.words(), set.num_words(),
              [&seen](Vertex v) { seen.push_back(v); });
  EXPECT_EQ(seen, members);

  VertexList partial;
  const bool finished = set.ForEachBitWhile([&partial](Vertex v) {
    partial.push_back(v);
    return v < 64;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(partial, (VertexList{0, 1, 63, 64}));
}

}  // namespace
}  // namespace qplex
