#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/instances.h"
#include "graph/io.h"
#include "graph/kplex.h"
#include "scratch_dir.h"

namespace qplex {
namespace {

TEST(VertexBitsetTest, SetResetCount) {
  VertexBitset set(70);
  EXPECT_EQ(set.Count(), 0);
  EXPECT_TRUE(set.None());
  set.Set(0);
  set.Set(63);
  set.Set(69);
  EXPECT_EQ(set.Count(), 3);
  EXPECT_TRUE(set.Test(63));
  EXPECT_FALSE(set.Test(62));
  set.Reset(63);
  EXPECT_EQ(set.Count(), 2);
  EXPECT_EQ(set.ToList(), (VertexList{0, 69}));
}

TEST(VertexBitsetTest, IntersectCount) {
  VertexBitset a(100);
  VertexBitset b(100);
  for (int v = 0; v < 100; v += 2) {
    a.Set(v);
  }
  for (int v = 0; v < 100; v += 3) {
    b.Set(v);
  }
  EXPECT_EQ(a.IntersectCount(b), 17);  // multiples of 6 in [0, 100)
}

TEST(VertexBitsetTest, FromListRoundTrip) {
  const VertexList members{1, 5, 64, 65};
  VertexBitset set = VertexBitset::FromList(80, members);
  EXPECT_EQ(set.ToList(), members);
}

TEST(GraphTest, AddEdgeBasics) {
  Graph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);  // duplicate ignored
  graph.AddEdge(2, 2);  // self-loop ignored
  graph.AddEdge(1, 3);
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 0));
  EXPECT_FALSE(graph.HasEdge(0, 3));
  EXPECT_EQ(graph.Degree(1), 2);
  EXPECT_EQ(graph.Neighbors(1), (VertexList{0, 3}));
}

TEST(GraphTest, EdgesSorted) {
  Graph graph(5);
  graph.AddEdge(3, 1);
  graph.AddEdge(0, 4);
  graph.AddEdge(0, 2);
  const auto edges = graph.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0, 2));
  EXPECT_EQ(edges[1], std::make_pair(0, 4));
  EXPECT_EQ(edges[2], std::make_pair(1, 3));
}

TEST(GraphTest, ComplementInvolution) {
  auto graph = RandomGnm(12, 30, 7).value();
  Graph complement = graph.Complement();
  EXPECT_EQ(complement.num_edges(), 12 * 11 / 2 - 30);
  Graph back = complement.Complement();
  EXPECT_EQ(back.num_edges(), graph.num_edges());
  for (const auto& [u, v] : graph.Edges()) {
    EXPECT_TRUE(back.HasEdge(u, v));
    EXPECT_FALSE(complement.HasEdge(u, v));
  }
}

TEST(GraphTest, MakeGraphValidation) {
  EXPECT_FALSE(MakeGraph(3, {{0, 3}}).ok());
  EXPECT_FALSE(MakeGraph(3, {{1, 1}}).ok());
  EXPECT_TRUE(MakeGraph(3, {{0, 1}, {1, 2}}).ok());
}

TEST(GraphTest, DegreeIn) {
  Graph graph = PaperExampleGraph();
  VertexBitset subset = VertexBitset::FromList(6, {0, 1, 3, 4});
  EXPECT_EQ(graph.DegreeIn(0, subset), 3);
  EXPECT_EQ(graph.DegreeIn(1, subset), 2);
}

// -- k-plex predicates --------------------------------------------------------

TEST(KPlexTest, PaperExampleStructure) {
  Graph graph = PaperExampleGraph();
  EXPECT_EQ(graph.num_vertices(), 6);
  EXPECT_EQ(graph.num_edges(), 7);
  EXPECT_EQ(PaperExampleComplement().num_edges(), 8);

  // The highlighted 2-plex {v1, v2, v4, v5} (0-based {0,1,3,4}).
  const VertexBitset plex = VertexBitset::FromList(6, {0, 1, 3, 4});
  EXPECT_TRUE(IsKPlex(graph, plex, 2));

  // No 2-plex of size 5 exists.
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    if (__builtin_popcountll(mask) >= 5) {
      EXPECT_FALSE(IsKPlexMask(AdjacencyMasks(graph), mask, 2))
          << "mask " << mask;
    }
  }
}

TEST(KPlexTest, EmptyAndSingletonAreKPlexes) {
  Graph graph = PaperExampleGraph();
  EXPECT_TRUE(IsKPlex(graph, VertexBitset(6), 1));
  EXPECT_TRUE(IsKPlex(graph, VertexBitset::FromList(6, {3}), 1));
}

TEST(KPlexTest, CliqueIsOnePlex) {
  Graph graph = CompleteGraph(5);
  VertexBitset all = VertexBitset::FromList(5, {0, 1, 2, 3, 4});
  EXPECT_TRUE(IsKPlex(graph, all, 1));
}

TEST(KPlexTest, MaskAndBitsetFormsAgree) {
  auto graph = RandomGnm(8, 14, 3).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 256; ++mask) {
    const VertexBitset members = MaskToBitset(8, mask);
    for (int k = 1; k <= 3; ++k) {
      EXPECT_EQ(IsKPlexMask(adjacency, mask, k), IsKPlex(graph, members, k))
          << "mask=" << mask << " k=" << k;
    }
  }
}

TEST(KPlexTest, MaskBitsetConversions) {
  const std::uint64_t mask = 0b100101;
  VertexBitset set = MaskToBitset(6, mask);
  EXPECT_EQ(set.ToList(), (VertexList{0, 2, 5}));
  EXPECT_EQ(BitsetToMask(set), mask);
}

// -- generators ---------------------------------------------------------------

TEST(GeneratorsTest, GnmExactCounts) {
  auto graph = RandomGnm(10, 23, 123).value();
  EXPECT_EQ(graph.num_vertices(), 10);
  EXPECT_EQ(graph.num_edges(), 23);
}

TEST(GeneratorsTest, GnmDeterministicPerSeed) {
  auto a = RandomGnm(15, 40, 5).value();
  auto b = RandomGnm(15, 40, 5).value();
  EXPECT_EQ(a.Edges(), b.Edges());
  auto c = RandomGnm(15, 40, 6).value();
  EXPECT_NE(a.Edges(), c.Edges());
}

TEST(GeneratorsTest, GnmRejectsOverfull) {
  EXPECT_FALSE(RandomGnm(4, 7, 1).ok());
  EXPECT_TRUE(RandomGnm(4, 6, 1).ok());
}

TEST(GeneratorsTest, GnmDenseUsesRejectionPath) {
  auto graph = RandomGnm(40, 20, 2).value();  // sparse => rejection path
  EXPECT_EQ(graph.num_edges(), 20);
}

TEST(GeneratorsTest, GnpExtremes) {
  EXPECT_EQ(RandomGnp(8, 0.0, 1).value().num_edges(), 0);
  EXPECT_EQ(RandomGnp(8, 1.0, 1).value().num_edges(), 28);
  EXPECT_FALSE(RandomGnp(8, 1.5, 1).ok());
}

TEST(GeneratorsTest, PlantedKPlexContainsPlex) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto graph = PlantedKPlex(12, 5, 2, 0.2, seed).value();
    // Some 2-plex of size >= 5 must exist (the planted one).
    const auto adjacency = AdjacencyMasks(graph);
    bool found = false;
    for (std::uint64_t mask = 0; mask < (1u << 12) && !found; ++mask) {
      if (__builtin_popcountll(mask) == 5 && IsKPlexMask(adjacency, mask, 2)) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

TEST(GeneratorsTest, FixedTopologies) {
  EXPECT_EQ(CompleteGraph(6).num_edges(), 15);
  EXPECT_EQ(CycleGraph(6).value().num_edges(), 6);
  EXPECT_FALSE(CycleGraph(2).ok());
  EXPECT_EQ(PathGraph(6).num_edges(), 5);
  EXPECT_EQ(StarGraph(6).num_edges(), 5);
  EXPECT_EQ(PetersenGraph().num_edges(), 15);
  EXPECT_EQ(KarateClub().num_edges(), 78);
}

// -- IO -----------------------------------------------------------------------

TEST(IoTest, EdgeListRoundTrip) {
  const Graph graph = MakeGraph(9, {{0, 4}, {1, 2}, {1, 8}, {2, 5}, {3, 7},
                                    {4, 6}, {5, 8}, {6, 7}})
                          .value();
  const Graph parsed =
      ParseEdgeList("# qplex edge list\n9\n0 4\n1 2\n1 8\n2 5\n3 7\n4 6\n"
                    "5 8\n6 7\n")
          .value();
  EXPECT_EQ(parsed.num_vertices(), 9);
  EXPECT_EQ(parsed.Edges(), graph.Edges());
}

TEST(IoTest, EdgeListComments) {
  auto graph = ParseEdgeList("# header\n4\n# mid comment\n0 1\n2 3\n").value();
  EXPECT_EQ(graph.num_vertices(), 4);
  EXPECT_EQ(graph.num_edges(), 2);
}

TEST(IoTest, EdgeListErrors) {
  EXPECT_FALSE(ParseEdgeList("").ok());
  EXPECT_FALSE(ParseEdgeList("3\n0 9\n").ok());
  EXPECT_FALSE(ParseEdgeList("abc\n").ok());
}

TEST(IoTest, DimacsRoundTrip) {
  // DIMACS endpoints are 1-based; the parsed graph is 0-based.
  const Graph graph =
      MakeGraph(11, {{0, 10}, {1, 3}, {2, 9}, {4, 5}, {5, 6}, {7, 8}}).value();
  const Graph parsed =
      ParseDimacs("c qplex DIMACS export\np edge 11 6\ne 1 11\ne 2 4\n"
                  "e 3 10\ne 5 6\ne 6 7\ne 8 9\n")
          .value();
  EXPECT_EQ(parsed.num_vertices(), 11);
  EXPECT_EQ(parsed.Edges(), graph.Edges());
}

TEST(IoTest, DimacsErrors) {
  EXPECT_FALSE(ParseDimacs("e 1 2\n").ok());               // edge before p
  EXPECT_FALSE(ParseDimacs("p edge 3 1\ne 0 1\n").ok());   // 0-based edge
  EXPECT_FALSE(ParseDimacs("p clique 3 1\n").ok());        // wrong kind
  EXPECT_TRUE(ParseDimacs("c hi\np edge 3 1\ne 1 2\n").ok());
}

TEST(IoTest, EdgeListRejectsSelfLoopsWithLineNumber) {
  const Result<Graph> parsed = ParseEdgeList("4\n0 1\n2 2\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("self-loop"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(IoTest, EdgeListDeduplicatesRepeatedEdges) {
  // The same edge in both orientations plus a literal repeat: one edge each,
  // degrees unaffected by the noise.
  const Graph graph = ParseEdgeList("4\n0 1\n1 0\n0 1\n2 3\n").value();
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_EQ(graph.Degree(0), 1);
  EXPECT_EQ(graph.Degree(1), 1);
}

TEST(IoTest, EdgeListReportsOutOfRangeLine) {
  const Result<Graph> parsed = ParseEdgeList("3\n0 1\n0 7\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(IoTest, DimacsRejectsSelfLoopsWithLineNumber) {
  const Result<Graph> parsed = ParseDimacs("p edge 3 2\ne 1 2\ne 3 3\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("self-loop"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(IoTest, DimacsDeduplicatesRepeatedEdges) {
  const Graph graph =
      ParseDimacs("p edge 3 4\ne 1 2\ne 2 1\ne 1 2\ne 1 3\n").value();
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_EQ(graph.Degree(0), 2);
}

TEST(IoTest, LoadMalformedEdgeListFileFails) {
  const std::filesystem::path path = ScratchDir() / "malformed.el";
  {
    std::ofstream out(path);
    out << "5\n0 1\n3 3\n1 2\n";
  }
  const Result<Graph> loaded = LoadEdgeListFile(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("self-loop"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(IoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadEdgeListFile("/nonexistent/x.el").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadDimacsFile("/nonexistent/x.col").status().code(),
            StatusCode::kNotFound);
}

TEST(VertexBitsetTest, WordOpsAndTailMasking) {
  VertexBitset set(70);
  set.SetAll();
  EXPECT_EQ(set.Count(), 70);
  set.FlipAll();
  EXPECT_TRUE(set.None());  // the tail bits beyond 70 stay clear
  set.Set(3);
  set.Set(68);
  VertexBitset other(70);
  other.Set(3);
  other.Set(65);
  VertexBitset or_result = set;
  or_result.OrWith(other);
  EXPECT_EQ(or_result.ToList(), (VertexList{3, 65, 68}));
  VertexBitset and_result = set;
  and_result.AndWith(other);
  EXPECT_EQ(and_result.ToList(), (VertexList{3}));
  VertexBitset andnot_result = set;
  andnot_result.AndNotWith(other);
  EXPECT_EQ(andnot_result.ToList(), (VertexList{68}));
}

TEST(GraphTest, AddEdgesMatchesAddEdge) {
  const Graph reference = RandomGnm(50, 300, 42).value();
  std::vector<std::pair<Vertex, Vertex>> edges = reference.Edges();
  // Scramble, duplicate, and add self-loops: the bulk path must dedup and
  // skip exactly like repeated AddEdge calls.
  std::reverse(edges.begin(), edges.end());
  edges.push_back(edges.front());
  edges.emplace_back(7, 7);
  Graph bulk(50);
  bulk.AddEdges(edges);
  EXPECT_EQ(bulk.num_edges(), reference.num_edges());
  for (Vertex v = 0; v < 50; ++v) {
    EXPECT_EQ(bulk.Neighbors(v), reference.Neighbors(v));
    EXPECT_EQ(bulk.NeighborBits(v), reference.NeighborBits(v));
  }
}

TEST(GraphTest, ComplementWordParallelMatchesDefinition) {
  for (const int n : {5, 64, 67}) {
    const Graph graph = RandomGnp(n, 0.4, 100 + n).value();
    const Graph complement = graph.Complement();
    int expected_edges = 0;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        EXPECT_EQ(complement.HasEdge(u, v), !graph.HasEdge(u, v));
        expected_edges += graph.HasEdge(u, v) ? 0 : 1;
      }
      // Neighbour lists must stay sorted and consistent with the bitsets.
      EXPECT_EQ(complement.NeighborBits(u).ToList(), complement.Neighbors(u));
      EXPECT_EQ(complement.Degree(u), n - 1 - graph.Degree(u));
    }
    EXPECT_EQ(complement.num_edges(), expected_edges);
  }
}

}  // namespace
}  // namespace qplex
