#include "graph/kplex.h"

#include <bit>

namespace qplex {

bool IsKPlex(const Graph& graph, const VertexBitset& members, int k) {
  QPLEX_CHECK(k >= 1) << "k must be at least 1";
  const int size = members.Count();
  for (Vertex v : members.ToList()) {
    if (graph.DegreeIn(v, members) < size - k) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint64_t> AdjacencyMasks(const Graph& graph) {
  QPLEX_CHECK(graph.num_vertices() <= 64)
      << "mask utilities require n <= 64, got n=" << graph.num_vertices();
  std::vector<std::uint64_t> masks(graph.num_vertices(), 0);
  for (const auto& [u, v] : graph.Edges()) {
    masks[u] |= std::uint64_t{1} << v;
    masks[v] |= std::uint64_t{1} << u;
  }
  return masks;
}

bool IsKPlexMask(const std::vector<std::uint64_t>& adjacency,
                 std::uint64_t mask, int k) {
  const int size = std::popcount(mask);
  std::uint64_t rest = mask;
  while (rest != 0) {
    const int v = std::countr_zero(rest);
    rest &= rest - 1;
    if (DegreeInMask(adjacency, v, mask) < size - k) {
      return false;
    }
  }
  return true;
}

VertexBitset MaskToBitset(int num_vertices, std::uint64_t mask) {
  QPLEX_CHECK(num_vertices <= 64) << "mask form requires n <= 64";
  VertexBitset set(num_vertices);
  while (mask != 0) {
    const int v = std::countr_zero(mask);
    mask &= mask - 1;
    QPLEX_CHECK(v < num_vertices) << "mask bit beyond vertex count";
    set.Set(v);
  }
  return set;
}

std::uint64_t BitsetToMask(const VertexBitset& members) {
  QPLEX_CHECK(members.size() <= 64) << "mask form requires n <= 64";
  std::uint64_t mask = 0;
  for (Vertex v : members.ToList()) {
    mask |= std::uint64_t{1} << v;
  }
  return mask;
}

}  // namespace qplex
