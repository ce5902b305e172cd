#ifndef QPLEX_GRAPH_KPLEX_H_
#define QPLEX_GRAPH_KPLEX_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qplex {

/// k-plex predicates and small-graph (n <= 64) mask utilities. Gate-model
/// search spaces are indexed by 64-bit subset masks where bit i selects
/// vertex v_i, matching the paper's one-hot encoding |v_1 ... v_n>.

/// True if `members` is a k-plex of `graph`: every member has at least
/// |members| - k neighbours inside the set. The empty set is a k-plex.
bool IsKPlex(const Graph& graph, const VertexBitset& members, int k);

/// Per-vertex adjacency as 64-bit masks; requires n <= 64.
std::vector<std::uint64_t> AdjacencyMasks(const Graph& graph);

/// Degree of `v` within the subset `mask`, given precomputed masks.
inline int DegreeInMask(const std::vector<std::uint64_t>& adjacency, Vertex v,
                        std::uint64_t mask);

/// True if subset `mask` is a k-plex (mask form; requires n <= 64).
bool IsKPlexMask(const std::vector<std::uint64_t>& adjacency,
                 std::uint64_t mask, int k);

/// Converts a mask into a VertexBitset of `num_vertices` bits.
VertexBitset MaskToBitset(int num_vertices, std::uint64_t mask);

/// Converts a small bitset (n <= 64) into a mask.
std::uint64_t BitsetToMask(const VertexBitset& members);

// -- inline implementation ---------------------------------------------------

inline int DegreeInMask(const std::vector<std::uint64_t>& adjacency, Vertex v,
                        std::uint64_t mask) {
  return __builtin_popcountll(adjacency[v] & mask);
}

}  // namespace qplex

#endif  // QPLEX_GRAPH_KPLEX_H_
