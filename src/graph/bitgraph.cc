#include "graph/bitgraph.h"

#include <bit>

#include "common/status.h"

namespace qplex {

BitGraph::BitGraph(const Graph& graph)
    : n_(graph.num_vertices()),
      words_((graph.num_vertices() + 63) / 64),
      rows_(static_cast<std::size_t>(n_) * words_, 0) {
  for (Vertex u = 0; u < n_; ++u) {
    std::uint64_t* row = MutableRow(u);
    const VertexBitset& bits = graph.NeighborBits(u);
    for (int w = 0; w < words_; ++w) {
      row[w] = bits.words()[w];
    }
  }
}

int BitGraph::Degree(Vertex v) const {
  const std::uint64_t* row = Row(v);
  int count = 0;
  for (int w = 0; w < words_; ++w) {
    count += std::popcount(row[w]);
  }
  return count;
}

int BitGraph::DegreeIn(Vertex v, const VertexBitset& subset) const {
  QPLEX_CHECK(subset.size() == n_) << "subset size mismatch";
  const std::uint64_t* row = Row(v);
  const std::uint64_t* sub = subset.words();
  int count = 0;
  for (int w = 0; w < words_; ++w) {
    count += std::popcount(row[w] & sub[w]);
  }
  return count;
}

int BitGraph::IntersectCount(Vertex u, Vertex v) const {
  const std::uint64_t* a = Row(u);
  const std::uint64_t* b = Row(v);
  int count = 0;
  for (int w = 0; w < words_; ++w) {
    count += std::popcount(a[w] & b[w]);
  }
  return count;
}

void BitGraph::RemoveEdge(Vertex u, Vertex v) {
  MutableRow(u)[static_cast<std::size_t>(v) >> 6] &=
      ~(std::uint64_t{1} << (v & 63));
  MutableRow(v)[static_cast<std::size_t>(u) >> 6] &=
      ~(std::uint64_t{1} << (u & 63));
}

void BitGraph::RemoveVertex(Vertex v) {
  std::uint64_t* row = MutableRow(v);
  IterateBits(row, words_, [this, v](Vertex u) {
    MutableRow(u)[static_cast<std::size_t>(v) >> 6] &=
        ~(std::uint64_t{1} << (v & 63));
  });
  for (int w = 0; w < words_; ++w) {
    row[w] = 0;
  }
}

MaskEngine::MaskEngine(const Graph& graph) : n(graph.num_vertices()) {
  QPLEX_CHECK(n <= 64) << "MaskEngine requires n <= 64, got " << n;
  rows.assign(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v : graph.Neighbors(u)) {
      rows[u] |= std::uint64_t{1} << v;
    }
  }
}

}  // namespace qplex
