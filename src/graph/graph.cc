#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace qplex {

int VertexBitset::Count() const {
  int count = 0;
  for (std::uint64_t word : words_) {
    count += std::popcount(word);
  }
  return count;
}

int VertexBitset::IntersectCount(const VertexBitset& other) const {
  QPLEX_CHECK(num_bits_ == other.num_bits_) << "bitset size mismatch";
  int count = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] & other.words_[i]);
  }
  return count;
}

bool VertexBitset::None() const {
  for (std::uint64_t word : words_) {
    if (word != 0) {
      return false;
    }
  }
  return true;
}

void VertexBitset::SetAll() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  ClearTail();
}

void VertexBitset::FlipAll() {
  for (std::uint64_t& word : words_) {
    word = ~word;
  }
  ClearTail();
}

void VertexBitset::ClearTail() {
  if (words_.empty()) {
    return;
  }
  const int tail = num_bits_ & 63;
  if (tail != 0) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

void VertexBitset::OrWith(const VertexBitset& other) {
  QPLEX_CHECK(num_bits_ == other.num_bits_) << "bitset size mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void VertexBitset::AndWith(const VertexBitset& other) {
  QPLEX_CHECK(num_bits_ == other.num_bits_) << "bitset size mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
  }
}

void VertexBitset::AndNotWith(const VertexBitset& other) {
  QPLEX_CHECK(num_bits_ == other.num_bits_) << "bitset size mismatch";
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
}

VertexList VertexBitset::ToList() const {
  VertexList out;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(static_cast<Vertex>(w * 64 + bit));
      word &= word - 1;
    }
  }
  return out;
}

VertexBitset VertexBitset::FromList(int num_vertices,
                                    const VertexList& members) {
  VertexBitset set(num_vertices);
  for (Vertex v : members) {
    QPLEX_CHECK(v >= 0 && v < num_vertices) << "vertex " << v << " out of range";
    set.Set(v);
  }
  return set;
}

Graph::Graph(int num_vertices)
    : num_vertices_(num_vertices),
      adjacency_(num_vertices, VertexBitset(num_vertices)),
      neighbors_(num_vertices) {
  QPLEX_CHECK(num_vertices >= 0) << "negative vertex count";
}

void Graph::AddEdge(Vertex u, Vertex v) {
  QPLEX_CHECK(u >= 0 && u < num_vertices_) << "vertex " << u << " out of range";
  QPLEX_CHECK(v >= 0 && v < num_vertices_) << "vertex " << v << " out of range";
  if (u == v || adjacency_[u].Test(v)) {
    return;
  }
  adjacency_[u].Set(v);
  adjacency_[v].Set(u);
  neighbors_[u].insert(
      std::lower_bound(neighbors_[u].begin(), neighbors_[u].end(), v), v);
  neighbors_[v].insert(
      std::lower_bound(neighbors_[v].begin(), neighbors_[v].end(), u), u);
  ++num_edges_;
}

void Graph::AddEdges(const std::vector<std::pair<Vertex, Vertex>>& edges) {
  std::vector<bool> touched(num_vertices_, false);
  for (const auto& [u, v] : edges) {
    QPLEX_CHECK(u >= 0 && u < num_vertices_)
        << "vertex " << u << " out of range";
    QPLEX_CHECK(v >= 0 && v < num_vertices_)
        << "vertex " << v << " out of range";
    if (u == v || adjacency_[u].Test(v)) {
      continue;
    }
    adjacency_[u].Set(v);
    adjacency_[v].Set(u);
    neighbors_[u].push_back(v);
    neighbors_[v].push_back(u);
    touched[u] = true;
    touched[v] = true;
    ++num_edges_;
  }
  for (Vertex v = 0; v < num_vertices_; ++v) {
    if (touched[v]) {
      std::sort(neighbors_[v].begin(), neighbors_[v].end());
    }
  }
}

int Graph::MaxDegree() const {
  int best = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

std::vector<std::pair<Vertex, Vertex>> Graph::Edges() const {
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(num_edges_);
  for (Vertex u = 0; u < num_vertices_; ++u) {
    for (Vertex v : neighbors_[u]) {
      if (u < v) {
        edges.emplace_back(u, v);
      }
    }
  }
  return edges;
}

Graph Graph::Complement() const {
  // Word-parallel: each complement row is the bitwise NOT of the adjacency
  // row (minus the self bit), so the whole build is O(n²/64) instead of n²
  // individual edge inserts.
  Graph complement(num_vertices_);
  std::int64_t degree_sum = 0;
  for (Vertex u = 0; u < num_vertices_; ++u) {
    VertexBitset row = adjacency_[u];
    row.FlipAll();
    row.Reset(u);
    complement.neighbors_[u] = row.ToList();
    degree_sum += static_cast<std::int64_t>(complement.neighbors_[u].size());
    complement.adjacency_[u] = std::move(row);
  }
  complement.num_edges_ = static_cast<int>(degree_sum / 2);
  return complement;
}

std::string Graph::ToString() const {
  std::ostringstream out;
  out << "Graph(n=" << num_vertices_ << ", m=" << num_edges_ << ")";
  return out.str();
}

Result<Graph> MakeGraph(int num_vertices,
                        const std::vector<std::pair<Vertex, Vertex>>& edges) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  Graph graph(num_vertices);
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_vertices || v < 0 || v >= num_vertices) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (u == v) {
      return Status::InvalidArgument("self-loop not allowed");
    }
  }
  graph.AddEdges(edges);
  return graph;
}

}  // namespace qplex
