#ifndef QPLEX_GRAPH_GRAPH_H_
#define QPLEX_GRAPH_GRAPH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace qplex {

/// Vertex identifier. Vertices of an n-vertex graph are 0..n-1.
using Vertex = int;

/// A subset of vertices, as a sorted list of vertex ids.
using VertexList = std::vector<Vertex>;

/// A dynamic bitset over vertices. Used for adjacency rows and subsets of
/// graphs too large for a 64-bit mask.
class VertexBitset {
 public:
  VertexBitset() = default;
  explicit VertexBitset(int num_vertices)
      : num_bits_(num_vertices), words_((num_vertices + 63) / 64, 0) {}

  int size() const { return num_bits_; }

  bool Test(Vertex v) const {
    return (words_[static_cast<std::size_t>(v) >> 6] >> (v & 63)) & 1;
  }
  void Set(Vertex v) { words_[static_cast<std::size_t>(v) >> 6] |= Bit(v); }
  void Reset(Vertex v) { words_[static_cast<std::size_t>(v) >> 6] &= ~Bit(v); }
  void Assign(Vertex v, bool value) { value ? Set(v) : Reset(v); }

  /// Number of set bits.
  int Count() const;
  /// Number of set bits in the intersection with `other` (same size).
  int IntersectCount(const VertexBitset& other) const;
  /// True if no bit is set.
  bool None() const;

  void Clear() { std::fill(words_.begin(), words_.end(), 0); }
  /// Sets every bit in [0, size).
  void SetAll();
  /// Complements the set within [0, size): bit i becomes !bit i.
  void FlipAll();

  /// In-place set algebra against a same-size set.
  void OrWith(const VertexBitset& other);
  void AndWith(const VertexBitset& other);
  void AndNotWith(const VertexBitset& other);

  /// Backing word array (little-endian bit order, (size + 63) / 64 words;
  /// bits at positions >= size are always zero).
  const std::uint64_t* words() const { return words_.data(); }
  int num_words() const { return static_cast<int>(words_.size()); }

  /// Calls `fn(Vertex)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        fn(static_cast<Vertex>(w * 64 + std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Like ForEachBit but `fn` returns false to stop early; returns true when
  /// every set bit was visited without an early stop.
  template <typename Fn>
  bool ForEachBitWhile(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        if (!fn(static_cast<Vertex>(w * 64 + std::countr_zero(word)))) {
          return false;
        }
        word &= word - 1;
      }
    }
    return true;
  }

  /// Sorted list of set vertices.
  VertexList ToList() const;

  /// Builds a bitset of `num_vertices` bits with the given members set.
  static VertexBitset FromList(int num_vertices, const VertexList& members);

  friend bool operator==(const VertexBitset& a, const VertexBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  static std::uint64_t Bit(Vertex v) { return std::uint64_t{1} << (v & 63); }

  /// Zeroes the bits at positions >= num_bits_ in the last word.
  void ClearTail();

  int num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// An undirected, unweighted, loop-free graph with a fixed vertex count.
/// Stores both adjacency bitsets (O(1) edge queries, fast set intersections
/// for triangle/k-plex checks) and adjacency lists (cheap neighbourhood
/// iteration); memory is O(n^2/64 + m), fine for the instance sizes in the
/// paper's evaluation and for annealer hardware graphs (thousands of nodes).
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_vertices);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return num_edges_; }

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are ignored.
  void AddEdge(Vertex u, Vertex v);

  /// Bulk edge ingestion: adds every edge of `edges` (self-loops and
  /// duplicates ignored), appending to the neighbour lists and sorting each
  /// touched list once at the end. O(m + Σ d log d) total, versus the
  /// O(Σ d²) worst case of per-edge sorted inserts through AddEdge — the
  /// difference between linear and quadratic time when a vertex's whole
  /// neighbourhood arrives in one batch (MakeGraph, Complement,
  /// reductions).
  void AddEdges(const std::vector<std::pair<Vertex, Vertex>>& edges);

  bool HasEdge(Vertex u, Vertex v) const {
    return adjacency_[u].Test(v);
  }

  int Degree(Vertex v) const { return static_cast<int>(neighbors_[v].size()); }
  int MaxDegree() const;

  /// Neighbour list of `v`, sorted ascending.
  const VertexList& Neighbors(Vertex v) const { return neighbors_[v]; }
  /// Neighbour bitset of `v`.
  const VertexBitset& NeighborBits(Vertex v) const { return adjacency_[v]; }

  /// Number of neighbours of `v` inside `subset`.
  int DegreeIn(Vertex v, const VertexBitset& subset) const {
    return adjacency_[v].IntersectCount(subset);
  }

  /// All edges as (u, v) pairs with u < v, sorted lexicographically.
  std::vector<std::pair<Vertex, Vertex>> Edges() const;

  /// The complement graph Ḡ: same vertices, edge iff not an edge here.
  Graph Complement() const;

  /// Human-readable one-line summary, e.g. "Graph(n=6, m=8)".
  std::string ToString() const;

 private:
  int num_vertices_ = 0;
  int num_edges_ = 0;
  std::vector<VertexBitset> adjacency_;
  std::vector<VertexList> neighbors_;
};

/// Builds a graph from an explicit edge list. Vertices outside [0, n) are a
/// checked error.
Result<Graph> MakeGraph(int num_vertices,
                        const std::vector<std::pair<Vertex, Vertex>>& edges);

}  // namespace qplex

#endif  // QPLEX_GRAPH_GRAPH_H_
