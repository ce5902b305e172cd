#ifndef QPLEX_GRAPH_BITGRAPH_H_
#define QPLEX_GRAPH_BITGRAPH_H_

// BitGraph kernel engine: packed uint64_t adjacency rows plus the word-op
// primitives (IntersectCount, AndNot, IterateBits, DegreeIn) shared by every
// classical hot path — BS branch-and-search, GRASP construction/local
// search, the core–truss reductions, exact feasibility, and the QUBO sample
// repair. Feasibility checks and candidate pruning cost O(n/64) word ops per
// query instead of per-neighbour loops (the KPartiteKClique idiom).
//
// Word layout: vertex v's adjacency row occupies words
// [v * words_per_row, (v+1) * words_per_row) of one flat array, bit i of
// word w selecting neighbour 64w + i; rows are contiguous so sweeping a
// row is a linear scan. Bits at positions >= n are always zero.
//
// The two *engines* at the bottom expose one subset API over two
// representations, so a solver written once against the engine template
// runs on either:
//  * MaskEngine — Set is a raw uint64_t (requires n <= 64). This is the
//    small-n fast path: every subset op is a single register instruction,
//    zero allocation, exactly the code the pre-BitGraph solvers ran.
//  * WideEngine — Set is a VertexBitset over BitGraph rows; any n.
// Both are deterministic: iteration order is ascending vertex id, so an
// algorithm instantiated over either engine visits candidates in the same
// order and produces the same answer on n <= 64 inputs.

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace qplex {

/// Calls `fn(Vertex)` for each set bit of a raw word span, ascending.
template <typename Fn>
void IterateBits(const std::uint64_t* words, int num_words, Fn&& fn) {
  for (int w = 0; w < num_words; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      fn(static_cast<Vertex>(w * 64 + std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

/// Packed multi-word adjacency rows of a Graph. Rows are mutable (RemoveEdge
/// / RemoveVertex) so reduction rules can peel the graph in place and
/// re-query degrees and common-neighbour counts as row intersections.
class BitGraph {
 public:
  BitGraph() = default;
  explicit BitGraph(const Graph& graph);

  int num_vertices() const { return n_; }
  int words_per_row() const { return words_; }

  const std::uint64_t* Row(Vertex v) const {
    return rows_.data() + static_cast<std::size_t>(v) * words_;
  }

  bool HasEdge(Vertex u, Vertex v) const {
    return (Row(u)[static_cast<std::size_t>(v) >> 6] >> (v & 63)) & 1;
  }

  /// Current degree of `v` (popcount of its row).
  int Degree(Vertex v) const;

  /// |N(v) ∩ subset| — one AND+popcount pass over the row words.
  int DegreeIn(Vertex v, const VertexBitset& subset) const;

  /// |N(u) ∩ N(v)| — the common-neighbour (triangle support) count.
  int IntersectCount(Vertex u, Vertex v) const;

  /// Deletes the undirected edge {u, v} (no-op when absent).
  void RemoveEdge(Vertex u, Vertex v);

  /// Isolates `v`: clears its row and its bit in every neighbour's row.
  void RemoveVertex(Vertex v);

  /// Calls `fn(Vertex)` for each current neighbour of `v`, ascending.
  template <typename Fn>
  void ForEachNeighbor(Vertex v, Fn&& fn) const {
    IterateBits(Row(v), words_, fn);
  }

 private:
  std::uint64_t* MutableRow(Vertex v) {
    return rows_.data() + static_cast<std::size_t>(v) * words_;
  }

  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> rows_;
};

// -- engines -----------------------------------------------------------------

/// Single-word engine: subsets are raw uint64_t masks. Requires n <= 64.
struct MaskEngine {
  using Set = std::uint64_t;

  explicit MaskEngine(const Graph& graph);

  int n = 0;
  std::vector<std::uint64_t> rows;

  Set Empty() const { return 0; }
  Set Full() const {
    return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  }
  static int Count(const Set& s) { return std::popcount(s); }
  static bool Test(const Set& s, Vertex v) { return (s >> v) & 1; }
  static void Add(Set& s, Vertex v) { s |= std::uint64_t{1} << v; }
  static void Remove(Set& s, Vertex v) { s &= ~(std::uint64_t{1} << v); }
  static bool None(const Set& s) { return s == 0; }
  static Set AndNot(const Set& a, const Set& b) { return a & ~b; }
  static Set Or(const Set& a, const Set& b) { return a | b; }

  int Degree(Vertex v) const { return std::popcount(rows[v]); }
  int DegreeIn(Vertex v, const Set& s) const {
    return std::popcount(rows[v] & s);
  }
  bool HasEdge(Vertex u, Vertex v) const { return (rows[u] >> v) & 1; }

  template <typename Fn>
  static void ForEach(const Set& s, Fn&& fn) {
    std::uint64_t rest = s;
    while (rest != 0) {
      fn(static_cast<Vertex>(std::countr_zero(rest)));
      rest &= rest - 1;
    }
  }

  /// `fn` returns false to stop; returns true when no early stop happened.
  template <typename Fn>
  static bool ForEachWhile(const Set& s, Fn&& fn) {
    std::uint64_t rest = s;
    while (rest != 0) {
      if (!fn(static_cast<Vertex>(std::countr_zero(rest)))) {
        return false;
      }
      rest &= rest - 1;
    }
    return true;
  }

  static VertexList ToList(const Set& s) {
    VertexList out;
    ForEach(s, [&out](Vertex v) { out.push_back(v); });
    return out;
  }
};

/// Multi-word engine: subsets are VertexBitsets over BitGraph rows. Any n.
struct WideEngine {
  using Set = VertexBitset;

  explicit WideEngine(const Graph& graph)
      : n(graph.num_vertices()), bits(graph) {}

  int n = 0;
  BitGraph bits;

  Set Empty() const { return VertexBitset(n); }
  Set Full() const {
    VertexBitset s(n);
    s.SetAll();
    return s;
  }
  static int Count(const Set& s) { return s.Count(); }
  static bool Test(const Set& s, Vertex v) { return s.Test(v); }
  static void Add(Set& s, Vertex v) { s.Set(v); }
  static void Remove(Set& s, Vertex v) { s.Reset(v); }
  static bool None(const Set& s) { return s.None(); }
  static Set AndNot(Set a, const Set& b) {
    a.AndNotWith(b);
    return a;
  }
  static Set Or(Set a, const Set& b) {
    a.OrWith(b);
    return a;
  }

  int Degree(Vertex v) const { return bits.Degree(v); }
  int DegreeIn(Vertex v, const Set& s) const { return bits.DegreeIn(v, s); }
  bool HasEdge(Vertex u, Vertex v) const { return bits.HasEdge(u, v); }

  template <typename Fn>
  static void ForEach(const Set& s, Fn&& fn) {
    s.ForEachBit(fn);
  }

  template <typename Fn>
  static bool ForEachWhile(const Set& s, Fn&& fn) {
    return s.ForEachBitWhile(fn);
  }

  static VertexList ToList(const Set& s) { return s.ToList(); }
};

// -- shared feasibility kernel ----------------------------------------------

/// True if `chosen` (a k-plex of |chosen| = size) stays a k-plex after
/// adding v: v has at least size + 1 - k neighbours inside, and no member's
/// deficit grows past k. The member check uses deg_{chosen+v}(u) =
/// deg_chosen(u) + [u ~ v], so no temporary subset is materialized.
template <typename Engine>
bool CanExtendPlex(const Engine& engine, const typename Engine::Set& chosen,
                   int size, Vertex v, int k) {
  const int need = size + 1 - k;
  if (engine.DegreeIn(v, chosen) < need) {
    return false;
  }
  return Engine::ForEachWhile(chosen, [&](Vertex u) {
    return engine.DegreeIn(u, chosen) + (engine.HasEdge(u, v) ? 1 : 0) >= need;
  });
}

}  // namespace qplex

#endif  // QPLEX_GRAPH_BITGRAPH_H_
