#ifndef QPLEX_EMBED_MINOR_EMBEDDING_H_
#define QPLEX_EMBED_MINOR_EMBEDDING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// A minor embedding: each logical variable owns a connected, pairwise
/// disjoint set ("chain") of hardware qubits, such that every logical edge is
/// realised by at least one hardware coupler between the two chains.
struct Embedding {
  /// chains[v] = hardware nodes representing logical variable v.
  std::vector<std::vector<int>> chains;
};

/// Aggregate chain statistics — the quantities plotted in the paper's
/// Fig. "Variable counts and chain size vs graph size".
struct EmbeddingStats {
  int num_variables = 0;
  int num_physical_qubits = 0;
  int max_chain = 0;
  double average_chain = 0;
};

EmbeddingStats ComputeEmbeddingStats(const Embedding& embedding);

/// Verifies the embedding contract against the logical/hardware graphs:
/// chains non-empty, connected, disjoint, and covering every logical edge.
Status ValidateEmbedding(const Graph& logical, const Graph& hardware,
                         const Embedding& embedding);

/// Options for the heuristic embedder.
struct MinorEmbedderOptions {
  /// Refinement passes after the initial greedy construction; each pass
  /// rips up and re-routes every chain (in a fresh random order, under a
  /// doubled contention penalty) with the others fixed.
  int max_passes = 16;
  std::uint64_t seed = 1;
};

/// Heuristic minor embedder after Cai, Macready & Roy (2014) — the same
/// algorithm family as D-Wave's minorminer, which the paper uses ("the
/// embedding problem is NP-hard; therefore we adopt a heuristic approach").
/// Chains are grown by multi-source Dijkstra routing with usage-penalised
/// node costs; temporary overlaps are permitted and resolved by rip-up and
/// re-route passes.
class MinorEmbedder {
 public:
  explicit MinorEmbedder(MinorEmbedderOptions options = {})
      : options_(options) {}

  /// Embeds `logical` into `hardware`. Returns ResourceExhausted when no
  /// overlap-free embedding was found within the pass budget.
  Result<Embedding> Embed(const Graph& logical, const Graph& hardware) const;

 private:
  MinorEmbedderOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_EMBED_MINOR_EMBEDDING_H_
