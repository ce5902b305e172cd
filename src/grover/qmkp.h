#ifndef QPLEX_GROVER_QMKP_H_
#define QPLEX_GROVER_QMKP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "grover/qtkp.h"

namespace qplex {

/// One binary-search probe of qMKP.
struct QmkpProbe {
  int threshold = 0;        ///< T passed to qTKP
  bool feasible = false;    ///< did qTKP return a verified plex?
  int found_size = 0;       ///< size of the plex it returned (0 if none)
  std::int64_t oracle_calls = 0;
  std::int64_t gate_cost = 0;
  double error_probability = 0.0;  ///< single-attempt failure probability
};

/// Outcome of qMKP (Algorithm 3): binary search over T driving qTKP.
struct QmkpResult {
  /// False when the stop token ended the binary search early; `best_plex`
  /// is then the incumbent at that point.
  bool completed = true;
  /// The best (largest) verified k-plex found.
  std::uint64_t best_mask = 0;
  VertexList best_plex;
  int best_size = 0;

  std::vector<QmkpProbe> probes;
  std::int64_t total_oracle_calls = 0;
  std::int64_t total_gate_cost = 0;

  /// Cost spent up to and including the first probe that produced a feasible
  /// solution, and that solution's size — the paper's progressiveness metrics
  /// (first-result time / first-result size in Tables III-IV).
  std::int64_t first_result_gate_cost = 0;
  int first_result_size = 0;

  /// Upper bound on the probability that any feasible probe was misclassified
  /// across its attempts (the algorithm's overall failure probability).
  double error_probability = 0.0;
};

/// Observer invoked after every probe; gives the progressive behaviour of
/// Section III-G ("Progression").
using QmkpProgressCallback =
    std::function<void(const QmkpProbe& probe, const QmkpResult& so_far)>;

/// Runs qMKP: binary search on T in [1, n] calling qTKP, returning the
/// maximum k-plex. The empty result (best_size == 0) only occurs for n == 0;
/// any single vertex is a k-plex.
Result<QmkpResult> RunQmkp(const Graph& graph, int k,
                           const QtkpOptions& options,
                           const QmkpProgressCallback& on_progress = nullptr);

/// The maximum-clique adaptation the paper highlights: a clique is a 1-plex.
Result<QmkpResult> RunQMaxClique(const Graph& graph,
                                 const QtkpOptions& options);

}  // namespace qplex

#endif  // QPLEX_GROVER_QMKP_H_
