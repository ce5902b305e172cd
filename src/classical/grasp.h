#ifndef QPLEX_CLASSICAL_GRASP_H_
#define QPLEX_CLASSICAL_GRASP_H_

#include <cstdint>
#include <functional>

#include "classical/exact.h"
#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// GRASP for the maximum k-plex (after Gujjula & Balasundaram; the
/// approximation family the paper's related-work section surveys): each
/// iteration builds a plex with a randomized greedy construction (choose
/// uniformly among the top-alpha fraction of compatible candidates by
/// degree), then improves it with swap-based local search (drop one member,
/// greedily refill, breaking degree ties in the refill with the run's RNG so
/// low-index vertices are not systematically favoured). Returns the best
/// plex over all iterations; runs are deterministic per seed. Solves run on
/// the BitGraph kernel engines (graph/bitgraph.h): single-word masks for
/// n <= 64, multi-word rows beyond.
struct GraspOptions {
  int iterations = 64;
  /// Candidate-list greediness: 0 = pure greedy, 1 = uniform random.
  double alpha = 0.3;
  /// Optional stop token (cancellation and deadline); may be null. Polled
  /// inside the construction and local-search loops (not just between
  /// iterations), so a millisecond deadline stops the run promptly; the
  /// incumbent is returned with `stats().completed == false`.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
  /// Invoked on every strict best-plex improvement with the 1-based restart
  /// iteration that produced it.
  std::function<void(const MkpSolution& best, int iteration)> on_incumbent;
};

/// Outcome bookkeeping of one GRASP run.
struct GraspStats {
  int iterations_run = 0;
  std::int64_t improvements = 0;  ///< restarts that improved the incumbent
  bool completed = true;  ///< false when the deadline/cancellation fired
};

class GraspSolver {
 public:
  explicit GraspSolver(GraspOptions options = {}) : options_(options) {}

  /// Finds a (maximal, not necessarily maximum) k-plex of `graph` (any n).
  Result<MkpSolution> Solve(const Graph& graph, int k);

  const GraspStats& stats() const { return stats_; }

 private:
  GraspOptions options_;
  GraspStats stats_;
};

}  // namespace qplex

#endif  // QPLEX_CLASSICAL_GRASP_H_
