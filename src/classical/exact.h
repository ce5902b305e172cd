#ifndef QPLEX_CLASSICAL_EXACT_H_
#define QPLEX_CLASSICAL_EXACT_H_

#include <cstdint>
#include <functional>

#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// A maximum k-plex answer.
struct MkpSolution {
  VertexList members;
  int size = 0;
  std::uint64_t mask = 0;  ///< subset mask (valid when all members are < 64)
};

/// Rebuilds `solution.mask` from `solution.members` (sorted ascending). The
/// mask stays zero when any member id is >= 64 — callers on larger graphs
/// read `members` instead.
void FillSolutionMask(MkpSolution& solution);

/// Optional interruption controls for the enumeration scan. The scan polls
/// `cancel` (cancellation and deadline; may be null) every 4096 masks; when
/// stopped it returns the best subset seen so far (NOT a verified optimum)
/// and sets `*completed` to false.
struct EnumerationControl {
  const CancelToken* cancel = nullptr;
  bool* completed = nullptr;  ///< written when non-null
  /// Invoked on every strict incumbent improvement with the number of masks
  /// scanned so far (the scan's deterministic work unit).
  std::function<void(const MkpSolution& best, std::uint64_t masks_scanned)>
      on_incumbent;
};

/// Exhaustive maximum k-plex over all 2^n subsets — the ground truth every
/// other solver (classical and quantum) is validated against. Requires
/// n <= 30; O*(2^n).
Result<MkpSolution> SolveMkpByEnumeration(const Graph& graph, int k,
                                          const EnumerationControl& control = {});

/// Exhaustive count of k-plexes with size >= threshold (the Grover M).
/// Polls `control` like SolveMkpByEnumeration; when interrupted it returns
/// the partial count with `*control.completed` set to false
/// (`control.on_incumbent` does not apply to counting and is ignored).
Result<std::int64_t> CountKPlexesOfSize(const Graph& graph, int k,
                                        int threshold,
                                        const EnumerationControl& control = {});

}  // namespace qplex

#endif  // QPLEX_CLASSICAL_EXACT_H_
