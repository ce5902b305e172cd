#ifndef QPLEX_CLASSICAL_EXACT_H_
#define QPLEX_CLASSICAL_EXACT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

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

/// The one k-plex enumeration kernel (n <= 64, subsets as bit masks). It
/// walks a tree whose nodes are the k-plexes S of the graph. The root is the
/// empty set; the children of S are S + {u} for every vertex u below S's
/// lowest member, taken in ascending order. Being a k-plex is hereditary
/// (every subset of a k-plex is one), so a child that is no k-plex is dropped
/// together with its whole subtree, and a child whose subtree cannot reach
/// the target size (|S| + 1 + u < target) is never tested. Preorder over this
/// tree is ascending mask order: the walk visits k-plexes in the order a
/// plain sweep over all 2^n masks would, minus the subsets it prunes.
class KPlexWalk {
 public:
  /// `adjacency` as from AdjacencyMasks(). The walk polls `cancel`
  /// (cancellation and deadline; may be null) every 4096 tested subsets.
  KPlexWalk(std::vector<std::uint64_t> adjacency, int k,
            const CancelToken* cancel)
      : adjacency_(std::move(adjacency)), k_(k), cancel_(cancel) {}

  /// Calls `visit(mask, size)` on every k-plex with at least `target`
  /// members, in ascending mask order. `visit` returns the target for the
  /// rest of the walk and may raise it (the maximum search asks for one more
  /// than its incumbent). Ends early when the stop token fires.
  template <typename Visit>
  void Run(int target, Visit&& visit) {
    target_ = target;
    if (target_ <= 0) {
      target_ = visit(std::uint64_t{0}, 0);
    }
    Grow(0, 0, static_cast<int>(adjacency_.size()), visit);
  }

  /// Subsets tested for the k-plex property so far: the walk's
  /// deterministic work unit (what `exact.masks_scanned` adds up).
  std::uint64_t tested() const { return tested_; }
  /// False when the stop token ended the walk before it finished.
  bool completed() const { return completed_; }

 private:
  /// Visits the subtree of the k-plex `mask` (`size` members, lowest member
  /// `low`).
  template <typename Visit>
  void Grow(std::uint64_t mask, int size, int low, Visit& visit) {
    for (int u = std::max(0, target_ - size - 1); u < low;
         u = std::max(u + 1, target_ - size - 1)) {
      if ((++tested_ & 0xFFF) == 0 && StopRequested(cancel_)) {
        completed_ = false;
        return;
      }
      if (!Extends(mask, size, u)) {
        continue;
      }
      const std::uint64_t child = mask | (std::uint64_t{1} << u);
      if (size + 1 >= target_) {
        target_ = visit(child, size + 1);
      }
      Grow(child, size + 1, u, visit);
      if (!completed_) {
        return;
      }
    }
  }

  /// True if the k-plex `mask` of `size` members stays one with `u` added.
  /// Only u and its non-neighbours in the set can fall short: every other
  /// member gains a neighbour along with the one extra member it needs.
  bool Extends(std::uint64_t mask, int size, int u) const {
    const int need = size + 1 - k_;
    if (__builtin_popcountll(adjacency_[u] & mask) < need) {
      return false;
    }
    for (std::uint64_t rest = mask & ~adjacency_[u]; rest != 0;
         rest &= rest - 1) {
      if (__builtin_popcountll(adjacency_[__builtin_ctzll(rest)] & mask) <
          need) {
        return false;
      }
    }
    return true;
  }

  const std::vector<std::uint64_t> adjacency_;
  const int k_;
  const CancelToken* const cancel_;
  int target_ = 0;
  std::uint64_t tested_ = 0;
  bool completed_ = true;
};

/// Optional interruption controls for SolveMkpByEnumeration. The walk polls
/// `cancel` (cancellation and deadline; may be null) every 4096 tested
/// subsets; when stopped it returns the best k-plex seen so far (NOT a
/// verified optimum) and sets `*completed` to false.
struct EnumerationControl {
  const CancelToken* cancel = nullptr;
  bool* completed = nullptr;  ///< written when non-null
  /// Invoked on every strict incumbent improvement with the number of
  /// subsets tested so far (the walk's deterministic work unit).
  std::function<void(const MkpSolution& best, std::uint64_t tested)>
      on_incumbent;
};

/// Exact maximum k-plex by the KPlexWalk — the ground truth every other
/// solver (classical and quantum) is validated against. Requires n <= 30;
/// O*(2^n) in the worst case. The incumbents are the first k-plex of each
/// strictly larger size in ascending mask order, so the answer is the
/// numerically smallest mask of maximum size. Adds the tested subsets to
/// `exact.masks_scanned`.
Result<MkpSolution> SolveMkpByEnumeration(const Graph& graph, int k,
                                          const EnumerationControl& control = {});

}  // namespace qplex

#endif  // QPLEX_CLASSICAL_EXACT_H_
