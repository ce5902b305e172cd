// Test-local reference for k-plex enumeration: the plain sweep over all 2^n
// subset masks in ascending order, calling IsKPlexMask on each. It is slow
// but plainly correct; the library's pruned k-plex walk and every solver
// backend are checked against it.

#ifndef QPLEX_TESTS_KPLEX_SWEEP_H_
#define QPLEX_TESTS_KPLEX_SWEEP_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "classical/exact.h"
#include "graph/graph.h"
#include "graph/kplex.h"

namespace qplex::sweep {

/// One strict improvement of the sweep's incumbent: (size, mask).
using Incumbent = std::pair<int, std::uint64_t>;

/// Maximum k-plex by the ascending sweep. The first mask of a strictly
/// larger size wins, so a tie goes to the numerically smallest mask. When
/// `incumbents` is non-null, every strict improvement is appended to it.
inline MkpSolution Maximum(const Graph& graph, int k,
                           std::vector<Incumbent>* incumbents = nullptr) {
  const int n = graph.num_vertices();
  const auto adjacency = AdjacencyMasks(graph);
  MkpSolution best;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    const int size = std::popcount(mask);
    if (size > best.size && IsKPlexMask(adjacency, mask, k)) {
      best.size = size;
      best.mask = mask;
      if (incumbents != nullptr) {
        incumbents->emplace_back(size, mask);
      }
    }
  }
  best.members = MaskToBitset(n, best.mask).ToList();
  return best;
}

/// Every k-plex with at least `threshold` members, in ascending mask order
/// (qTKP's marked set).
inline std::vector<std::uint64_t> Marked(const Graph& graph, int k,
                                         int threshold) {
  const auto adjacency = AdjacencyMasks(graph);
  std::vector<std::uint64_t> marked;
  for (std::uint64_t mask = 0;
       mask < (std::uint64_t{1} << graph.num_vertices()); ++mask) {
    if (std::popcount(mask) >= threshold && IsKPlexMask(adjacency, mask, k)) {
      marked.push_back(mask);
    }
  }
  return marked;
}

/// Number of k-plexes with at least `threshold` members.
inline std::int64_t Count(const Graph& graph, int k, int threshold) {
  return static_cast<std::int64_t>(Marked(graph, k, threshold).size());
}

}  // namespace qplex::sweep

#endif  // QPLEX_TESTS_KPLEX_SWEEP_H_
