#include "classical/exact.h"

#include <bit>

#include "graph/kplex.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {

void FillSolutionMask(MkpSolution& solution) {
  solution.mask = 0;
  if (solution.members.empty() || solution.members.back() >= 64) {
    return;
  }
  for (Vertex v : solution.members) {
    solution.mask |= std::uint64_t{1} << v;
  }
}

Result<MkpSolution> SolveMkpByEnumeration(const Graph& graph, int k,
                                          const EnumerationControl& control) {
  const int n = graph.num_vertices();
  if (n > 30) {
    return Status::InvalidArgument("enumeration limited to n <= 30");
  }
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (control.completed != nullptr) {
    *control.completed = true;
  }
  MkpSolution best;
  if (n == 0) {
    return best;
  }
  obs::TraceSpan span("exact.enumerate");
  const auto adjacency = AdjacencyMasks(graph);
  const std::uint64_t space = std::uint64_t{1} << n;
  std::uint64_t scanned = space;
  for (std::uint64_t mask = 0; mask < space; ++mask) {
    if ((mask & 0xFFF) == 0 && mask != 0 && StopRequested(control.cancel)) {
      if (control.completed != nullptr) {
        *control.completed = false;
      }
      scanned = mask;
      break;
    }
    const int size = std::popcount(mask);
    if (size > best.size && IsKPlexMask(adjacency, mask, k)) {
      best.size = size;
      best.mask = mask;
      if (control.on_incumbent) {
        best.members = MaskToBitset(n, best.mask).ToList();
        control.on_incumbent(best, mask + 1);
      }
    }
  }
  best.members = MaskToBitset(n, best.mask).ToList();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("exact.enumerations").Increment();
  registry.GetCounter("exact.masks_scanned")
      .Add(static_cast<std::int64_t>(scanned));
  return best;
}

Result<std::int64_t> CountKPlexesOfSize(const Graph& graph, int k,
                                        int threshold,
                                        const EnumerationControl& control) {
  const int n = graph.num_vertices();
  if (n > 30) {
    return Status::InvalidArgument("enumeration limited to n <= 30");
  }
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (control.completed != nullptr) {
    *control.completed = true;
  }
  obs::TraceSpan span("exact.count");
  const auto adjacency = AdjacencyMasks(graph);
  const std::uint64_t space = std::uint64_t{1} << n;
  std::uint64_t scanned = space;
  std::int64_t count = 0;
  for (std::uint64_t mask = 0; mask < space; ++mask) {
    if ((mask & 0xFFF) == 0 && mask != 0 && StopRequested(control.cancel)) {
      if (control.completed != nullptr) {
        *control.completed = false;
      }
      scanned = mask;
      break;
    }
    if (std::popcount(mask) >= threshold && IsKPlexMask(adjacency, mask, k)) {
      ++count;
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("exact.counts").Increment();
  registry.GetCounter("exact.masks_scanned")
      .Add(static_cast<std::int64_t>(scanned));
  return count;
}

}  // namespace qplex
