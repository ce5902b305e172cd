#include "classical/exact.h"

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
  MkpSolution best;
  obs::TraceSpan span("exact.enumerate");
  KPlexWalk walk(AdjacencyMasks(graph), k, control.cancel);
  walk.Run(1, [&](std::uint64_t mask, int size) {
    best.size = size;
    best.mask = mask;
    if (control.on_incumbent) {
      best.members = MaskToBitset(n, best.mask).ToList();
      control.on_incumbent(best, walk.tested());
    }
    return size + 1;
  });
  if (control.completed != nullptr) {
    *control.completed = walk.completed();
  }
  best.members = MaskToBitset(n, best.mask).ToList();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("exact.enumerations").Increment();
  registry.GetCounter("exact.masks_scanned")
      .Add(static_cast<std::int64_t>(walk.tested()));
  return best;
}

}  // namespace qplex
