#include "classical/grasp.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/bitgraph.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// All vertices that may individually join `chosen` keeping it a k-plex.
template <typename Engine>
std::vector<Vertex> CompatibleCandidates(const Engine& engine,
                                         const typename Engine::Set& chosen,
                                         int k) {
  const int size = Engine::Count(chosen);
  std::vector<Vertex> candidates;
  for (Vertex v = 0; v < engine.n; ++v) {
    if (Engine::Test(chosen, v)) {
      continue;
    }
    if (CanExtendPlex(engine, chosen, size, v, k)) {
      candidates.push_back(v);
    }
  }
  return candidates;
}

/// Pollable stop predicate threaded through the construction and local
/// search loops so service deadlines and portfolio cancellations interrupt
/// GRASP mid-iteration, not just between iterations.
using StopFn = std::function<bool()>;

/// Randomized greedy construction: repeatedly pick uniformly among the
/// top-alpha candidates ranked by degree into (chosen | candidates).
template <typename Engine>
typename Engine::Set Construct(const Engine& engine, int k, double alpha,
                               Rng& rng, const StopFn& stop) {
  typename Engine::Set chosen = engine.Empty();
  Engine::Add(chosen,
              static_cast<Vertex>(
                  rng.UniformInt(static_cast<std::uint64_t>(engine.n))));
  for (;;) {
    if (stop()) {
      return chosen;
    }
    std::vector<Vertex> candidates = CompatibleCandidates(engine, chosen, k);
    if (candidates.empty()) {
      return chosen;
    }
    std::sort(candidates.begin(), candidates.end(), [&](Vertex a, Vertex b) {
      return engine.Degree(a) > engine.Degree(b);
    });
    const std::size_t list_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(alpha * candidates.size() + 0.999));
    Engine::Add(chosen,
                candidates[rng.UniformInt(
                    static_cast<std::uint64_t>(list_size))]);
  }
}

/// Local search: try dropping each member and greedily refilling; accept the
/// first strict improvement, repeat until none. Refill picks a maximum-degree
/// candidate, breaking degree ties with one RNG draw per tied refill step so
/// low-index vertices are not systematically favoured; the RNG is seeded from
/// GraspOptions::seed, so runs stay deterministic per seed.
template <typename Engine>
typename Engine::Set LocalSearch(const Engine& engine, int k,
                                 typename Engine::Set chosen, Rng& rng,
                                 const StopFn& stop) {
  std::vector<Vertex> ties;
  bool improved = true;
  while (improved) {
    improved = false;
    const VertexList members = Engine::ToList(chosen);
    for (Vertex drop : members) {
      if (stop()) {
        return chosen;
      }
      typename Engine::Set trial = chosen;
      Engine::Remove(trial, drop);
      // Greedy refill (pure greedy: alpha 0 behaviour).
      for (;;) {
        const std::vector<Vertex> candidates =
            CompatibleCandidates(engine, trial, k);
        if (candidates.empty()) {
          break;
        }
        int best_degree = -1;
        ties.clear();
        for (Vertex v : candidates) {
          const int degree = engine.Degree(v);
          if (degree > best_degree) {
            best_degree = degree;
            ties.clear();
          }
          if (degree == best_degree) {
            ties.push_back(v);
          }
        }
        const Vertex refill =
            ties.size() == 1
                ? ties.front()
                : ties[rng.UniformInt(static_cast<std::uint64_t>(ties.size()))];
        Engine::Add(trial, refill);
      }
      if (Engine::Count(trial) > Engine::Count(chosen)) {
        chosen = std::move(trial);
        improved = true;
        break;
      }
    }
  }
  return chosen;
}

template <typename Engine>
MkpSolution RunGrasp(const Graph& graph, int k, const GraspOptions& options,
                     GraspStats& stats) {
  Engine engine(graph);
  Rng rng(options.seed);
  const StopFn stop = [&options] { return StopRequested(options.cancel); };
  MkpSolution best;
  typename Engine::Set best_set = engine.Empty();
  for (int iteration = 0; iteration < options.iterations; ++iteration) {
    if (stop()) {
      stats.completed = false;
      break;
    }
    typename Engine::Set plex = Construct(engine, k, options.alpha, rng, stop);
    plex = LocalSearch(engine, k, std::move(plex), rng, stop);
    const int size = Engine::Count(plex);
    if (size > best.size) {
      best.size = size;
      best_set = std::move(plex);
      ++stats.improvements;
      if (options.on_incumbent) {
        best.members = Engine::ToList(best_set);
        FillSolutionMask(best);
        options.on_incumbent(best, iteration + 1);
      }
    }
    ++stats.iterations_run;
  }
  best.members = Engine::ToList(best_set);
  FillSolutionMask(best);
  return best;
}

}  // namespace

Result<MkpSolution> GraspSolver::Solve(const Graph& graph, int k) {
  const int n = graph.num_vertices();
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options_.iterations < 1 ||
      !(options_.alpha >= 0 && options_.alpha <= 1)) {
    return Status::InvalidArgument("bad GRASP options");
  }
  stats_ = GraspStats{};
  MkpSolution best;
  if (n == 0) {
    return best;
  }
  obs::TraceSpan span("grasp.solve");
  best = n <= 64 ? RunGrasp<MaskEngine>(graph, k, options_, stats_)
                 : RunGrasp<WideEngine>(graph, k, options_, stats_);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grasp.solves").Increment();
  registry.GetCounter("grasp.iterations").Add(stats_.iterations_run);
  registry.GetCounter("grasp.improvements").Add(stats_.improvements);
  registry.GetGauge("grasp.best_size").SetMax(best.size);
  if (obs::EventsEnabled()) {
    // End-of-run restart roll-up: how many restarts ran and how many paid off
    // — the GRASP-family convergence signal beyond the incumbent timeline.
    obs::EmitEvent(obs::EventLevel::kInfo, "grasp", "restart_stats",
                   {{"trace", std::string(obs::CurrentTraceToken())},
                    {"iterations_run", stats_.iterations_run},
                    {"improvements", stats_.improvements},
                    {"best_size", best.size},
                    {"completed", stats_.completed}});
  }
  return best;
}

}  // namespace qplex
