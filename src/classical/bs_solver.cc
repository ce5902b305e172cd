#include "classical/bs_solver.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "classical/reduce.h"
#include "graph/bitgraph.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// Greedy initial lower bound: repeatedly grow a plex from each seed vertex
/// by adding the highest-degree compatible candidate.
template <typename Engine>
MkpSolution GreedyKPlex(const Graph& graph, const Engine& engine, int k) {
  const int n = graph.num_vertices();
  MkpSolution best;
  typename Engine::Set best_set = engine.Empty();
  for (Vertex seed = 0; seed < n; ++seed) {
    typename Engine::Set chosen = engine.Empty();
    Engine::Add(chosen, seed);
    int size = 1;
    bool grew = true;
    while (grew) {
      grew = false;
      Vertex pick = -1;
      int pick_degree = -1;
      for (Vertex v = 0; v < n; ++v) {
        if (Engine::Test(chosen, v) ||
            !CanExtendPlex(engine, chosen, size, v, k)) {
          continue;
        }
        if (graph.Degree(v) > pick_degree) {
          pick = v;
          pick_degree = graph.Degree(v);
        }
      }
      if (pick >= 0) {
        Engine::Add(chosen, pick);
        ++size;
        grew = true;
      }
    }
    if (size > best.size) {
      best.size = size;
      best_set = chosen;
    }
  }
  best.members = Engine::ToList(best_set);
  FillSolutionMask(best);
  return best;
}

template <typename Engine>
MkpSolution RunGreedy(const Graph& graph, int k) {
  Engine engine(graph);
  return GreedyKPlex(graph, engine, k);
}

/// Translates a search-graph solution back to the caller's vertex ids.
MkpSolution MapToOriginal(const MkpSolution& solution,
                          const std::vector<Vertex>* new_to_old) {
  MkpSolution mapped;
  mapped.size = solution.size;
  for (Vertex v : solution.members) {
    mapped.members.push_back(new_to_old != nullptr ? (*new_to_old)[v] : v);
  }
  std::sort(mapped.members.begin(), mapped.members.end());
  FillSolutionMask(mapped);
  return mapped;
}

struct BranchOutcome {
  MkpSolution best;
  bool aborted = false;
};

/// The recursive branch-and-search core, templated over the kernel engine so
/// the same pruning logic runs single-word on small search graphs and
/// multi-word beyond 64 vertices.
template <typename Engine>
class BranchSearcher {
 public:
  using Set = typename Engine::Set;

  BranchSearcher(const Engine& engine, int k, const BsSolverOptions& options,
                 BsSolverStats& stats)
      : engine_(engine), k_(k), options_(options), stats_(stats) {}

  MkpSolution best;
  std::function<void(const MkpSolution&, const BsSolverStats&)>
      report_incumbent;

  bool aborted() const { return aborted_; }

  void Branch(const Set& chosen, const Set& candidates) {
    if (aborted_) {
      return;
    }
    ++stats_.branch_nodes;
    if ((stats_.branch_nodes & 0x3FF) == 0) {
      if (StopRequested(options_.cancel)) {
        aborted_ = true;
        return;
      }
      if (heartbeat_.Due()) {
        heartbeat_.Emit({{"branch_nodes", stats_.branch_nodes},
                         {"best_size", best.size},
                         {"prunes_bound", stats_.prunes_bound},
                         {"prunes_infeasible", stats_.prunes_infeasible}});
      }
    }

    const int size = Engine::Count(chosen);
    if (size > best.size) {
      best.size = size;
      best.members = Engine::ToList(chosen);
      FillSolutionMask(best);
      if (report_incumbent) {
        report_incumbent(best, stats_);
      }
    }

    // Filter candidates: v may join only if P + v is still a k-plex, and a v
    // that fails now can never recover (its deficit only grows as P grows).
    Set filtered = engine_.Empty();
    Engine::ForEach(Engine::AndNot(candidates, chosen), [&](Vertex v) {
      if (CanExtendPlex(engine_, chosen, size, v, k_)) {
        Engine::Add(filtered, v);
      } else {
        ++stats_.prunes_infeasible;
      }
    });

    if (Engine::None(filtered)) {
      return;
    }

    // Size bound.
    int upper = size + Engine::Count(filtered);
    // Degree-support bound: any extension P* satisfies, for every u in P,
    // |P*| <= deg_P(u) + deg_C(u) + k.
    if (options_.use_support_bound) {
      Engine::ForEach(chosen, [&](Vertex u) {
        upper = std::min(upper, engine_.DegreeIn(u, chosen) +
                                    engine_.DegreeIn(u, filtered) + k_);
      });
    }
    if (upper <= best.size) {
      ++stats_.prunes_bound;
      return;
    }

    // Branch on the candidate with the highest connectivity into P + C (the
    // "most constrained first" rule of branch-and-search solvers).
    Vertex pick = -1;
    int pick_score = -1;
    const Set pool = Engine::Or(chosen, filtered);
    Engine::ForEach(filtered, [&](Vertex v) {
      const int score = engine_.DegreeIn(v, pool);
      if (score > pick_score) {
        pick = v;
        pick_score = score;
      }
    });
    Set rest = filtered;
    Engine::Remove(rest, pick);
    Set with_pick = chosen;
    Engine::Add(with_pick, pick);
    Branch(with_pick, rest);
    Branch(chosen, rest);
  }

 private:
  const Engine& engine_;
  int k_;
  const BsSolverOptions& options_;
  BsSolverStats& stats_;
  bool aborted_ = false;
  obs::ProgressHeartbeat heartbeat_{"bs"};
};

template <typename Engine>
BranchOutcome RunBranchSearch(
    const Graph& search_graph, int k, int seed_size,
    const BsSolverOptions& options, BsSolverStats& stats,
    std::function<void(const MkpSolution&, const BsSolverStats&)>
        report_incumbent) {
  Engine engine(search_graph);
  BranchSearcher<Engine> searcher(engine, k, options, stats);
  // Seed the bound with the incumbent size (solution members live in
  // different id spaces, so only the size transfers).
  searcher.best.size = seed_size;
  searcher.report_incumbent = std::move(report_incumbent);
  searcher.Branch(engine.Empty(), engine.Full());
  return {std::move(searcher.best), searcher.aborted()};
}

}  // namespace

Result<MkpSolution> BsSolver::Solve(const Graph& graph, int k) {
  const int n = graph.num_vertices();
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  obs::TraceSpan span("bs.solve");
  stats_ = BsSolverStats{};
  Stopwatch watch;

  MkpSolution best;
  if (n == 0) {
    return best;
  }

  best = n <= 64 ? RunGreedy<MaskEngine>(graph, k)
                 : RunGreedy<WideEngine>(graph, k);
  if (options_.on_incumbent && best.size > 0) {
    options_.on_incumbent(best, stats_);
  }
  if (options_.on_bound) {
    // The trivial bound before any pruning: every vertex could be in the plex.
    options_.on_bound(n, stats_);
  }

  // Reduce the graph for "strictly better than the greedy bound" and search
  // the reduced instance; the greedy incumbent survives as the fallback.
  const Graph* search_graph = &graph;
  ReductionResult reduction;
  if (options_.use_reduction) {
    obs::TraceSpan reduce_span("bs.reduce");
    reduction = ReduceForTarget(graph, k, best.size + 1);
    search_graph = &reduction.reduced;
    obs::MetricsRegistry::Global()
        .GetCounter("bs.reduction_removed_vertices")
        .Add(n - reduction.reduced.num_vertices());
    if (options_.on_bound) {
      // Survivors of the reduction bound any plex beating the incumbent.
      options_.on_bound(
          std::max(best.size, reduction.reduced.num_vertices()), stats_);
    }
  }

  const std::vector<Vertex>* new_to_old =
      options_.use_reduction ? &reduction.new_to_old : nullptr;
  std::function<void(const MkpSolution&, const BsSolverStats&)> report;
  if (options_.on_incumbent) {
    report = [this, new_to_old](const MkpSolution& reduced_solution,
                                const BsSolverStats& stats) {
      options_.on_incumbent(MapToOriginal(reduced_solution, new_to_old),
                            stats);
    };
  }

  BranchOutcome outcome;
  if (search_graph->num_vertices() > 0) {
    obs::TraceSpan branch_span("bs.branch");
    outcome = search_graph->num_vertices() <= 64
                  ? RunBranchSearch<MaskEngine>(*search_graph, k, best.size,
                                                options_, stats_,
                                                std::move(report))
                  : RunBranchSearch<WideEngine>(*search_graph, k, best.size,
                                                options_, stats_,
                                                std::move(report));
  }

  stats_.elapsed_seconds = watch.ElapsedSeconds();
  stats_.completed = !outcome.aborted;

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("bs.solves").Increment();
  registry.GetCounter("bs.branch_nodes").Add(stats_.branch_nodes);
  registry.GetCounter("bs.prunes_bound").Add(stats_.prunes_bound);
  registry.GetCounter("bs.prunes_infeasible").Add(stats_.prunes_infeasible);
  if (outcome.aborted) {
    registry.GetCounter("bs.deadline_hits").Increment();
  }

  if (outcome.best.size > best.size && !outcome.best.members.empty()) {
    best = MapToOriginal(outcome.best, new_to_old);
  }

  if (outcome.aborted) {
    // Stop token fired; report the incumbent through stats_ and a soft error.
    return best;
  }
  if (options_.on_bound) {
    // Search exhausted: the incumbent is optimal, so the bound meets it.
    options_.on_bound(best.size, stats_);
  }
  return best;
}

}  // namespace qplex
