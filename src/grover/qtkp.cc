#include "grover/qtkp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "classical/exact.h"
#include "common/rng.h"
#include "graph/kplex.h"
#include "grover/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/statevector.h"

namespace qplex {
namespace {

/// Residual misclassification probability the known-M retry budget aims
/// below.
constexpr double kTargetError = 1e-6;

/// The classical check of a measured subset: a k-plex with at least
/// `threshold` vertices. The predicate backend marks exactly these subsets.
bool IsPlexOfSize(const std::vector<std::uint64_t>& adjacency, int k,
                  int threshold, std::uint64_t mask) {
  return __builtin_popcountll(mask) >= threshold &&
         IsKPlexMask(adjacency, mask, k);
}

/// Computes the marked set (all k-plexes of size >= T, ascending) with the
/// requested backend, together with the per-call oracle cost model.
struct OracleEvaluation {
  std::vector<std::uint64_t> marked;
  std::int64_t oracle_cost = 0;
  OracleCostReport costs;
  /// False when the stop token ended the predicate walk: `marked` is partial.
  bool completed = true;
};

Result<OracleEvaluation> EvaluateOracle(const Graph& graph, int k,
                                        int threshold,
                                        const QtkpOptions& options) {
  obs::TraceSpan span("qtkp.oracle_eval");
  OracleEvaluation eval;
  // The circuit is always built: even the predicate backend reports the
  // faithful hardware cost model of one oracle call.
  QPLEX_ASSIGN_OR_RETURN(MkpOracle oracle,
                         MkpOracle::Build(graph, k, threshold, options.oracle));
  eval.oracle_cost = oracle.circuit().TotalCost();
  eval.costs = oracle.CostReport();
  switch (options.backend) {
    case OracleBackend::kCircuit:
      eval.marked = oracle.MarkedStates();
      break;
    case OracleBackend::kPredicate: {
      KPlexWalk walk(AdjacencyMasks(graph), k, options.cancel);
      walk.Run(threshold, [&eval, threshold](std::uint64_t mask, int) {
        eval.marked.push_back(mask);
        return threshold;
      });
      eval.completed = walk.completed();
      break;
    }
  }
  return eval;
}

/// Flushes one finished qTKP search into the global registry on scope exit
/// (the search has several success/failure return paths). Runs after
/// `return result;` has moved the result out, so it may only read scalar
/// fields (which the defaulted move leaves intact), never `plex`.
struct QtkpMetricsScope {
  const QtkpResult& result;

  ~QtkpMetricsScope() {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("qtkp.searches").Increment();
    registry.GetCounter("qtkp.attempts").Add(result.attempts);
    registry.GetCounter("qtkp.oracle_calls").Add(result.oracle_calls);
    registry.GetCounter("qtkp.gate_cost").Add(result.gate_cost);
    if (result.found) {
      registry.GetCounter("qtkp.found").Increment();
    }
    registry.GetHistogram("qtkp.iterations_per_attempt")
        .Record(static_cast<double>(result.iterations));
    registry.GetGauge("qtkp.error_probability").Set(result.error_probability);
  }
};

}  // namespace

Result<QtkpResult> RunQtkp(const Graph& graph, int k, int threshold,
                           const QtkpOptions& options) {
  obs::TraceSpan span("qtkp");
  const int n = graph.num_vertices();
  if (n < 1 || n > StateVectorSimulator::kMaxQubits) {
    return Status::InvalidArgument("qTKP simulation requires 1 <= n <= " +
                                   std::to_string(
                                       StateVectorSimulator::kMaxQubits));
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  QPLEX_RETURN_IF_ERROR(CheckSimulationBudget(n));
  // A stopped run builds no oracle: the evaluation is its costliest step.
  QtkpResult result;
  if (StopRequested(options.cancel)) {
    result.completed = false;
    return result;
  }
  QPLEX_ASSIGN_OR_RETURN(OracleEvaluation eval,
                         EvaluateOracle(graph, k, threshold, options));
  if (!eval.completed) {
    result.completed = false;
    return result;
  }
  result.num_solutions = static_cast<std::int64_t>(eval.marked.size());
  result.oracle_costs = eval.costs;
  QtkpMetricsScope metrics_scope{result};
  obs::TraceSpan search_span("qtkp.grover_search");

  const auto adjacency = AdjacencyMasks(graph);
  Rng rng(options.seed);
  GroverSimulation grover(n, eval.marked, options.threads);
  const std::int64_t iteration_cost = eval.oracle_cost + DiffusionCost(n);

  std::function<int()> next_iterations;
  if (options.use_bbht) {
    // Boyer–Brassard–Høyer–Tapp: for unknown M, draw the iteration count
    // uniformly from a geometrically growing window. Expected oracle calls
    // stay O(sqrt(N / M)).
    double window = 1.0;
    const double max_window = std::sqrt(std::pow(2.0, n));
    // The budget must be reported even on this path: qMKP's overall error
    // accounting raises the per-attempt failure probability to it, and a
    // zero budget would claim certain failure (x^0 = 1) for every probe.
    result.attempt_budget = options.max_attempts * 8;
    next_iterations = [&rng, window, max_window]() mutable {
      const int iterations = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(std::ceil(window))));
      window = std::min(window * 1.2, max_window);
      return iterations;
    };
  } else {
    // Known-M schedule (quantum counting gives M; in simulation it is exact).
    result.iterations = OptimalGroverIterations(n, result.num_solutions);
    // Retry budget: enough verified attempts to push the residual failure
    // probability below kTargetError (the paper's "run c times" argument).
    result.attempt_budget = options.max_attempts;
    if (result.num_solutions > 0) {
      const double single_error = 1.0 - TheoreticalSuccessProbability(
                                            n, result.num_solutions,
                                            result.iterations);
      if (single_error > 0) {
        const int needed = static_cast<int>(
            std::ceil(std::log(kTargetError) / std::log(single_error)));
        // At least max_attempts, and capped at 64 — unless the caller asked
        // for more than 64, which raises the cap (std::clamp requires
        // lo <= hi, so clamping to a fixed 64 is UB for max_attempts > 64).
        result.attempt_budget =
            std::clamp(needed, options.max_attempts,
                       std::max(options.max_attempts, 64));
      }
    }
    next_iterations = [&result] { return result.iterations; };
  }

  const VerifiedAttempts run = grover.RunAttempts(
      rng, result.attempt_budget, next_iterations,
      [&](std::uint64_t sample) {
        return IsPlexOfSize(adjacency, k, threshold, sample);
      },
      [&options] { return StopRequested(options.cancel); });
  result.completed = !run.stopped;
  result.attempts = run.attempts;
  result.oracle_calls = run.oracle_calls;
  result.gate_cost =
      std::int64_t{n} * run.attempts + run.oracle_calls * iteration_cost;
  // Exact failure probability of the last attempt. On the known-M path it is
  // the same for every attempt; under BBHT the last random rotation's value
  // stands in as the per-attempt error of the whole search.
  result.error_probability = 1.0 - grover.SuccessProbability();
  if (options.use_bbht) {
    result.iterations = run.iterations;
  }
  if (run.found) {
    result.found = true;
    result.mask = run.sample;
    result.plex = MaskToBitset(n, run.sample).ToList();
  }
  return result;  // found == false: M == 0 or every attempt failed
}

}  // namespace qplex
