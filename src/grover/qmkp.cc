#include "grover/qmkp.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {

Result<QmkpResult> RunQmkp(const Graph& graph, int k,
                           const QtkpOptions& options,
                           const QmkpProgressCallback& on_progress) {
  obs::TraceSpan span("qmkp");
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("qmkp.runs").Increment();
  obs::Series& threshold_trajectory =
      registry.GetSeries("qmkp.threshold_trajectory");
  obs::Series& best_size_trajectory =
      registry.GetSeries("qmkp.best_size_trajectory");
  obs::Series& success_trajectory =
      registry.GetSeries("qmkp.success_probability_trajectory");
  Stopwatch watch;

  const int n = graph.num_vertices();
  QmkpResult result;
  if (n == 0) {
    return result;
  }

  double success_product = 1.0;
  QtkpOptions probe_options = options;

  int low = 1;
  int high = n;
  int probe_index = 0;
  while (low <= high) {
    if (StopRequested(options.cancel)) {
      result.completed = false;
      break;
    }
    const int mid = low + (high - low) / 2;
    threshold_trajectory.Append(mid);
    // Decorrelate the probes' measurement randomness.
    probe_options.seed = options.seed + 0x9e3779b97f4a7c15ULL *
                                            static_cast<std::uint64_t>(
                                                ++probe_index);
    QPLEX_ASSIGN_OR_RETURN(QtkpResult probe_result,
                           RunQtkp(graph, k, mid, probe_options));

    QmkpProbe probe;
    probe.threshold = mid;
    probe.feasible = probe_result.found;
    probe.found_size = probe_result.found
                           ? static_cast<int>(probe_result.plex.size())
                           : 0;
    probe.oracle_calls = probe_result.oracle_calls;
    probe.gate_cost = probe_result.gate_cost;
    probe.error_probability = probe_result.error_probability;

    result.total_oracle_calls += probe.oracle_calls;
    result.total_gate_cost += probe.gate_cost;

    registry.GetCounter("qmkp.probes").Increment();
    registry.GetCounter("qmkp.oracle_calls").Add(probe.oracle_calls);
    registry.GetCounter("qmkp.gate_cost").Add(probe.gate_cost);
    if (!probe_result.completed) {
      // Stopped mid-probe: no verdict on this threshold, keep the incumbent.
      result.completed = false;
      break;
    }

    if (probe_result.found) {
      registry.GetCounter("qmkp.probes_feasible").Increment();
      // A verified measurement can exceed the probed threshold (the oracle
      // marks *all* plexes of size >= T); exploit it.
      if (probe.found_size > result.best_size) {
        result.best_size = probe.found_size;
        result.best_mask = probe_result.mask;
        result.best_plex = probe_result.plex;
      }
      if (result.first_result_size == 0) {
        result.first_result_gate_cost = result.total_gate_cost;
        result.first_result_size = probe.found_size;
        // The paper's progressiveness claim: when the first verified plex
        // arrived, both in modeled gate cost and in wall-clock time.
        registry.GetGauge("qmkp.first_result_seconds")
            .Set(watch.ElapsedSeconds());
        registry.GetGauge("qmkp.first_result_gate_cost")
            .Set(static_cast<double>(result.first_result_gate_cost));
        registry.GetGauge("qmkp.first_result_size")
            .Set(result.first_result_size);
      }
      // Overall failure accounting: this probe would have been misclassified
      // only if all of its allowed attempts had failed.
      success_product *=
          1.0 - std::pow(probe.error_probability,
                         static_cast<double>(probe_result.attempt_budget));
      low = std::max(mid, result.best_size) + 1;
    } else {
      high = mid - 1;
    }
    result.probes.push_back(probe);
    best_size_trajectory.Append(result.best_size);
    success_trajectory.Append(1.0 - probe.error_probability);
    // Probes are O(log n) per run, so every one is worth a line: this is the
    // live view of the paper's progressive-search claim.
    if (obs::EventsEnabled()) {
      obs::EmitEvent(
          obs::EventLevel::kInfo, "qmkp", "probe",
          {{"threshold", probe.threshold},
           {"feasible", probe.feasible},
           {"found_size", probe.found_size},
           {"best_size", result.best_size},
           {"success_probability", 1.0 - probe.error_probability},
           {"total_oracle_calls", result.total_oracle_calls},
           {"total_gate_cost", result.total_gate_cost},
           {"elapsed_ms", watch.ElapsedMillis()}});
    }
    if (on_progress) {
      on_progress(probe, result);
    }
  }
  result.error_probability = 1.0 - success_product;
  registry.GetGauge("qmkp.best_size").Set(result.best_size);
  registry.GetGauge("qmkp.error_probability").Set(result.error_probability);
  return result;
}

Result<QmkpResult> RunQMaxClique(const Graph& graph,
                                 const QtkpOptions& options) {
  return RunQmkp(graph, /*k=*/1, options);
}

}  // namespace qplex
