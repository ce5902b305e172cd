#include "anneal/hybrid_solver.h"

#include <algorithm>
#include <cmath>

#include "anneal/simulated_annealer.h"
#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// Sweeps of each inner SA restart.
constexpr int kSweepsPerRestart = 64;

}  // namespace

int SteepestDescent(const QuboModel& model, QuboSample* sample) {
  QPLEX_CHECK(sample != nullptr &&
              static_cast<int>(sample->size()) == model.num_variables())
      << "sample arity mismatch";
  int flips = 0;
  for (;;) {
    int best_var = -1;
    double best_delta = -1e-12;  // strict improvement only
    for (int i = 0; i < model.num_variables(); ++i) {
      const double delta = model.FlipDelta(*sample, i);
      if (delta < best_delta) {
        best_delta = delta;
        best_var = i;
      }
    }
    if (best_var < 0) {
      return flips;
    }
    (*sample)[best_var] ^= 1;
    ++flips;
  }
}

Result<AnnealResult> HybridSolver::Run(const QuboModel& model) const {
  obs::TraceSpan span("anneal.hybrid");
  obs::ProgressHeartbeat heartbeat("anneal.hybrid");
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t polish_flips = 0;
  std::int64_t basin_hops = 0;

  SimulatedAnnealerOptions sa_options;
  sa_options.sweeps_per_shot = kSweepsPerRestart;
  sa_options.shots = 1;
  sa_options.beta_final = 8.0;
  sa_options.cancel = options_.cancel;

  while (result.modeled_micros < kHybridMinRuntimeMicros &&
         result.shots < options_.max_restarts) {
    if (StopRequested(options_.cancel)) {
      result.completed = false;
      break;
    }
    sa_options.seed = rng.Next();
    SimulatedAnnealer annealer(sa_options);
    QPLEX_ASSIGN_OR_RETURN(AnnealResult restart, annealer.Run(model));
    if (!restart.completed) {
      result.completed = false;
    }
    QuboSample polished = restart.best_sample;
    int flips = SteepestDescent(model, &polished);
    if (options_.refine) {
      options_.refine(&polished);
      flips += SteepestDescent(model, &polished);
    }
    polish_flips += flips;
    result.sweeps += restart.sweeps + flips;  // polish counted as sweeps
    result.modeled_micros +=
        restart.modeled_micros + flips * kMicrosPerSweep;
    ++result.shots;
    anneal_internal::RecordSample(model, polished, result.modeled_micros,
                                  &result, &heartbeat, &options_.hooks);
    if (!result.completed) {
      break;  // budget exhausted mid-restart; keep the polished incumbent
    }

    // Basin hopping around the incumbent: perturb a few bits of the best
    // sample and re-polish. This is the "classical supercomputing" half of
    // the hybrid service's portfolio.
    QuboSample hop = result.best_sample;
    const int kicks = 2 + static_cast<int>(rng.UniformInt(3));
    for (int kick = 0; kick < kicks; ++kick) {
      hop[rng.UniformInt(static_cast<std::uint64_t>(hop.size()))] ^= 1;
    }
    int hop_flips = SteepestDescent(model, &hop);
    if (options_.refine) {
      options_.refine(&hop);
      hop_flips += SteepestDescent(model, &hop);
    }
    polish_flips += hop_flips;
    ++basin_hops;
    result.sweeps += hop_flips;
    result.modeled_micros += hop_flips * kMicrosPerSweep;
    anneal_internal::RecordSample(model, hop, result.modeled_micros, &result,
                                  &heartbeat, &options_.hooks);
  }
  // The service returns no earlier than its runtime floor.
  result.modeled_micros =
      std::max(result.modeled_micros, kHybridMinRuntimeMicros);
  if (!result.trace.empty()) {
    result.trace.back().budget_micros = result.modeled_micros;
  }
  result.wall_seconds = watch.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.hybrid.runs").Increment();
  registry.GetCounter("anneal.hybrid.restarts").Add(result.shots);
  registry.GetCounter("anneal.hybrid.basin_hops").Add(basin_hops);
  registry.GetCounter("anneal.hybrid.polish_flips").Add(polish_flips);
  registry.GetGauge("anneal.hybrid.best_energy").SetMin(result.best_energy);
  return result;
}

}  // namespace qplex
