#include "anneal/parallel_tempering.h"

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// Ends of the geometric inverse-temperature ladder.
constexpr double kBetaMin = 0.05;
constexpr double kBetaMax = 8.0;

}  // namespace

Result<AnnealResult> ParallelTempering::Run(const QuboModel& model) const {
  if (options_.num_replicas < 2) {
    return Status::InvalidArgument("need at least 2 replicas");
  }
  if (options_.rounds < 1) {
    return Status::InvalidArgument("rounds must be positive");
  }

  obs::TraceSpan span("anneal.pt");
  obs::ProgressHeartbeat heartbeat("anneal.pt");
  const int n = model.num_variables();
  const int R = options_.num_replicas;
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t moves_accepted = 0;
  std::int64_t swaps_accepted = 0;

  // Geometric beta ladder: replica 0 hottest, R-1 coldest.
  std::vector<double> betas(R);
  const double ratio = std::pow(kBetaMax / kBetaMin, 1.0 / (R - 1));
  betas[0] = kBetaMin;
  for (int r = 1; r < R; ++r) {
    betas[r] = betas[r - 1] * ratio;
  }

  std::vector<QuboSample> replicas;
  std::vector<double> energies;
  replicas.reserve(R);
  for (int r = 0; r < R; ++r) {
    replicas.push_back(anneal_internal::RandomSample(n, rng));
    energies.push_back(model.Evaluate(replicas.back()));
  }

  for (int round = 0; round < options_.rounds && result.completed; ++round) {
    // Metropolis sweeps per replica at its own temperature.
    for (int r = 0; r < R && result.completed; ++r) {
      for (int sweep = 0; sweep < kPtSweepsPerRound; ++sweep) {
        if (StopRequested(options_.cancel)) {
          result.completed = false;
          break;
        }
        for (int i = 0; i < n; ++i) {
          const double delta = model.FlipDelta(replicas[r], i);
          if (delta <= 0 ||
              rng.UniformDouble() < std::exp(-betas[r] * delta)) {
            replicas[r][i] ^= 1;
            energies[r] += delta;
            ++moves_accepted;
          }
        }
        ++result.sweeps;
      }
    }
    // Replica-exchange: swap adjacent temperatures with the Metropolis
    // acceptance exp((beta_a - beta_b)(E_a - E_b)).
    for (int r = 0; r + 1 < R; ++r) {
      const double log_accept =
          (betas[r] - betas[r + 1]) * (energies[r] - energies[r + 1]);
      if (log_accept >= 0 || rng.UniformDouble() < std::exp(log_accept)) {
        std::swap(replicas[r], replicas[r + 1]);
        std::swap(energies[r], energies[r + 1]);
        ++swaps_accepted;
      }
    }
    result.modeled_micros += kMicrosPerSweep * kPtSweepsPerRound * R;
    // Record the coldest replica (and implicitly the global best).
    anneal_internal::RecordSample(model, replicas[R - 1],
                                  result.modeled_micros, &result, &heartbeat,
                                  &options_.hooks);
  }
  result.shots = options_.rounds;
  result.wall_seconds = watch.ElapsedSeconds();
  if (obs::EventsEnabled()) {
    // Final replica ladder: one event with the per-replica beta/energy
    // vectors, so the convergence view can show where each temperature
    // ended up and how mobile the ladder was (swap acceptance).
    obs::JsonValue beta_array = obs::JsonValue::Array();
    obs::JsonValue energy_array = obs::JsonValue::Array();
    for (int r = 0; r < R; ++r) {
      beta_array.Append(betas[r]);
      energy_array.Append(energies[r]);
    }
    obs::EmitEvent(obs::EventLevel::kInfo, "anneal.pt", "replicas",
                   {{"trace", std::string(obs::CurrentTraceToken())},
                    {"betas", std::move(beta_array)},
                    {"energies", std::move(energy_array)},
                    {"rounds", options_.rounds},
                    {"swaps_accepted", swaps_accepted},
                    {"completed", result.completed}});
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.pt.runs").Increment();
  registry.GetCounter("anneal.pt.rounds").Add(options_.rounds);
  registry.GetCounter("anneal.pt.sweeps").Add(result.sweeps);
  registry.GetCounter("anneal.pt.moves_proposed")
      .Add(result.sweeps * static_cast<std::int64_t>(n));
  registry.GetCounter("anneal.pt.moves_accepted").Add(moves_accepted);
  registry.GetCounter("anneal.pt.swap_attempts")
      .Add(static_cast<std::int64_t>(options_.rounds) * (R - 1));
  registry.GetCounter("anneal.pt.swaps_accepted").Add(swaps_accepted);
  registry.GetGauge("anneal.pt.best_energy").SetMin(result.best_energy);
  return result;
}

}  // namespace qplex
