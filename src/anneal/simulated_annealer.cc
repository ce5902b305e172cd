#include "anneal/simulated_annealer.h"

#include <cmath>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// First inverse temperature of every shot's geometric schedule.
constexpr double kBetaInitial = 0.1;

}  // namespace

Result<AnnealResult> SimulatedAnnealer::Run(const QuboModel& model) const {
  if (options_.shots < 1 || options_.sweeps_per_shot < 1) {
    return Status::InvalidArgument("shots and sweeps must be positive");
  }
  if (options_.beta_final < kBetaInitial) {
    return Status::InvalidArgument("beta_final must be at least 0.1");
  }
  obs::TraceSpan span("anneal.sa");
  obs::ProgressHeartbeat heartbeat("anneal.sa");
  const int n = model.num_variables();
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t moves_accepted = 0;  // flushed to the registry once at the end

  // Geometric beta ladder shared by every shot.
  std::vector<double> betas(options_.sweeps_per_shot);
  const double ratio =
      options_.sweeps_per_shot == 1
          ? 1.0
          : std::pow(options_.beta_final / kBetaInitial,
                     1.0 / (options_.sweeps_per_shot - 1));
  double beta = kBetaInitial;
  for (int s = 0; s < options_.sweeps_per_shot; ++s) {
    betas[s] = beta;
    beta *= ratio;
  }

  for (int shot = 0; shot < options_.shots && result.completed; ++shot) {
    QuboSample sample = anneal_internal::RandomSample(n, rng);
    for (int sweep = 0; sweep < options_.sweeps_per_shot; ++sweep) {
      if (StopRequested(options_.cancel)) {
        result.completed = false;
        break;
      }
      const double b = betas[sweep];
      for (int i = 0; i < n; ++i) {
        const double delta = model.FlipDelta(sample, i);
        if (delta <= 0 || rng.UniformDouble() < std::exp(-b * delta)) {
          sample[i] ^= 1;
          ++moves_accepted;
        }
      }
      ++result.sweeps;
    }
    ++result.shots;
    result.modeled_micros += kMicrosPerSweep * options_.sweeps_per_shot;
    anneal_internal::RecordSample(model, sample, result.modeled_micros,
                                  &result, &heartbeat, &options_.hooks);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.sa.runs").Increment();
  registry.GetCounter("anneal.sa.shots").Add(result.shots);
  registry.GetCounter("anneal.sa.sweeps").Add(result.sweeps);
  registry.GetCounter("anneal.sa.moves_proposed")
      .Add(result.sweeps * static_cast<std::int64_t>(n));
  registry.GetCounter("anneal.sa.moves_accepted").Add(moves_accepted);
  registry.GetGauge("anneal.sa.best_energy").SetMin(result.best_energy);
  return result;
}

}  // namespace qplex
