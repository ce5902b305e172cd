#include "anneal/path_integral_annealer.h"

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {
namespace {

/// Inverse temperature of the path-integral ensemble.
constexpr double kBeta = 2.0;
/// Transverse-field schedule per shot: Gamma falls linearly from initial to
/// final across the shot's sweeps (the device's annealing schedule).
constexpr double kGammaInitial = 3.0;
constexpr double kGammaFinal = 0.05;

}  // namespace

Result<AnnealResult> PathIntegralAnnealer::Run(const QuboModel& model) const {
  if (options_.replicas < 2) {
    return Status::InvalidArgument("need at least 2 Trotter replicas");
  }
  if (options_.shots < 1) {
    return Status::InvalidArgument("shots must be positive");
  }
  if (options_.annealing_time_micros <= 0) {
    return Status::InvalidArgument("annealing time must be positive");
  }

  const IsingModel ising = model.ToIsing();
  const int n = model.num_variables();
  const int P = options_.replicas;
  // Annealing time converts to sweeps only up to the device's saturation
  // point; the remainder of a long shot burns budget without improving it.
  const double effective_micros =
      std::min(options_.annealing_time_micros, kSqaSaturationMicros);
  const int sweeps_per_shot = std::max(
      1, static_cast<int>(std::lround(effective_micros * kSqaSweepsPerMicro)));

  // Per-site coupling lists for O(deg) flip deltas.
  std::vector<std::vector<std::pair<int, double>>> neighbors(n);
  for (const auto& [key, weight] : ising.couplings) {
    neighbors[key.first].emplace_back(key.second, weight);
    neighbors[key.second].emplace_back(key.first, weight);
  }

  obs::TraceSpan span("anneal.sqa");
  obs::ProgressHeartbeat heartbeat("anneal.sqa");
  Stopwatch watch;
  AnnealResult result;
  Rng rng(options_.seed);
  std::int64_t flips_accepted = 0;

  std::vector<std::vector<std::int8_t>> spins(
      P, std::vector<std::int8_t>(n, 1));

  for (int shot = 0; shot < options_.shots && result.completed; ++shot) {
    // Fresh random configuration for every replica.
    for (int p = 0; p < P; ++p) {
      for (int i = 0; i < n; ++i) {
        spins[p][i] = (rng.Next() & 1) ? 1 : -1;
      }
    }

    for (int sweep = 0; sweep < sweeps_per_shot; ++sweep) {
      if (StopRequested(options_.cancel)) {
        result.completed = false;
        break;
      }
      // Linear transverse-field decay within the shot.
      const double progress =
          sweeps_per_shot == 1
              ? 1.0
              : static_cast<double>(sweep) / (sweeps_per_shot - 1);
      const double gamma =
          kGammaInitial + progress * (kGammaFinal - kGammaInitial);
      // Ferromagnetic inter-replica coupling J_perp > 0 (stronger as the
      // transverse field decays, freezing the replicas together).
      const double j_perp =
          -0.5 / kBeta * std::log(std::tanh(kBeta * gamma / P));

      for (int p = 0; p < P; ++p) {
        const int prev = (p + P - 1) % P;
        const int next = (p + 1) % P;
        for (int i = 0; i < n; ++i) {
          // Classical part of the flip delta (divided by P: each replica
          // carries 1/P of the classical Hamiltonian).
          double local_field = ising.fields[i];
          for (const auto& [j, weight] : neighbors[i]) {
            local_field += weight * spins[p][j];
          }
          const double delta_classical =
              -2.0 * spins[p][i] * local_field / P;
          // Quantum part: alignment with the neighbouring replicas.
          const double delta_quantum =
              2.0 * j_perp * spins[p][i] *
              (spins[prev][i] + spins[next][i]);
          const double delta = delta_classical + delta_quantum;
          if (delta <= 0 ||
              rng.UniformDouble() < std::exp(-kBeta * delta)) {
            spins[p][i] = static_cast<std::int8_t>(-spins[p][i]);
            ++flips_accepted;
          }
        }
      }
      ++result.sweeps;
    }

    // Read out the best replica of this shot.
    ++result.shots;
    result.modeled_micros += options_.annealing_time_micros;
    QuboSample sample(n);
    double best_shot_energy = 0;
    QuboSample best_shot_sample;
    for (int p = 0; p < P; ++p) {
      for (int i = 0; i < n; ++i) {
        sample[i] = spins[p][i] > 0 ? 1 : 0;
      }
      const double energy = model.Evaluate(sample);
      if (best_shot_sample.empty() || energy < best_shot_energy) {
        best_shot_energy = energy;
        best_shot_sample = sample;
      }
    }
    anneal_internal::RecordSample(model, best_shot_sample,
                                  result.modeled_micros, &result, &heartbeat,
                                  &options_.hooks);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("anneal.sqa.runs").Increment();
  registry.GetCounter("anneal.sqa.shots").Add(result.shots);
  registry.GetCounter("anneal.sqa.sweeps").Add(result.sweeps);
  registry.GetCounter("anneal.sqa.moves_proposed")
      .Add(result.sweeps * static_cast<std::int64_t>(n) * P);
  registry.GetCounter("anneal.sqa.moves_accepted").Add(flips_accepted);
  registry.GetGauge("anneal.sqa.best_energy").SetMin(result.best_energy);
  return result;
}

}  // namespace qplex
