#ifndef QPLEX_ANNEAL_PATH_INTEGRAL_ANNEALER_H_
#define QPLEX_ANNEAL_PATH_INTEGRAL_ANNEALER_H_

#include <cstdint>

#include "anneal/annealer.h"
#include "common/cancel.h"

namespace qplex {

/// How many Monte Carlo sweeps one microsecond of annealing maps to; the
/// calibration constant of the substitution, documented in EXPERIMENTS.md.
constexpr double kSqaSweepsPerMicro = 8.0;

/// Device saturation: single-shot quality on physical annealers stops
/// improving beyond a short annealing time at these problem sizes (the
/// paper's Table VI finding — 1 us anneals already saturate); annealing time
/// past this point consumes budget without adding sweeps.
constexpr double kSqaSaturationMicros = 2.0;

/// Simulated quantum annealing (path-integral Monte Carlo over Trotter
/// replicas with a decaying transverse field) — qplex's stand-in for the
/// D-Wave Advantage QPU that runs qaMKP in the paper. The knobs mirror the
/// physical device's interface: an annealing time per shot (Delta-t) and a
/// shot count s, with total modeled runtime t = Delta-t * s (Section V,
/// "Annealing time of qaMKP").
struct PathIntegralAnnealerOptions {
  /// Trotter replicas approximating the quantum system.
  int replicas = 16;
  /// Annealing time per shot in microseconds (the paper's Delta-t). It maps
  /// to kSqaSweepsPerMicro sweeps per microsecond up to kSqaSaturationMicros.
  double annealing_time_micros = 1.0;
  int shots = 100;
  /// Optional stop token (cancellation and deadline); may be null. Polled
  /// every Trotter sweep; on a stop the incumbent is returned with
  /// `completed == false`.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
  /// Observer callbacks (best-energy improvements); all optional.
  AnnealHooks hooks;
};

class PathIntegralAnnealer {
 public:
  explicit PathIntegralAnnealer(PathIntegralAnnealerOptions options = {})
      : options_(options) {}

  /// Minimizes `model`. Each shot anneals `replicas` coupled copies and
  /// reports the best replica; the anytime trace advances by Delta-t per
  /// shot.
  Result<AnnealResult> Run(const QuboModel& model) const;

 private:
  PathIntegralAnnealerOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_ANNEAL_PATH_INTEGRAL_ANNEALER_H_
