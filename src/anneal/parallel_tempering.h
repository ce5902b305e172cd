#ifndef QPLEX_ANNEAL_PARALLEL_TEMPERING_H_
#define QPLEX_ANNEAL_PARALLEL_TEMPERING_H_

#include <cstdint>

#include "anneal/annealer.h"
#include "common/cancel.h"

namespace qplex {

/// Parallel tempering (replica exchange) over a QUBO: several Metropolis
/// chains at a geometric ladder of temperatures, with periodic
/// configuration swaps between adjacent temperatures. A stronger classical
/// sampler than plain SA on rugged landscapes like the slack-encoded qaMKP
/// objective; used as an ablation baseline.
struct ParallelTemperingOptions {
  int num_replicas = 8;
  double beta_min = 0.05;
  double beta_max = 8.0;
  /// Sweeps between replica-exchange rounds.
  int sweeps_per_round = 4;
  int rounds = 64;
  /// Modeled micros one sweep accounts for (for the anytime trace).
  double micros_per_sweep = 1.0;
  /// Optional stop token (cancellation and deadline); may be null. Polled
  /// every replica sweep; on a stop the incumbent is returned with
  /// `completed == false`.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
  /// Observer callbacks (best-energy improvements); all optional.
  AnnealHooks hooks;
};

class ParallelTempering {
 public:
  explicit ParallelTempering(ParallelTemperingOptions options = {})
      : options_(options) {}

  Result<AnnealResult> Run(const QuboModel& model) const;

 private:
  ParallelTemperingOptions options_;
};

}  // namespace qplex

#endif  // QPLEX_ANNEAL_PARALLEL_TEMPERING_H_
