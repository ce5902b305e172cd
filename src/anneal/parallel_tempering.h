#ifndef QPLEX_ANNEAL_PARALLEL_TEMPERING_H_
#define QPLEX_ANNEAL_PARALLEL_TEMPERING_H_

#include <cstdint>

#include "anneal/annealer.h"
#include "common/cancel.h"

namespace qplex {

/// Metropolis sweeps each replica runs between replica-exchange rounds.
constexpr int kPtSweepsPerRound = 4;

/// Parallel tempering (replica exchange) over a QUBO: several Metropolis
/// chains at a geometric ladder of temperatures, with periodic
/// configuration swaps between adjacent temperatures. A stronger classical
/// sampler than plain SA on rugged landscapes like the slack-encoded qaMKP
/// objective; used as an ablation baseline.
struct ParallelTemperingOptions {
  int num_replicas = 8;
  /// Replica-exchange rounds; each runs kPtSweepsPerRound sweeps per replica.
  int rounds = 64;
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
