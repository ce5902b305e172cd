#ifndef QPLEX_GROVER_QTKP_H_
#define QPLEX_GROVER_QTKP_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "oracle/mkp_oracle.h"

namespace qplex {

/// How qTKP's marked set is obtained.
enum class OracleBackend {
  /// Execute the literal constructed oracle circuit on every basis state,
  /// bit-sliced: 64 basis states per word op, stopping at the oracle flip
  /// (faithful; what the experiments use at paper scale).
  kCircuit,
  /// Enumerate the k-plexes of size >= T with the classical KPlexWalk
  /// (identical results — proven by tests — but much faster; used for wide
  /// parameter sweeps).
  kPredicate,
};

/// Options shared by qTKP and qMKP.
struct QtkpOptions {
  OracleBackend backend = OracleBackend::kCircuit;
  MkpOracleOptions oracle;
  /// Minimum measurement attempts per search; each failed measurement is
  /// detected by the classical verification step and the search is re-run
  /// (the "run c times" error-reduction of Section V-A). With M known the
  /// per-attempt failure probability is known exactly, so qTKP keeps
  /// retrying until the residual misclassification probability drops below
  /// 1e-6 (capped at 64 attempts). Retries are cheap: over-rotated probes
  /// (large M) use very few Grover iterations.
  int max_attempts = 3;
  /// When true, use the Boyer–Brassard–Høyer–Tapp schedule for unknown M
  /// instead of quantum counting + the optimal iteration count. The attempt
  /// budget on this path is 8 * max_attempts random-iteration probes.
  bool use_bbht = false;
  /// Threads used by the state-vector kernels (diffusion, oracle kickback,
  /// measurement CDF). Affects wall-clock only: amplitudes, measurements and
  /// every counter are bit-identical for any thread count.
  int threads = 1;
  /// Optional stop token (cancellation and deadline); may be null. qTKP
  /// polls it before it builds its oracle, every 4096 tested subsets of the
  /// predicate backend's walk and once per Grover attempt; qMKP also once
  /// per binary-search probe. A stopped run returns its incumbent with
  /// `completed == false`.
  const CancelToken* cancel = nullptr;
  std::uint64_t seed = 0x9b1ec5d1ce4e5b9ULL;
};

/// Outcome of one qTKP run (Algorithm 2).
struct QtkpResult {
  /// Whether a verified k-plex of size >= T was measured.
  bool found = false;
  /// False when the stop token ended the search before an attempt; a
  /// stopped search that found nothing says nothing about the threshold.
  bool completed = true;
  /// The measured subset (only meaningful when found).
  std::uint64_t mask = 0;
  VertexList plex;

  /// Number of marked states M (known exactly in simulation; the paper
  /// estimates it with quantum counting).
  std::int64_t num_solutions = 0;
  /// Grover iterations per attempt.
  int iterations = 0;
  /// Attempts actually used.
  int attempts = 0;
  /// Attempts that would have been allowed (the failure-probability bound is
  /// error_probability ^ attempt_budget).
  int attempt_budget = 0;
  /// Exact probability that a single attempt fails to measure a solution.
  double error_probability = 0.0;

  /// Oracle invocations across all attempts (iterations summed).
  std::int64_t oracle_calls = 0;
  /// Modeled quantum gate cost: per iteration, oracle circuit cost plus the
  /// diffusion operator; plus the initial Hadamard layer per attempt.
  std::int64_t gate_cost = 0;
  /// Stage-level costs of one oracle call.
  OracleCostReport oracle_costs;
};

/// Runs qTKP: finds a k-plex of size at least `threshold` in `graph`, or
/// reports found=false. Requires n <= StateVectorSimulator::kMaxQubits.
Result<QtkpResult> RunQtkp(const Graph& graph, int k, int threshold,
                           const QtkpOptions& options);

}  // namespace qplex

#endif  // QPLEX_GROVER_QTKP_H_
