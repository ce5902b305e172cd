#ifndef QPLEX_BENCHMARK_REPLAY_H_
#define QPLEX_BENCHMARK_REPLAY_H_

/// \file
/// The traced run's two sources of layer times.
///
/// FrontReplay re-runs the serve front-end's per-request calls in-process
/// under benchmark-owned spans: framing, parsing, cache key and lookup, and
/// rendering. Everything between admission and the answer (scheduler,
/// adapters, solvers) is taken from the span events the server itself
/// writes to its events file, which ReadServerEvents turns into per-request
/// self times, so the layer times follow the code the server really runs.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "loadgen/workload.h"
#include "svc/cache.h"
#include "svc/solver.h"

namespace qplex::bench {

/// One benchmark-owned span; `name` is net.frame, svc.parse, svc.cache or
/// svc.render.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  double ms() const { return (end_ns - start_ns) * 1e-6; }
};

class FrontReplay {
 public:
  /// Frames and parses request `index`, looks it up in (and on a miss adds
  /// it to) a 256-entry cache like the server's, and renders the answer the
  /// server gave, `served`, which it returns. Fails unless the rendering
  /// equals `served`.
  Result<svc::SolveResponse> Request(const Workload& workload,
                                     std::uint64_t index,
                                     const std::string& served);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  svc::InstanceCache cache_;
  std::vector<Span> spans_;
};

/// One request as the server's events describe it. Times in ms.
struct ServedJob {
  double queue_ms = 0;    ///< job_end queue_seconds: submission -> dispatch
  double attempt_ms = 0;  ///< job_end wall_seconds: backend execution
  double job_ms = 0;      ///< the "job" root span: admission -> merge
  int num_vertices = 0;
  /// Self time (span minus its child spans) per layer. A layer is the span
  /// name, except that qtkp.oracle_eval (the oracle evaluation minus its
  /// oracle.build child) is oracle.eval, qtkp.grover_search is grover.sim,
  /// and the `solve` span of an sa racer, whose own time is the QUBO build,
  /// is qubo.build.
  std::map<std::string, double> self_ms;
  /// Whole length of each racer span, by backend ("racer@bs" -> "bs").
  std::map<std::string, double> racer_ms;
  /// Closed spans per layer (a span event aggregates repeated closes).
  std::map<std::string, std::int64_t> calls;
};

/// What the server left in its events file, keyed by request label.
struct ServerEvents {
  std::unordered_map<std::string, ServedJob> jobs;
  std::int64_t lines = 0;
  std::int64_t bytes = 0;
};

Result<ServerEvents> ReadServerEvents(const std::string& path);

}  // namespace qplex::bench

#endif  // QPLEX_BENCHMARK_REPLAY_H_
