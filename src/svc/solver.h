#ifndef QPLEX_SVC_SOLVER_H_
#define QPLEX_SVC_SOLVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "classical/exact.h"
#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"

namespace qplex::svc {

/// One solve job as submitted to the service layer: an instance, a backend
/// name, and the execution envelope (budget, seed, backend knobs). The graph
/// is held by value so a request outlives whatever parsed it and can be
/// executed on any worker thread.
struct SolveRequest {
  Graph graph;
  int k = 2;
  /// Registry name of the backend ("bs", "enum", "grasp", "qmkp", "qtkp",
  /// "sa", "pt", "pia", "hybrid", "milp").
  std::string backend = "bs";
  std::uint64_t seed = 1;
  /// Wall-clock budget measured from *submission* (queue wait counts against
  /// it); <= 0 means unlimited.
  double deadline_seconds = 0;
  /// Backend-specific knobs as string key/values (e.g. {"shots", "50"});
  /// parsed by the adapters with OptionInt/OptionDouble below. Part of the
  /// cache key, so two requests differing only in options never collide.
  std::map<std::string, std::string> options;
  /// Caller-chosen job label, carried into events and trace spans.
  std::string label;
};

/// What a backend adapter reports back to the scheduler.
struct SolveOutcome {
  MkpSolution solution;
  /// False when the run stopped on the deadline or a cancellation and
  /// `solution` is the incumbent at that point.
  bool completed = true;
  /// True when the backend *proved* optimality (exact search ran to
  /// completion / MILP closed the gap). Portfolio mode uses this to cancel
  /// the remaining racers.
  bool provably_optimal = false;
};

/// Execution envelope handed to a backend by the scheduler.
struct SolveContext {
  /// The execution's stop token; may be null. The scheduler passes an
  /// attempt-scoped token linked under the job token, which carries the job
  /// deadline (stamped at submission) and the portfolio's Cancel().
  const CancelToken* cancel = nullptr;
};

/// Per-job accounting the scheduler fills in.
struct SolveMetrics {
  double wall_seconds = 0;   ///< backend execution time (0 on a cache hit)
  double queue_seconds = 0;  ///< submission -> dispatch wait
  bool cache_hit = false;
};

/// The service-level answer for one job.
struct SolveResponse {
  Status status;  ///< Ok, kDeadlineExceeded (incumbent attached), or an error
  MkpSolution solution;
  bool provably_optimal = false;
  /// The backend that produced `solution` (the winning racer in portfolio
  /// mode, or the fallback that absorbed a degraded execution).
  std::string backend;
  /// Scheduler executions of this slot, including the final one: 1 when the
  /// first attempt settled, 1 + retries otherwise.
  int attempts = 1;
  /// Degradation trail: when the requested backend failed with
  /// kResourceExhausted and a registry fallback produced the answer,
  /// `degraded_from` names the originally requested backend and
  /// `degradation_reason` carries its failure. Empty otherwise.
  std::string degraded_from;
  std::string degradation_reason;
  SolveMetrics metrics;
};

/// A uniform solver backend. Implementations must be stateless and
/// re-entrant: the scheduler invokes one instance from many worker threads
/// concurrently, so any per-run state lives inside Solve().
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name; stable, lowercase.
  virtual std::string_view name() const = 0;

  /// Runs the backend on `request.graph` / `request.k`. Honors
  /// `context.cancel` (cancellation and deadline) cooperatively: on a stop
  /// the adapter returns the incumbent with `completed == false` rather than
  /// an error. Hard failures (bad options, unsupported instance) return a
  /// non-OK status.
  virtual Result<SolveOutcome> Solve(const SolveRequest& request,
                                     const SolveContext& context) const = 0;
};

/// Option-map accessors shared by the backend adapters: missing keys yield
/// `fallback`; present-but-malformed values are an InvalidArgument naming the
/// key (a typo'd option must fail the job, not silently run defaults).
Result<int> OptionInt(const SolveRequest& request, std::string_view key,
                      int fallback);
Result<double> OptionDouble(const SolveRequest& request, std::string_view key,
                            double fallback);
Result<std::string> OptionString(const SolveRequest& request,
                                 std::string_view key, std::string fallback);

}  // namespace qplex::svc

#endif  // QPLEX_SVC_SOLVER_H_
