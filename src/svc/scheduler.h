#ifndef QPLEX_SVC_SCHEDULER_H_
#define QPLEX_SVC_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "resilience/breaker.h"
#include "resilience/retry.h"
#include "svc/cache.h"
#include "svc/registry.h"
#include "svc/solver.h"

namespace qplex::svc {

/// Retry policy applied by the scheduler to transient failures
/// (kInternal: a backend threw or flaked). See DESIGN.md section 10 for the
/// full failure taxonomy.
struct RetryOptions {
  /// Per-job retry budget beyond the first attempt; shared by portfolio
  /// racers. 0 disables retries.
  int max_retries = 2;
  /// Decorrelated-jitter backoff between attempts. The delay sequence is a
  /// pure function of (job id, slot, attempt), so retry schedules are
  /// deterministic and safe to assert on.
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 100.0;
};

/// Scheduler configuration.
struct JobSchedulerOptions {
  /// Worker threads executing jobs (>= 1). Solvers that parallelize
  /// internally (qmkp --threads) degrade gracefully: nested ParallelFor
  /// calls inside a pool task run inline, so worker x solver threads never
  /// oversubscribe.
  int num_workers = 4;
  /// Admission bound on queued backend executions (a portfolio job occupies
  /// one slot per racer). Submissions beyond it are rejected with
  /// kResourceExhausted — backpressure, not unbounded buffering. Retry
  /// re-enqueues bypass the bound: an admitted job may always finish.
  std::size_t queue_capacity = 64;
  /// Result cache toggle.
  bool enable_cache = true;
  RetryOptions retry;
  /// Latency objective per job in milliseconds; 0 disables SLO accounting.
  /// When set, every completed job ticks svc.slo.ok or svc.slo.breaches
  /// (admission-to-merge latency vs the objective) and the objective itself
  /// is published as the svc.slo.objective_ms gauge.
  double slo_latency_ms = 0;
  /// Per-backend circuit breakers (DESIGN.md section 15), on exactly when
  /// `breaker.failure_threshold > 0`. Off by default (threshold 0) so
  /// library users and historical baselines keep exact semantics; the serve
  /// front-ends arm them with --breaker-threshold. When armed, every
  /// backend execution consults its breaker first: an open breaker
  /// short-circuits the execution with kResourceExhausted, which the
  /// degradable-failure path turns into a fallback-chain walk — so a serially
  /// failing backend is skipped across requests, not rediscovered by each
  /// one.
  resilience::BreakerOptions breaker;
  /// Wedged-job watchdog stall budget in milliseconds; 0 disables. Progress
  /// is measured on a work axis — CancelToken heartbeat polls from the
  /// running backend — so a backend that computes without polling for longer
  /// than the budget is cancelled (attempt-scoped; the job survives),
  /// classified degradable, and falls back well before the job deadline.
  double watchdog_stall_ms = 0;
  /// Watchdog scan cadence in milliseconds (>= 1 when the watchdog is on).
  double watchdog_poll_ms = 5;
};

using JobId = std::int64_t;

/// Bounded multi-threaded job scheduler over a SolverRegistry, built on the
/// shared ThreadPool primitive. Lifecycle of a job:
///
///   Submit/SubmitPortfolio  -> queued (deadline clock starts NOW)
///   worker picks it up      -> cache lookup, then backend execution with
///                              the remaining budget + the job's CancelToken
///   last racer finishes     -> responses merged, waiters woken, job_end
///                              event emitted
///
/// Portfolio jobs race several backends on the same instance; as soon as one
/// racer returns a *provably optimal* answer the job's CancelToken fires and
/// the remaining racers stop at their next poll. The merged winner is chosen
/// by a deterministic rule — (provably optimal, size, backend list position)
/// — so the reported *size* is reproducible; the member set follows the
/// winning racer and may legitimately differ between timing-dependent races
/// when several backends tie (see DESIGN.md section 9).
///
/// Every execution records svc.* metrics (queue wait, wall time, per-backend
/// job/failure counters, cache hit/miss) and runs under an "svc.job" trace
/// span.
///
/// Resilience (DESIGN.md section 10): backend executions run behind a
/// catch-all exception barrier (a throwing backend becomes a per-job
/// Internal status). Transient failures are retried with decorrelated-jitter
/// backoff on a different worker, up to the per-job retry budget;
/// kResourceExhausted walks the registry fallback chain (qtkp→bs, qmkp→bs,
/// milp→grasp) and surfaces the degradation trail in the response.
///
/// Health (DESIGN.md section 15): with a breaker threshold, per-backend circuit
/// breakers remember failures across jobs and short-circuit a serially
/// failing backend straight onto its fallback chain; with a watchdog stall
/// budget, a wedged execution (no CancelToken heartbeat) is cancelled
/// attempt-scoped and degrades the same way.
class JobScheduler {
 public:
  /// `registry` must outlive the scheduler.
  explicit JobScheduler(const SolverRegistry* registry,
                        JobSchedulerOptions options = {});

  /// Drains queued jobs, then stops the workers. Jobs not Wait()ed on are
  /// still executed (their responses are discarded).
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a single-backend job. Fails with kResourceExhausted when the
  /// queue is at capacity (callers retry after draining) and
  /// kInvalidArgument for an unknown backend or empty portfolio.
  Result<JobId> Submit(SolveRequest request);

  /// Enqueues one job racing every backend in `backends` (request.backend is
  /// ignored). All racers share the job's deadline and CancelToken.
  Result<JobId> SubmitPortfolio(SolveRequest request,
                                std::vector<std::string> backends);

  /// Blocks until the job completes and consumes its response; a second Wait
  /// on the same id returns kInvalidArgument.
  SolveResponse Wait(JobId id);

  /// Non-blocking completion probe for event-loop callers (the socket serve
  /// loop multiplexes many jobs on one thread and can never block in Wait).
  /// When the job has finished, consumes its response exactly like Wait()
  /// and returns true; returns false while it is still queued or running.
  /// An unknown or already-consumed id returns true with an InvalidArgument
  /// response.
  bool TryWait(JobId id, SolveResponse* response);

  /// Requests cooperative cancellation; the job still completes through
  /// Wait() with its incumbent.
  void Cancel(JobId id);

  /// Queued backend executions not yet picked up (diagnostic).
  std::size_t QueueDepth() const;

  /// Snapshots of every circuit breaker consulted so far (empty when
  /// breakers are disabled), sorted by backend name; feeds the serve health
  /// response.
  std::vector<resilience::BreakerSnapshot> BreakerSnapshots() const;

  /// Breakers currently open (0 when disabled).
  int OpenBreakerCount() const;

  /// Backend executions cancelled by the wedged-job watchdog so far.
  std::int64_t WatchdogKills() const;

  bool breakers_enabled() const { return breakers_ != nullptr; }

 private:
  struct Job {
    /// The token's deadline clock starts at construction — submission — so
    /// queue wait counts against the caller's budget: a job stuck behind a
    /// full queue times out rather than running arbitrarily late.
    explicit Job(SolveRequest job_request)
        : request(std::move(job_request)),
          cancel(Deadline::After(request.deadline_seconds)) {}

    JobId id = 0;
    SolveRequest request;
    std::vector<std::string> backends;
    Stopwatch submitted;
    /// Job-level stop: the request deadline plus portfolio/caller Cancel().
    /// Attempt tokens link under it.
    CancelToken cancel;
    /// Shared per-job retry budget, decremented as retries are scheduled.
    std::atomic<int> retries_left{0};

    std::mutex mutex;
    std::condition_variable done_cv;
    int remaining = 0;
    bool started = false;
    bool done = false;
    /// Set by the first Wait() under `mutex`; a second Wait is an error.
    bool consumed = false;
    std::vector<SolveResponse> responses;
    SolveResponse merged;
    /// Filled by MergeResponses: the winning racer's plex size minus the best
    /// losing racer's (0 for single-backend jobs). Deterministic because the
    /// merge rule is; surfaced on the job_end event for race analytics.
    int winner_margin = 0;
  };

  struct SubTask {
    std::shared_ptr<Job> job;
    int slot = 0;      ///< index into job->backends
    int attempt = 1;   ///< 1 on first execution, +1 per retry
    /// Worker that failed the previous attempt; the retry prefers any other
    /// worker (best-effort: with one worker, or when only excluded tasks are
    /// queued, the excluded worker still takes it — no idling, no deadlock).
    int excluded_worker = -1;
  };

  /// One backend execution watched by the wedged-job watchdog. Registered
  /// for exactly the duration of the GuardedSolve call; the watchdog thread
  /// cancels `attempt_cancel` (never the job token) when the heartbeat stops
  /// advancing for the stall budget.
  struct WatchEntry {
    JobId job_id = 0;
    std::string label;
    std::string backend;
    int attempt = 1;
    CancelToken* attempt_cancel = nullptr;
    std::uint64_t last_polls = 0;
    double stalled_ms = 0;
    bool killed = false;
  };

  /// Outcome of one guarded, breaker-consulted, watchdog-monitored backend
  /// execution.
  struct Execution {
    Result<SolveOutcome> outcome = Status::Internal("unreached");
    bool short_circuited = false;  ///< breaker open: backend never ran
  };

  Result<JobId> Enqueue(SolveRequest request,
                        std::vector<std::string> backends);
  void WorkerLoop(int worker);
  void Execute(const SubTask& task, int worker);
  /// Wait() and TryWait(): takes the job's merged response once it is done
  /// (blocking for it when `block`) and forgets the job. Returns false only
  /// when !block and the job is still running; an unknown or consumed id
  /// yields an InvalidArgument response.
  bool TakeResponse(JobId id, bool block, SolveResponse* response);
  /// Runs one backend (cache-aware); never blocks on other jobs.
  SolveResponse RunBackend(Job& job, const std::string& backend, int attempt);
  /// The execution step shared by a slot's first execution and each
  /// fallback hop: the budget check, ExecuteGuarded under a "solve" span,
  /// the per-backend failure tick, and the wall time. Returns the failure,
  /// or OK after writing the solution into `response` (with status
  /// DeadlineExceeded for a stopped-early incumbent). A `fallback` hop says
  /// "fallback" in the budget message, runs under a fallback@<backend> span
  /// and records svc.phase.fallback_wall_ms instead of svc.job_wall_seconds;
  /// a hop the budget stops before it starts records neither.
  Status RunHop(Job& job, const std::string& backend, int attempt,
                bool fallback, SolveResponse* response);
  /// Consults the backend's circuit breaker, runs GuardedSolve under an
  /// attempt-scoped CancelToken registered with the watchdog, converts a
  /// watchdog kill into a degradable kResourceExhausted, and records the
  /// outcome back into the breaker.
  Execution ExecuteGuarded(Job& job, const std::string& backend, int attempt);
  /// Executes one backend behind the catch-all exception barrier (plus the
  /// solver_throw/solver_slow/solver_stall fault-injection sites): a
  /// throwing backend becomes Status::Internal naming the backend and
  /// what(), never a process death.
  Result<SolveOutcome> GuardedSolve(Job& job, const std::string& backend,
                                    CancelToken& attempt_cancel);
  /// Watchdog bookkeeping: returns 0 when the watchdog is disabled.
  std::uint64_t RegisterWatch(Job& job, const std::string& backend,
                              int attempt, CancelToken* attempt_cancel);
  /// Removes the entry and reports whether the watchdog killed it.
  bool UnregisterWatch(std::uint64_t watch_id);
  void WatchdogLoop();
  /// Runs the hops of SolverRegistry::FallbackChain(backend) after `backend`
  /// failed degradably with `failure`, until one answers or fails for good;
  /// fills the degradation trail in `response`.
  SolveResponse RunFallbackChain(Job& job, const std::string& backend,
                                 SolveResponse response, Status failure);
  /// Called for a transient failure: true when retry budget remains and the
  /// job deadline has not expired; consumes one unit of the budget.
  bool ConsumeRetryBudget(Job& job);
  /// Records metrics/events, sleeps the deterministic backoff delay, and
  /// re-enqueues the task for a different worker.
  void ScheduleRetry(const SubTask& task, int worker, const Status& failure);
  /// Deterministic portfolio merge; called with job.mutex held after the
  /// last racer finished.
  static void MergeResponses(Job* job);

  const SolverRegistry* registry_;
  JobSchedulerOptions options_;
  std::unique_ptr<InstanceCache> cache_;
  std::unique_ptr<resilience::BreakerBoard> breakers_;

  /// num_workers - 1 threads: the dispatcher runs the remaining loop.
  ThreadPool pool_;
  /// Runs pool_.Run with one long-lived WorkerLoop task per worker; joined
  /// on shutdown.
  std::thread dispatcher_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<SubTask> queue_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  JobId next_id_ = 1;
  bool shutdown_ = false;

  /// Watchdog state. watch_mutex_ guards watches_; the watchdog thread emits
  /// its kill event and cancels the attempt token while holding it, so a
  /// kill event always precedes the killed job's job_end in the stream.
  std::thread watchdog_thread_;
  std::atomic<bool> watchdog_stop_{false};
  mutable std::mutex watch_mutex_;
  std::map<std::uint64_t, WatchEntry> watches_;
  std::uint64_t next_watch_id_ = 1;
  std::atomic<std::int64_t> watchdog_kills_{0};
};

}  // namespace qplex::svc

#endif  // QPLEX_SVC_SCHEDULER_H_
