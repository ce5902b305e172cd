#include "svc/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault_injection.h"
#include "svc/graph_hash.h"

namespace qplex::svc {
namespace {

/// Joins backend names for event payloads ("bs+enum+sa").
std::string JoinBackends(const std::vector<std::string>& backends) {
  std::string joined;
  for (const std::string& name : backends) {
    if (!joined.empty()) {
      joined += "+";
    }
    joined += name;
  }
  return joined;
}

std::string MembersToString(const VertexList& members) {
  std::string joined;
  for (Vertex v : members) {
    if (!joined.empty()) {
      joined += " ";
    }
    joined += std::to_string(v);
  }
  return joined;
}

}  // namespace

JobScheduler::JobScheduler(const SolverRegistry* registry,
                           JobSchedulerOptions options)
    : registry_(registry),
      options_(options),
      pool_(std::max(1, options.num_workers) - 1) {
  QPLEX_CHECK(registry_ != nullptr) << "scheduler needs a registry";
  options_.num_workers = std::max(1, options_.num_workers);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  if (options_.enable_cache) {
    constexpr std::size_t kCacheCapacity = 256;
    cache_ = std::make_unique<InstanceCache>(kCacheCapacity);
  }
  if (options_.breaker.failure_threshold > 0) {
    breakers_ = std::make_unique<resilience::BreakerBoard>(options_.breaker);
  }
  if (options_.watchdog_stall_ms > 0) {
    options_.watchdog_poll_ms = std::max(1.0, options_.watchdog_poll_ms);
    obs::MetricsRegistry::Global()
        .GetGauge("svc.watchdog.stall_budget_ms")
        .Set(options_.watchdog_stall_ms);
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  // One long-lived WorkerLoop task per worker, hosted on the shared
  // ThreadPool primitive. The dispatcher thread is the batch's blocking
  // caller and runs one of the loops itself, so the pool holds one thread
  // fewer than there are workers (none for a single worker: Run inlines).
  dispatcher_ = std::thread([this] {
    pool_.Run(options_.num_workers,
              [this](int worker) { WorkerLoop(worker); });
  });
}

JobScheduler::~JobScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
  // The watchdog outlives the workers so a wedged execution can still be
  // released during drain; by this point every watch entry is unregistered.
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
}

Result<JobId> JobScheduler::Submit(SolveRequest request) {
  std::vector<std::string> backends{request.backend};
  return Enqueue(std::move(request), std::move(backends));
}

Result<JobId> JobScheduler::SubmitPortfolio(SolveRequest request,
                                            std::vector<std::string> backends) {
  return Enqueue(std::move(request), std::move(backends));
}

Result<JobId> JobScheduler::Enqueue(SolveRequest request,
                                    std::vector<std::string> backends) {
  auto& registry = obs::MetricsRegistry::Global();
  if (backends.empty()) {
    return Status::InvalidArgument("job needs at least one backend");
  }
  for (const std::string& name : backends) {
    if (registry_->Get(name) == nullptr) {
      return Status::InvalidArgument("unknown backend: " + name);
    }
  }
  auto job = std::make_shared<Job>(std::move(request));
  const std::size_t num_racers = backends.size();
  job->backends = std::move(backends);
  job->remaining = static_cast<int>(num_racers);
  job->retries_left.store(options_.retry.max_retries,
                          std::memory_order_relaxed);
  job->responses.resize(num_racers);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return Status::FailedPrecondition("scheduler is shutting down");
    }
    if (queue_.size() + num_racers > options_.queue_capacity) {
      registry.GetCounter("svc.jobs.rejected").Increment();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_.size()) + "/" +
          std::to_string(options_.queue_capacity) + "); retry after a Wait");
    }
    job->id = next_id_++;
    jobs_.emplace(job->id, job);
    for (std::size_t slot = 0; slot < num_racers; ++slot) {
      queue_.push_back(SubTask{job, static_cast<int>(slot)});
    }
  }
  work_cv_.notify_all();
  registry.GetCounter("svc.jobs.submitted").Increment();
  if (num_racers > 1) {
    registry.GetCounter("svc.portfolio.jobs").Increment();
  }
  return job->id;
}

SolveResponse JobScheduler::Wait(JobId id) {
  SolveResponse response;
  TakeResponse(id, /*block=*/true, &response);
  return response;
}

bool JobScheduler::TryWait(JobId id, SolveResponse* response) {
  return TakeResponse(id, /*block=*/false, response);
}

bool JobScheduler::TakeResponse(JobId id, bool block,
                                SolveResponse* response) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = jobs_.find(id); it != jobs_.end()) {
      job = it->second;
    }
  }
  bool taken = false;
  if (job != nullptr) {
    // The job stays in jobs_ until the wait completes so that Cancel() keeps
    // working on a job that is being waited on — qplex_serve's signal
    // handler cancels in-flight jobs exactly while the batch loop blocks
    // here.
    std::unique_lock<std::mutex> lock(job->mutex);
    if (!block && !job->done) {
      return false;
    }
    if (!job->consumed) {
      job->consumed = true;
      job->done_cv.wait(lock, [&] { return job->done; });
      *response = std::move(job->merged);
      taken = true;
    }
  }
  if (!taken) {
    response->status = Status::InvalidArgument(
        "unknown or already-consumed job id " + std::to_string(id));
    return true;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.erase(id);
  return true;
}

void JobScheduler::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) {
    it->second->cancel.Cancel();
  }
}

std::size_t JobScheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::vector<resilience::BreakerSnapshot> JobScheduler::BreakerSnapshots()
    const {
  if (breakers_ == nullptr) {
    return {};
  }
  return breakers_->Snapshots();
}

int JobScheduler::OpenBreakerCount() const {
  if (breakers_ == nullptr) {
    return 0;
  }
  return breakers_->OpenCount();
}

std::int64_t JobScheduler::WatchdogKills() const {
  return watchdog_kills_.load(std::memory_order_relaxed);
}

std::uint64_t JobScheduler::RegisterWatch(Job& job, const std::string& backend,
                                          int attempt,
                                          CancelToken* attempt_cancel) {
  if (options_.watchdog_stall_ms <= 0) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(watch_mutex_);
  const std::uint64_t id = next_watch_id_++;
  WatchEntry& entry = watches_[id];
  entry.job_id = job.id;
  entry.label = job.request.label;
  entry.backend = backend;
  entry.attempt = attempt;
  entry.attempt_cancel = attempt_cancel;
  entry.last_polls = attempt_cancel->polls();
  return id;
}

bool JobScheduler::UnregisterWatch(std::uint64_t watch_id) {
  if (watch_id == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(watch_mutex_);
  const auto it = watches_.find(watch_id);
  if (it == watches_.end()) {
    return false;
  }
  const bool killed = it->second.killed;
  watches_.erase(it);
  return killed;
}

void JobScheduler::WatchdogLoop() {
  auto& registry = obs::MetricsRegistry::Global();
  Stopwatch since_scan;
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options_.watchdog_poll_ms));
    const double elapsed_ms = since_scan.ElapsedMillis();
    since_scan.Restart();
    std::lock_guard<std::mutex> lock(watch_mutex_);
    for (auto& [id, entry] : watches_) {
      if (entry.killed) {
        continue;
      }
      const std::uint64_t polls = entry.attempt_cancel->polls();
      if (polls != entry.last_polls) {
        entry.last_polls = polls;
        entry.stalled_ms = 0;
        continue;
      }
      entry.stalled_ms += elapsed_ms;
      if (entry.stalled_ms < options_.watchdog_stall_ms) {
        continue;
      }
      entry.killed = true;
      watchdog_kills_.fetch_add(1, std::memory_order_relaxed);
      registry.GetCounter("svc.watchdog.kills").Increment();
      registry.GetCounter("svc.watchdog." + entry.backend + ".kills")
          .Increment();
      if (obs::EventsEnabled()) {
        registry.GetCounter("svc.events.payloads_built").Increment();
        // Emitted before Cancel() below, while the wedged execution is still
        // blocked: the kill event therefore always precedes the job's
        // job_end, the ordering qplex_obs validates. Fields are configured
        // budgets and counts only — nothing wall-clock-derived — so
        // single-worker chaos runs replay byte-identically.
        obs::EmitEvent(
            obs::EventLevel::kWarn, "svc", "watchdog_kill",
            {{"trace",
              obs::IdHex(obs::DeriveTraceId(entry.label, entry.job_id))},
             {"job", static_cast<std::int64_t>(entry.job_id)},
             {"backend", entry.backend},
             {"attempt", entry.attempt},
             {"stall_budget_ms", options_.watchdog_stall_ms},
             {"heartbeats", static_cast<std::int64_t>(polls)}});
      }
      entry.attempt_cancel->Cancel();
    }
  }
}

void JobScheduler::WorkerLoop(int worker) {
  while (true) {
    SubTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown requested and the queue is drained
      }
      // A retry prefers a worker other than the one that just failed it;
      // when every queued task excludes this worker, take the front anyway
      // (an excluded task must never be stranded behind an idle worker).
      auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const SubTask& t) { return t.excluded_worker != worker; });
      if (it == queue_.end()) {
        it = queue_.begin();
      }
      task = *it;
      queue_.erase(it);
    }
    Execute(task, worker);
  }
}

void JobScheduler::Execute(const SubTask& task, int worker) {
  Job& job = *task.job;
  const std::string& backend = job.backends[task.slot];
  auto& registry = obs::MetricsRegistry::Global();

  bool emit_start = false;
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    if (!job.started) {
      job.started = true;
      emit_start = true;
    }
  }
  // One trace per job, derived (not allocated) so every racer/attempt/worker
  // recomputes the same id without shared state.
  const std::uint64_t trace_id = obs::DeriveTraceId(job.request.label, job.id);
  if (emit_start && obs::EventsEnabled()) {
    registry.GetCounter("svc.events.payloads_built").Increment();
    obs::EmitEvent(obs::EventLevel::kInfo, "svc", "job_start",
                   {{"trace", obs::IdHex(trace_id)},
                    {"job", static_cast<std::int64_t>(job.id)},
                    {"label", job.request.label},
                    {"backends", JoinBackends(job.backends)},
                    {"k", job.request.k},
                    {"num_vertices", job.request.graph.num_vertices()}});
  }

  SolveResponse response;
  {
    // This racer execution's trace root: it flushes the execution's span
    // events when it closes, after a retry decision and its backoff.
    obs::TraceSpan racer_span(trace_id, "racer", backend);
    {
      obs::TraceSpan attempt_span(obs::kRequestOnly, "attempt",
                                  std::to_string(task.attempt));
      Stopwatch attempt_watch;
      response = RunBackend(job, backend, task.attempt);
      registry.GetHistogram("svc.phase.attempt_wall_ms")
          .Record(attempt_watch.ElapsedMillis());
    }
    response.attempts = task.attempt;

    if (resilience::ClassifyFailure(response.status.code()) ==
            resilience::FailureClass::kTransient &&
        ConsumeRetryBudget(job)) {
      ScheduleRetry(task, worker, response.status);
      return;  // the slot completes on a later attempt
    }
  }

  bool last = false;
  const bool events = obs::EventsEnabled();
  SolveResponse merged_copy;
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.responses[task.slot] = std::move(response);
    if (job.responses[task.slot].provably_optimal && job.backends.size() > 1) {
      // An exact racer finished: the remaining racers can only re-derive the
      // same optimum, so stop paying for them.
      job.cancel.Cancel();
    }
    last = --job.remaining == 0;
    if (last) {
      MergeResponses(&job);
      job.done = true;
      if (events) {
        // The copy feeds only the job_end payload; with no sink installed it
        // would be a full SolveResponse (member list included) built for
        // nothing.
        merged_copy = job.merged;
      }
    }
  }
  if (!last) {
    return;
  }
  // Account and emit BEFORE waking waiters: a waiter may capture the metrics
  // registry (or emit batch_end) the moment Wait() returns, and the final
  // job's counter tick and job_end event must already be visible then.
  registry.GetCounter("svc.jobs.completed").Increment();
  const double latency_ms = job.submitted.ElapsedMillis();
  registry.GetHistogram("svc.job_latency_wall_ms").Record(latency_ms);
  if (options_.slo_latency_ms > 0) {
    registry.GetGauge("svc.slo.objective_ms").Set(options_.slo_latency_ms);
    registry
        .GetCounter(latency_ms <= options_.slo_latency_ms ? "svc.slo.ok"
                                                          : "svc.slo.breaches")
        .Increment();
  }
  if (events) {
    registry.GetCounter("svc.events.payloads_built").Increment();
    obs::EmitEvent(
        obs::EventLevel::kInfo, "svc", "job_end",
        {{"trace", obs::IdHex(trace_id)},
         {"job", static_cast<std::int64_t>(job.id)},
         {"label", job.request.label},
         {"backend", merged_copy.backend},
         {"status", std::string(StatusCodeName(merged_copy.status.code()))},
         {"size", merged_copy.solution.size},
         {"members", MembersToString(merged_copy.solution.members)},
         {"provably_optimal", merged_copy.provably_optimal},
         {"cache_hit", merged_copy.metrics.cache_hit},
         {"attempts", merged_copy.attempts},
         {"degraded_from", merged_copy.degraded_from},
         {"degradation_reason", merged_copy.degradation_reason},
         {"racers", static_cast<int>(job.backends.size())},
         {"winner_margin", job.winner_margin},
         {"queue_seconds", merged_copy.metrics.queue_seconds},
         {"wall_seconds", merged_copy.metrics.wall_seconds}});
    // The root span closes the trace: emitted once, by whichever racer
    // finished last.
    obs::EmitJobSpan(trace_id, latency_ms);
  }
  job.done_cv.notify_all();
}

SolveResponse JobScheduler::RunBackend(Job& job, const std::string& backend,
                                       int attempt) {
  auto& registry = obs::MetricsRegistry::Global();
  // The phase spans below hang off this span, so the whole attempt
  // reconstructs as one subtree.
  obs::TraceSpan span("svc.job");

  SolveResponse response;
  response.backend = backend;
  response.metrics.queue_seconds = job.submitted.ElapsedSeconds();
  if (attempt == 1) {
    // Admission accounting happens once per slot; retries are continuations
    // of the same admission, not new jobs.
    registry.GetHistogram("svc.queue_wait_seconds")
        .Record(response.metrics.queue_seconds);
    registry.GetHistogram("svc.phase.queue_wait_wall_ms")
        .Record(response.metrics.queue_seconds * 1e3);
    registry.GetCounter("svc.backend." + backend + ".jobs").Increment();
    // The wait already happened (between Enqueue and now), so the span is
    // recorded directly instead of scoped.
    obs::RecordSpan("queue", {}, response.metrics.queue_seconds * 1e3);
  }

  std::string key;
  if (cache_ != nullptr) {
    key = CacheKey(job.request, backend);
    if (attempt == 1) {
      Stopwatch lookup_watch;
      std::optional<SolveResponse> cached = cache_->Lookup(key);
      obs::RecordSpan("cache", {}, lookup_watch.ElapsedMillis());
      if (cached.has_value()) {
        const double queue_seconds = response.metrics.queue_seconds;
        response = *std::move(cached);
        response.metrics.queue_seconds = queue_seconds;
        response.metrics.wall_seconds = 0;
        response.metrics.cache_hit = true;
        return response;
      }
    }
  }

  Status failure = RunHop(job, backend, attempt, /*fallback=*/false,
                          &response);
  if (failure.ok()) {
    if (cache_ != nullptr && response.status.ok()) {
      // Only completed OK answers are worth replaying; truncated incumbents
      // would poison later, better-budgeted requests.
      cache_->Insert(key, response);
    }
    return response;
  }
  if (resilience::ClassifyFailure(failure.code()) ==
      resilience::FailureClass::kDegradable) {
    return RunFallbackChain(job, backend, std::move(response),
                            std::move(failure));
  }
  response.status = std::move(failure);
  return response;
}

Status JobScheduler::RunHop(Job& job, const std::string& backend, int attempt,
                            bool fallback, SolveResponse* response) {
  auto& registry = obs::MetricsRegistry::Global();
  if (StopRequested(&job.cancel)) {
    registry.GetCounter("svc.deadline_hits").Increment();
    return Status::DeadlineExceeded("job budget exhausted before " +
                                    std::string(fallback ? "fallback "
                                                         : "backend ") +
                                    backend + " started");
  }
  Stopwatch watch;
  Execution execution;
  {
    // Hops hang off the innermost span (the attempt's svc.job), so
    // degraded executions stay inside the job's trace.
    std::optional<obs::TraceSpan> hop_span;
    if (fallback) {
      hop_span.emplace(obs::kRequestOnly, "fallback", backend);
    }
    obs::TraceSpan solve_span(obs::kRequestOnly, "solve");
    execution = ExecuteGuarded(job, backend, attempt);
  }
  const double wall_seconds = watch.ElapsedSeconds();
  response->metrics.wall_seconds += wall_seconds;
  if (fallback) {
    registry.GetHistogram("svc.phase.fallback_wall_ms")
        .Record(wall_seconds * 1e3);
  } else {
    registry.GetHistogram("svc.job_wall_seconds").Record(wall_seconds);
  }

  if (!execution.outcome.ok()) {
    if (!execution.short_circuited) {
      // A breaker short-circuit never ran the backend, so it is not a
      // backend failure — the breaker's own counters account for it.
      registry.GetCounter("svc.backend." + backend + ".failures").Increment();
    }
    return execution.outcome.status();
  }
  SolveOutcome& result = execution.outcome.value();
  response->solution = std::move(result.solution);
  response->provably_optimal = result.provably_optimal;
  if (!result.completed) {
    response->status = Status::DeadlineExceeded(
        "backend " + backend +
        " stopped early (deadline or cancellation); incumbent attached");
    registry.GetCounter("svc.deadline_hits").Increment();
  }
  return Status::Ok();
}

JobScheduler::Execution JobScheduler::ExecuteGuarded(Job& job,
                                                     const std::string& backend,
                                                     int attempt) {
  Execution execution;
  resilience::CircuitBreaker* breaker =
      breakers_ != nullptr ? breakers_->Get(backend) : nullptr;
  if (breaker != nullptr &&
      breaker->Consult() ==
          resilience::CircuitBreaker::Decision::kShortCircuit) {
    execution.short_circuited = true;
    execution.outcome = Status::ResourceExhausted(
        "circuit breaker open for backend " + backend +
        "; skipping execution");
    return execution;
  }
  // Attempt-scoped cancellation chained under the job token: the watchdog
  // cancels just this execution (fallback still runs with the job's
  // remaining budget), while portfolio/job-level Cancel() reaches the
  // backend through the parent link.
  CancelToken attempt_cancel;
  attempt_cancel.LinkParent(&job.cancel);
  const std::uint64_t watch_id =
      RegisterWatch(job, backend, attempt, &attempt_cancel);
  execution.outcome = GuardedSolve(job, backend, attempt_cancel);
  const bool watchdog_killed = UnregisterWatch(watch_id);
  if (watchdog_killed) {
    // Degradable by design: kResourceExhausted sends the caller down the
    // fallback chain. The message carries only the configured budget, so
    // journal bytes stay deterministic.
    execution.outcome = Status::ResourceExhausted(
        "watchdog cancelled backend " + backend +
        ": no heartbeat progress within " +
        std::to_string(static_cast<long long>(options_.watchdog_stall_ms)) +
        " ms stall budget");
  }
  if (breaker != nullptr) {
    if (watchdog_killed) {
      // A wedge is a backend-health failure even though its status code
      // (kResourceExhausted) would not normally count.
      breaker->RecordFailure();
    } else if (execution.outcome.ok()) {
      breaker->RecordSuccess();
    } else if (resilience::BreakerCountsFailure(
                   execution.outcome.status().code())) {
      breaker->RecordFailure();
    } else {
      breaker->RecordNeutral();
    }
  }
  return execution;
}

Result<SolveOutcome> JobScheduler::GuardedSolve(Job& job,
                                                const std::string& backend,
                                                CancelToken& attempt_cancel) {
  auto& registry = obs::MetricsRegistry::Global();
  try {
    if (resilience::FaultFires(resilience::FaultSite::kSolverThrow)) {
      throw std::runtime_error("injected fault: solver_throw");
    }
    if (resilience::FaultFires(resilience::FaultSite::kSolverSlow)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (resilience::FaultFires(resilience::FaultSite::kSolverStall)) {
      // Deterministic wedge: hold the execution without one heartbeat until
      // the watchdog (or a job-level cancel / the deadline, both seen through
      // the parent link) releases it. Direct Cancelled() reads keep the poll
      // counter frozen — in virtual time this backend has stopped making
      // progress, however briefly the wall-clock wait lasts.
      while (!attempt_cancel.Cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SolveOutcome stalled;
      stalled.completed = false;
      return stalled;
    }
    return registry_->Get(backend)->Solve(
        job.request, SolveContext{.cancel = &attempt_cancel});
  } catch (const std::exception& e) {
    registry.GetCounter("svc.backend." + backend + ".exceptions").Increment();
    return Status::Internal("backend " + backend +
                            " threw: " + std::string(e.what()));
  } catch (...) {
    registry.GetCounter("svc.backend." + backend + ".exceptions").Increment();
    return Status::Internal("backend " + backend +
                            " threw a non-standard exception");
  }
}

SolveResponse JobScheduler::RunFallbackChain(Job& job,
                                             const std::string& backend,
                                             SolveResponse response,
                                             Status failure) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string reason = failure.ToString();
  for (const std::string& hop : registry_->FallbackChain(backend)) {
    registry.GetCounter("svc.fallbacks.taken").Increment();
    if (obs::EventsEnabled()) {
      registry.GetCounter("svc.events.payloads_built").Increment();
      obs::EmitEvent(obs::EventLevel::kWarn, "svc", "job_fallback",
                     {{"trace", obs::IdHex(obs::DeriveTraceId(
                                    job.request.label, job.id))},
                      {"job", static_cast<std::int64_t>(job.id)},
                      {"from", backend},
                      {"to", hop},
                      {"reason", reason}});
    }
    failure = RunHop(job, hop, 1, /*fallback=*/true, &response);
    if (failure.ok()) {
      response.backend = hop;
      response.degraded_from = backend;
      response.degradation_reason = reason;
      // Degraded answers are never cached: the cache key names the
      // requested backend, and a future request with a bigger budget
      // deserves the real thing.
      return response;
    }
    if (resilience::ClassifyFailure(failure.code()) !=
        resilience::FailureClass::kDegradable) {
      break;
    }
    // Also reached when this hop's breaker is open or its execution was
    // watchdog-killed: keep walking toward a healthy backend.
  }
  response.status = std::move(failure);
  return response;
}

bool JobScheduler::ConsumeRetryBudget(Job& job) {
  auto& registry = obs::MetricsRegistry::Global();
  if (StopRequested(&job.cancel)) {
    return false;  // no budget left to retry into
  }
  if (job.retries_left.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    registry.GetCounter("svc.retries.exhausted").Increment();
    return false;
  }
  return true;
}

void JobScheduler::ScheduleRetry(const SubTask& task, int worker,
                                 const Status& failure) {
  Job& job = *task.job;
  const std::string& backend = job.backends[task.slot];
  auto& registry = obs::MetricsRegistry::Global();

  // The delay is a pure function of (seed, job, slot, attempt): replay the
  // deterministic backoff sequence up to this attempt. Recording the
  // *computed* delay (not a measured sleep) keeps the histogram exactly
  // reproducible for the bench gate.
  constexpr std::uint64_t kBackoffSeed = 0x7e57ab1e;
  resilience::BackoffOptions backoff_options;
  backoff_options.base_ms = options_.retry.backoff_base_ms;
  backoff_options.cap_ms = options_.retry.backoff_cap_ms;
  backoff_options.seed = kBackoffSeed ^
                         (static_cast<std::uint64_t>(job.id) *
                          0x9e3779b97f4a7c15ULL) ^
                         static_cast<std::uint64_t>(task.slot);
  const double delay_ms =
      resilience::DelayAtAttempt(backoff_options, task.attempt);

  registry.GetCounter("svc.retries.scheduled").Increment();
  registry.GetCounter("svc.backend." + backend + ".retries").Increment();
  registry.GetHistogram("svc.retries.backoff_ms").Record(delay_ms);
  registry.GetHistogram("svc.phase.backoff_ms").Record(delay_ms);
  // The current span is the racer's (the attempt span closed before the
  // retry decision), so backoffs sit between attempt subtrees. The span's
  // duration is the computed delay, matching the histograms.
  obs::RecordSpan("backoff", std::to_string(task.attempt), delay_ms);
  if (obs::EventsEnabled()) {
    registry.GetCounter("svc.events.payloads_built").Increment();
    obs::EmitEvent(obs::EventLevel::kWarn, "svc", "job_retry",
                   {{"trace", obs::IdHex(obs::DeriveTraceId(job.request.label,
                                                            job.id))},
                    {"job", static_cast<std::int64_t>(job.id)},
                    {"backend", backend},
                    {"attempt", task.attempt},
                    {"backoff_ms", delay_ms},
                    {"status", std::string(StatusCodeName(failure.code()))}});
  }

  const double remaining_ms = job.cancel.deadline().RemainingSeconds() * 1e3;
  const double sleep_ms =
      std::isinf(remaining_ms) ? delay_ms
                               : std::min(delay_ms, std::max(remaining_ms, 0.0));
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(SubTask{task.job, task.slot, task.attempt + 1, worker});
  }
  work_cv_.notify_all();
}

void JobScheduler::MergeResponses(Job* job) {
  // Winner rule, deterministic given the per-slot responses:
  //   1. proven-optimal OK answers first,
  //   2. then larger plexes (a deadline incumbent can still win on size),
  //   3. then OK status over truncated status,
  //   4. then earliest position in the submitted backend list.
  const auto rank = [](const SolveResponse& r, int slot) {
    return std::make_tuple(r.status.ok() && r.provably_optimal,
                           r.solution.size, r.status.ok(), -slot);
  };
  int best = 0;
  for (int slot = 1; slot < static_cast<int>(job->responses.size()); ++slot) {
    if (rank(job->responses[slot], slot) > rank(job->responses[best], best)) {
      best = slot;
    }
  }
  job->winner_margin = 0;
  if (job->responses.size() > 1) {
    int best_other = 0;
    for (int slot = 0; slot < static_cast<int>(job->responses.size());
         ++slot) {
      if (slot != best) {
        best_other = std::max(best_other, job->responses[slot].solution.size);
      }
    }
    job->winner_margin = job->responses[best].solution.size - best_other;
  }
  job->merged = std::move(job->responses[best]);
}

}  // namespace qplex::svc
