// Tests of the health subsystem (DESIGN.md section 15): the per-backend
// circuit-breaker state machine, the adaptive overload controller, the
// wedged-job watchdog (heartbeat-stall detection via attempt-scoped cancel
// tokens), the solver_stall fault site, and the qplex_obs health validation
// and deterministic report over the emitted event stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "obs/analysis.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "resilience/breaker.h"
#include "resilience/fault_injection.h"
#include "resilience/health.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "svc/solver.h"
#include "scratch_dir.h"

namespace qplex::svc {
namespace {

using resilience::BreakerBoard;
using resilience::BreakerOptions;
using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::OverloadController;
using resilience::OverloadOptions;

Graph TwoBlockGraph() {
  // Two K4 blocks joined by one edge; the maximum 2-plex is a K4.
  return ParseEdgeList(
             "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n5 7\n6 "
             "7\n")
      .value();
}

SolveRequest Request(const std::string& backend, const std::string& label) {
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  request.backend = backend;
  request.seed = 1;
  request.label = label;
  return request;
}

std::int64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Get();
}

// --- CancelToken heartbeats --------------------------------------------------

TEST(CancelTokenTest, PollCountsHeartbeatsCancelledDoesNot) {
  CancelToken token;
  EXPECT_EQ(token.polls(), 0u);
  EXPECT_FALSE(token.Poll());
  EXPECT_FALSE(token.Poll());
  EXPECT_EQ(token.polls(), 2u);
  EXPECT_FALSE(token.Cancelled());  // raw read: no heartbeat
  EXPECT_EQ(token.polls(), 2u);
  token.Cancel();
  EXPECT_TRUE(token.Poll());
  EXPECT_EQ(token.polls(), 3u);
}

TEST(CancelTokenTest, LinkParentPropagatesCancellationDownward) {
  CancelToken job;
  CancelToken attempt;
  attempt.LinkParent(&job);
  EXPECT_FALSE(attempt.Cancelled());
  job.Cancel();
  // Parent cancellation reaches the attempt token...
  EXPECT_TRUE(attempt.Cancelled());
  EXPECT_TRUE(attempt.Poll());
  // ...but cancelling an attempt never cancels its job.
  CancelToken job2;
  CancelToken attempt2;
  attempt2.LinkParent(&job2);
  attempt2.Cancel();
  EXPECT_TRUE(attempt2.Cancelled());
  EXPECT_FALSE(job2.Cancelled());
}

TEST(CancelTokenTest, DeadlineIsSeenThroughLinkParent) {
  CancelToken job(Deadline::After(1e-9));
  CancelToken attempt;
  EXPECT_FALSE(attempt.Cancelled());
  attempt.LinkParent(&job);
  while (!job.deadline().Expired()) {
  }
  // The job's expired deadline stops the attempt, whose own deadline is
  // infinite and whose flag is clear.
  EXPECT_TRUE(job.Cancelled());
  EXPECT_TRUE(attempt.Cancelled());
  EXPECT_TRUE(attempt.Poll());
  EXPECT_TRUE(std::isinf(attempt.deadline().RemainingSeconds()));
  // A tighter child deadline stops the child only.
  CancelToken roomy(Deadline::After(3600));
  CancelToken capped(Deadline::After(1e-9));
  capped.LinkParent(&roomy);
  while (!capped.deadline().Expired()) {
  }
  EXPECT_TRUE(capped.Cancelled());
  EXPECT_FALSE(roomy.Cancelled());
}

TEST(CancelTokenTest, PollHeartbeatsEveryAncestor) {
  // The watchdog reads the attempt token; a backend that polls a child of
  // its own (milp's time_limit cap) must still heartbeat it.
  CancelToken job;
  CancelToken attempt;
  attempt.LinkParent(&job);
  CancelToken capped(Deadline::After(3600));
  capped.LinkParent(&attempt);
  EXPECT_FALSE(StopRequested(&capped));
  EXPECT_FALSE(StopRequested(&capped));
  EXPECT_FALSE(StopRequested(&attempt));
  EXPECT_EQ(capped.polls(), 2u);
  EXPECT_EQ(attempt.polls(), 3u);
  EXPECT_EQ(job.polls(), 3u);
  EXPECT_FALSE(StopRequested(nullptr));
}

// --- Failure taxonomy --------------------------------------------------------

TEST(BreakerTaxonomyTest, CountsBackendFaultsNotCallerOutcomes) {
  // Backend-health signals count toward tripping.
  EXPECT_TRUE(resilience::BreakerCountsFailure(StatusCode::kInternal));
  EXPECT_TRUE(
      resilience::BreakerCountsFailure(StatusCode::kFailedPrecondition));
  EXPECT_TRUE(resilience::BreakerCountsFailure(StatusCode::kNotFound));
  EXPECT_TRUE(resilience::BreakerCountsFailure(StatusCode::kUnimplemented));
  EXPECT_TRUE(resilience::BreakerCountsFailure(StatusCode::kOutOfRange));
  // Caller-attributable outcomes and the fallback-handled degradable class
  // do not.
  EXPECT_FALSE(resilience::BreakerCountsFailure(StatusCode::kOk));
  EXPECT_FALSE(resilience::BreakerCountsFailure(StatusCode::kInvalidArgument));
  EXPECT_FALSE(
      resilience::BreakerCountsFailure(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(
      resilience::BreakerCountsFailure(StatusCode::kResourceExhausted));
}

// --- CircuitBreaker state machine --------------------------------------------

BreakerOptions SmallBreaker() {
  BreakerOptions options;
  options.failure_threshold = 2;
  options.cooldown_consults = 3;
  return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndProbesAfterCooldown) {
  CircuitBreaker breaker("bs", SmallBreaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // cooldown_consults = 3: two short-circuits, then the half-open probe.
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kShortCircuit);
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kShortCircuit);
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // While the probe is in flight, other consults short-circuit.
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kShortCircuit);

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  const resilience::BreakerSnapshot snapshot = breaker.Snapshot();
  EXPECT_EQ(snapshot.backend, "bs");
  EXPECT_EQ(snapshot.opened, 1);
  EXPECT_EQ(snapshot.closed, 1);
  EXPECT_EQ(snapshot.probes, 1);
  EXPECT_EQ(snapshot.short_circuits, 3);
  EXPECT_EQ(snapshot.consecutive_failures, 0);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithScaledCappedCooldown) {
  CircuitBreaker breaker("bs", SmallBreaker());
  auto trip = [&breaker] {
    while (breaker.state() != BreakerState::kOpen) {
      ASSERT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
      breaker.RecordFailure();
    }
  };
  auto wait_probe = [&breaker]() -> int {
    for (int short_circuits = 0; short_circuits < 100; ++short_circuits) {
      const CircuitBreaker::Decision decision = breaker.Consult();
      if (decision == CircuitBreaker::Decision::kProbe) {
        return short_circuits;
      }
      if (decision != CircuitBreaker::Decision::kShortCircuit) {
        ADD_FAILURE() << "breaker proceeded while open";
        return -1;
      }
    }
    ADD_FAILURE() << "no probe admitted within 100 consults";
    return -1;
  };

  trip();
  EXPECT_EQ(wait_probe(), 2);  // first cooldown: 3 consults
  breaker.RecordFailure();     // failed probe: reopen, cooldown doubles to 6
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(wait_probe(), 5);
  // Each failed probe doubles the cooldown: 12, 24, 48, then 96 capped at 64.
  for (const int cooldown : {12, 24, 48, 64}) {
    breaker.RecordFailure();
    EXPECT_EQ(wait_probe(), cooldown - 1);
  }
  breaker.RecordSuccess();     // recovery resets the scale
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  trip();
  EXPECT_EQ(wait_probe(), 2);  // back to the base cooldown
}

TEST(CircuitBreakerTest, NeutralReleasesProbeWithoutTransition) {
  CircuitBreaker breaker("bs", SmallBreaker());
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  while (breaker.Consult() != CircuitBreaker::Decision::kProbe) {
  }
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // A cancelled/deadline-ended probe is no health verdict: stay half-open
  // and let the next consult probe again.
  breaker.RecordNeutral();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProbe);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveFailureCount) {
  CircuitBreaker breaker("bs", SmallBreaker());
  ASSERT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
  breaker.RecordSuccess();  // interleaved success: the streak restarts
  for (int i = 0; i < 1; ++i) {
    ASSERT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, NonPositiveThresholdDisablesEntirely) {
  BreakerOptions options = SmallBreaker();
  options.failure_threshold = 0;
  CircuitBreaker breaker("bs", options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(breaker.Consult(), CircuitBreaker::Decision::kProceed);
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(BreakerBoardTest, PerBackendIsolationAndSortedSnapshots) {
  BreakerBoard board(SmallBreaker());
  CircuitBreaker* qtkp = board.Get("qtkp");
  ASSERT_NE(qtkp, nullptr);
  EXPECT_EQ(board.Get("qtkp"), qtkp);  // stable per backend
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(qtkp->Consult(), CircuitBreaker::Decision::kProceed);
    qtkp->RecordFailure();
  }
  EXPECT_EQ(board.Get("bs")->state(), BreakerState::kClosed);
  EXPECT_EQ(board.OpenCount(), 1);

  const std::vector<resilience::BreakerSnapshot> snapshots =
      board.Snapshots();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].backend, "bs");
  EXPECT_EQ(snapshots[1].backend, "qtkp");
  EXPECT_EQ(snapshots[1].state, BreakerState::kOpen);
}

// --- OverloadController ------------------------------------------------------

TEST(OverloadControllerTest, BacklogFullShedsWithClampedHint) {
  OverloadOptions options;
  options.target_delay_ms = 0;  // adaptive path off: hard cap only
  OverloadController overload(options);
  const OverloadController::Decision ok = overload.Admit(3, 4, 0);
  EXPECT_TRUE(ok.admit);
  const OverloadController::Decision shed = overload.Admit(4, 4, 0);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "backlog_full");
  // No delay samples yet: the hint clamps up to the 10 ms minimum.
  EXPECT_DOUBLE_EQ(shed.retry_after_ms, 10);
  EXPECT_EQ(overload.shed(), 1);
}

TEST(OverloadControllerTest, AdaptiveShedTracksTheDelayEwma) {
  OverloadOptions options;
  options.target_delay_ms = 10;
  options.ewma_alpha = 1.0;  // no smoothing: the last sample is the EWMA
  options.shed_factor = 2.0;
  options.min_backlog = 2;
  OverloadController overload(options);

  // Below 2x target: admit.
  overload.RecordQueueDelay(15);
  EXPECT_TRUE(overload.Admit(3, 100, 0).admit);
  // Above 2x target but under min_backlog: admit (progress guarantee).
  overload.RecordQueueDelay(25);
  EXPECT_TRUE(overload.Admit(1, 100, 0).admit);
  // Above 2x target at depth: shed with a hint of 2x the smoothed delay.
  const OverloadController::Decision shed = overload.Admit(3, 100, 0);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "queue_delay");
  EXPECT_DOUBLE_EQ(shed.retry_after_ms, 50);
  EXPECT_DOUBLE_EQ(overload.delay_ewma_ms(), 25);
}

TEST(OverloadControllerTest, OpenBreakersTightenTheShedThreshold) {
  OverloadOptions options;
  options.target_delay_ms = 10;
  options.ewma_alpha = 1.0;
  options.shed_factor = 2.0;
  options.min_backlog = 2;
  OverloadController overload(options);
  overload.RecordQueueDelay(15);  // between target and target * shed_factor
  EXPECT_TRUE(overload.Admit(3, 100, 0).admit);
  // Degraded capacity (an open breaker) sheds at the bare target.
  const OverloadController::Decision shed = overload.Admit(3, 100, 1);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "queue_delay");
}

TEST(OverloadControllerTest, HintClampsToTheConfiguredRange) {
  OverloadOptions options;
  options.target_delay_ms = 1;
  options.ewma_alpha = 1.0;
  OverloadController overload(options);
  // A queue-delay shed: twice the 5000 ms EWMA clamps down to 2000 ms.
  overload.RecordQueueDelay(5000);
  EXPECT_DOUBLE_EQ(overload.Admit(5, 100, 0).retry_after_ms, 2000);
  // A backlog-full shed: twice the 0.5 ms EWMA clamps up to 10 ms.
  overload.RecordQueueDelay(0.5);
  EXPECT_DOUBLE_EQ(overload.Admit(4, 4, 0).retry_after_ms, 10);
}

// --- Scheduler integration ---------------------------------------------------

/// Always fails with kInternal — a backend-health failure the breaker
/// counts. Tracks how many times it actually executed so short-circuits
/// (which skip execution) are observable.
class SickSolver : public Solver {
 public:
  std::string_view name() const override { return "sick"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    executions_.fetch_add(1);
    return Status::Internal("synthetic backend sickness");
  }
  int executions() const { return executions_.load(); }

 private:
  mutable std::atomic<int> executions_{0};
};

/// Fails with kInternal `failures` times, then succeeds — drives the
/// half-open probe recovery path.
class RecoveringSolver : public Solver {
 public:
  explicit RecoveringSolver(int failures) : failures_(failures) {}
  std::string_view name() const override { return "recovering"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    if (calls_.fetch_add(1) < failures_) {
      return Status::Internal("still sick");
    }
    SolveOutcome outcome;
    outcome.solution.size = 1;
    outcome.solution.members = {0};
    return outcome;
  }

 private:
  int failures_;
  mutable std::atomic<int> calls_{0};
};

/// Wedges without heartbeating: reads Cancelled() directly (never Poll), so
/// in the watchdog's virtual time this backend has stopped making progress
/// the moment it starts. Releases only when the watchdog (or a job cancel)
/// fires.
class StallSolver : public Solver {
 public:
  std::string_view name() const override { return "stall"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext& context) const override {
    while (context.cancel != nullptr && !context.cancel->Cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("stall solver released without cancellation");
  }
};

JobSchedulerOptions HealthSchedulerOptions() {
  JobSchedulerOptions options;
  options.num_workers = 1;
  options.retry.max_retries = 0;  // isolate breaker behavior from retries
  options.retry.backoff_base_ms = 0.01;
  options.retry.backoff_cap_ms = 0.1;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_consults = 1;  // next consult after opening probes
  return options;
}

TEST(SchedulerBreakerTest, OpenBreakerShortCircuitsToFallback) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  auto* sick = new SickSolver();
  ASSERT_TRUE(registry.Register(std::unique_ptr<Solver>(sick)).ok());
  ASSERT_TRUE(registry.SetFallback("sick", "bs").ok());
  JobSchedulerOptions options = HealthSchedulerOptions();
  options.breaker.cooldown_consults = 100;  // keep it open for the test
  JobScheduler scheduler(&registry, options);
  ASSERT_TRUE(scheduler.breakers_enabled());

  // Two failing jobs trip the breaker (threshold 2). Internal failures are
  // not degradable, so these jobs fail outright.
  for (int i = 0; i < 2; ++i) {
    const Result<JobId> id =
        scheduler.Submit(Request("sick", "trip-" + std::to_string(i)));
    ASSERT_TRUE(id.ok()) << id.status();
    const SolveResponse response = scheduler.Wait(id.value());
    EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  }
  EXPECT_EQ(scheduler.OpenBreakerCount(), 1);
  EXPECT_EQ(sick->executions(), 2);

  // The next job consults the open breaker, skips the sick backend without
  // executing it, and the ResourceExhausted short-circuit walks the
  // fallback chain to bs.
  const Result<JobId> id = scheduler.Submit(Request("sick", "shorted"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_EQ(response.degraded_from, "sick");
  EXPECT_NE(response.degradation_reason.find("circuit breaker open"),
            std::string::npos)
      << response.degradation_reason;
  EXPECT_EQ(sick->executions(), 2);  // the short-circuit never executed it
  EXPECT_EQ(CounterValue("resilience.breaker.opened"), 1);
  EXPECT_GE(CounterValue("resilience.breaker.short_circuits"), 1);

  const std::vector<resilience::BreakerSnapshot> snapshots =
      scheduler.BreakerSnapshots();
  const auto it = std::find_if(snapshots.begin(), snapshots.end(),
                               [](const resilience::BreakerSnapshot& s) {
                                 return s.backend == "sick";
                               });
  ASSERT_NE(it, snapshots.end());
  EXPECT_EQ(it->state, BreakerState::kOpen);
}

TEST(SchedulerBreakerTest, HalfOpenProbeRecoversAfterBackendHeals) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_TRUE(
      registry.Register(std::make_unique<RecoveringSolver>(2)).ok());
  JobScheduler scheduler(&registry, HealthSchedulerOptions());

  // Jobs 1-2 fail and open the breaker; with cooldown_consults = 1 job 3's
  // consult immediately admits the half-open probe, which now succeeds and
  // closes the breaker.
  for (int i = 0; i < 2; ++i) {
    const Result<JobId> id =
        scheduler.Submit(Request("recovering", "fail-" + std::to_string(i)));
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_FALSE(scheduler.Wait(id.value()).status.ok());
  }
  EXPECT_EQ(scheduler.OpenBreakerCount(), 1);

  const Result<JobId> probe = scheduler.Submit(Request("recovering", "probe"));
  ASSERT_TRUE(probe.ok()) << probe.status();
  const SolveResponse response = scheduler.Wait(probe.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "recovering");
  EXPECT_EQ(scheduler.OpenBreakerCount(), 0);
  EXPECT_EQ(CounterValue("resilience.breaker.closed"), 1);
  EXPECT_EQ(CounterValue("resilience.breaker.half_opened"), 1);
}

TEST(SchedulerWatchdogTest, KillsWedgedExecutionAndFallsBack) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_TRUE(registry.Register(std::make_unique<StallSolver>()).ok());
  ASSERT_TRUE(registry.SetFallback("stall", "bs").ok());
  JobSchedulerOptions options;
  options.num_workers = 1;
  options.retry.max_retries = 0;
  options.watchdog_stall_ms = 40;
  options.watchdog_poll_ms = 2;
  JobScheduler scheduler(&registry, options);

  const Result<JobId> id = scheduler.Submit(Request("stall", "wedged"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  // The watchdog cancelled the wedged attempt; the kill classified as
  // degradable, so the fallback chain produced the answer on bs.
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_EQ(response.degraded_from, "stall");
  EXPECT_NE(response.degradation_reason.find("watchdog cancelled"),
            std::string::npos)
      << response.degradation_reason;
  EXPECT_EQ(scheduler.WatchdogKills(), 1);
  EXPECT_EQ(CounterValue("svc.watchdog.kills"), 1);
  EXPECT_EQ(CounterValue("svc.watchdog.stall.kills"), 1);
}

TEST(SchedulerWatchdogTest, HeartbeatingJobIsNeverKilled) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  JobSchedulerOptions options;
  options.num_workers = 1;
  options.watchdog_stall_ms = 30;
  options.watchdog_poll_ms = 2;
  JobScheduler scheduler(&registry, options);

  // bs heartbeats through StopRequested() on every expansion; even a stall
  // budget shorter than the solve must not kill it.
  const Result<JobId> id = scheduler.Submit(Request("bs", "healthy"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_EQ(scheduler.WatchdogKills(), 0);
}

TEST(SchedulerWatchdogTest, SolverStallFaultSiteWedgesBuiltinBackend) {
  obs::MetricsRegistry::Global().Reset();
  resilience::FaultInjector::Global().Reset();
  // Arm the stall for the first execution only: the qtkp attempt wedges and
  // is watchdog-killed; the bs fallback hop (call 2) runs clean.
  ASSERT_TRUE(resilience::FaultInjector::Global()
                  .Configure("solver_stall:2:1")
                  .ok());
  struct InjectorRestore {
    ~InjectorRestore() { resilience::FaultInjector::Global().Reset(); }
  } restore;

  SolverRegistry registry = MakeBuiltinRegistry();
  JobSchedulerOptions options;
  options.num_workers = 1;
  options.retry.max_retries = 0;
  options.watchdog_stall_ms = 40;
  options.watchdog_poll_ms = 2;
  JobScheduler scheduler(&registry, options);

  // every_n = 2 fires on call indices 2, 4, ... — submit a sacrificial
  // first call so the stall lands on the qtkp attempt of job 2.
  const Result<JobId> warmup = scheduler.Submit(Request("bs", "warmup"));
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  ASSERT_TRUE(scheduler.Wait(warmup.value()).status.ok());

  const Result<JobId> id = scheduler.Submit(Request("qtkp", "stalled"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");  // qtkp -> bs builtin fallback chain
  EXPECT_EQ(response.degraded_from, "qtkp");
  EXPECT_EQ(scheduler.WatchdogKills(), 1);
}

// --- Event-stream validation and the deterministic health report -------------

std::filesystem::path HealthEventsPath(const std::string& name) {
  return ScratchDir() / name;
}

/// One seeded single-worker chaos batch exercising trip, short-circuit,
/// probe recovery, and a watchdog kill; returns the deterministic health
/// report rendered from the captured event stream.
std::string RunHealthChaosBatch(const std::string& events_name) {
  const std::filesystem::path path = HealthEventsPath(events_name);
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string());
  QPLEX_CHECK(sink.ok()) << sink.status().ToString();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry = MakeBuiltinRegistry();
  QPLEX_CHECK(registry.Register(std::make_unique<RecoveringSolver>(2)).ok());
  QPLEX_CHECK(registry.Register(std::make_unique<StallSolver>()).ok());
  QPLEX_CHECK(registry.SetFallback("recovering", "bs").ok());
  QPLEX_CHECK(registry.SetFallback("stall", "bs").ok());
  {
    JobSchedulerOptions options = HealthSchedulerOptions();
    options.watchdog_stall_ms = 40;
    options.watchdog_poll_ms = 2;
    JobScheduler scheduler(&registry, options);
    int index = 0;
    // Sequential waits on one worker: the breaker consults in submission
    // order, so the transition stream is a pure function of this list.
    for (const std::string backend :
         {"recovering", "recovering", "recovering", "stall", "bs"}) {
      const Result<JobId> id = scheduler.Submit(
          Request(backend, "chaos-" + std::to_string(index++)));
      QPLEX_CHECK(id.ok()) << id.status().ToString();
      scheduler.Wait(id.value());
    }
  }
  obs::EventSink::InstallGlobal(nullptr);
  sink.value().reset();

  const Result<obs::EventLog> log = obs::LoadEventLog(path.string());
  QPLEX_CHECK(log.ok()) << log.status().ToString();
  // The live stream always validates: legal transitions, kills before ends.
  const Status checked = obs::ValidateHealthEvents(log.value());
  EXPECT_TRUE(checked.ok()) << checked;
  EXPECT_EQ(log.value().breaker_transitions.size(), 3u);  // open, half, close
  EXPECT_EQ(log.value().watchdog_kills.size(), 1u);
  return obs::FormatHealthReport(log.value());
}

TEST(HealthEventsTest, SeededChaosRunsRenderByteIdenticalHealthReports) {
  obs::MetricsRegistry::Global().Reset();
  const std::string first = RunHealthChaosBatch("health_a.jsonl");
  obs::MetricsRegistry::Global().Reset();
  const std::string second = RunHealthChaosBatch("health_b.jsonl");
  EXPECT_EQ(first, second) << first;
  // The report carries the expected structure: the recovering backend's
  // full trip/probe/recover walk and the stall backend's kill.
  EXPECT_NE(first.find("recovering: closed->open=1 half_open->closed=1 "
                       "open->half_open=1"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("stall: kills=1"), std::string::npos) << first;
}

obs::BreakerTransitionRecord Transition(const std::string& backend,
                                        const std::string& from,
                                        const std::string& to) {
  obs::BreakerTransitionRecord record;
  record.backend = backend;
  record.from = from;
  record.to = to;
  return record;
}

TEST(HealthEventsTest, ValidatorRejectsClosingWithoutHalfOpenProbe) {
  obs::EventLog log;
  log.breaker_transitions.push_back(Transition("bs", "closed", "open"));
  log.breaker_transitions.push_back(Transition("bs", "open", "closed"));
  const Status checked = obs::ValidateHealthEvents(log);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.message().find("illegal edge open->closed"),
            std::string::npos)
      << checked;
}

TEST(HealthEventsTest, ValidatorRejectsFromStateMismatch) {
  obs::EventLog log;
  // A dropped closed->open line: the stream claims open without ever
  // getting there.
  log.breaker_transitions.push_back(Transition("bs", "open", "half_open"));
  const Status checked = obs::ValidateHealthEvents(log);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.message().find("replayed state is closed"),
            std::string::npos)
      << checked;
}

TEST(HealthEventsTest, ValidatorTracksBackendsIndependently) {
  obs::EventLog log;
  log.breaker_transitions.push_back(Transition("qtkp", "closed", "open"));
  log.breaker_transitions.push_back(Transition("bs", "closed", "open"));
  log.breaker_transitions.push_back(Transition("qtkp", "open", "half_open"));
  log.breaker_transitions.push_back(Transition("qtkp", "half_open", "closed"));
  log.breaker_transitions.push_back(Transition("bs", "open", "half_open"));
  log.breaker_transitions.push_back(Transition("bs", "half_open", "open"));
  EXPECT_TRUE(obs::ValidateHealthEvents(log).ok());
}

TEST(HealthEventsTest, ValidatorRejectsKillSequencedAfterJobEnd) {
  obs::EventLog log;
  obs::JobRecord job;
  job.job = 7;
  job.seq = 10;
  log.jobs.push_back(job);
  obs::WatchdogKillRecord kill;
  kill.job = 7;
  kill.backend = "qtkp";
  kill.seq = 11;  // after the job merged its response: impossible live
  log.watchdog_kills.push_back(kill);
  const Status checked = obs::ValidateHealthEvents(log);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.message().find("sequenced after its job_end"),
            std::string::npos)
      << checked;

  kill.seq = 9;  // before the end: the live ordering
  log.watchdog_kills[0] = kill;
  EXPECT_TRUE(obs::ValidateHealthEvents(log).ok());
}

TEST(HealthEventsTest, PreHealthLogsPassVacuouslyAndReportSaysSo) {
  obs::EventLog log;
  EXPECT_TRUE(obs::ValidateHealthEvents(log).ok());
  const std::string report = obs::FormatHealthReport(log);
  EXPECT_NE(report.find("(no breaker transitions)"), std::string::npos);
  EXPECT_NE(report.find("(no watchdog kills)"), std::string::npos);
  EXPECT_NE(report.find("(no sheds)"), std::string::npos);
}

TEST(HealthEventsTest, ReportCountsShedsPerReason) {
  obs::EventLog log;
  obs::ShedRecord shed;
  shed.reason = "backlog_full";
  log.sheds.push_back(shed);
  log.sheds.push_back(shed);
  shed.reason = "queue_delay";
  log.sheds.push_back(shed);
  const std::string report = obs::FormatHealthReport(log);
  EXPECT_NE(report.find("backlog_full: 2"), std::string::npos) << report;
  EXPECT_NE(report.find("queue_delay: 1"), std::string::npos) << report;
}

}  // namespace
}  // namespace qplex::svc
