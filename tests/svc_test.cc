// Tests of the solver service layer: canonical graph hashing, the LRU
// instance cache and its counters, the backend registry, and the bounded
// job scheduler (determinism across worker counts, deadline promptness,
// cooperative cancellation, portfolio racing, backpressure, and the
// resilience layer: fault injection, retry/backoff, fallback chains).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "obs/analysis.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/statevector.h"
#include "qubo/mkp_qubo.h"
#include "resilience/fault_injection.h"
#include "resilience/retry.h"
#include "svc/cache.h"
#include "svc/graph_hash.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "svc/solver.h"
#include "scratch_dir.h"

namespace qplex::svc {
namespace {

Graph TwoBlockGraph() {
  // Two K4 blocks joined by one edge; the maximum 2-plex is a K4.
  return ParseEdgeList(
             "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n5 7\n6 "
             "7\n")
      .value();
}

std::int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Get();
}

TEST(GraphHashTest, EdgeOrderAndFormatDoNotChangeHash) {
  const Graph a = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}).value();
  const Graph b = MakeGraph(4, {{2, 3}, {1, 0}, {1, 2}}).value();  // permuted
  const Graph c = ParseEdgeList("4\n1 2\n0 1\n2 3\n").value();
  const Graph d = ParseDimacs("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n").value();
  EXPECT_EQ(CanonicalGraphHash(a), CanonicalGraphHash(b));
  EXPECT_EQ(CanonicalGraphHash(a), CanonicalGraphHash(c));
  EXPECT_EQ(CanonicalGraphHash(a), CanonicalGraphHash(d));
}

TEST(GraphHashTest, IsomorphicRelabelingHashesDifferently) {
  // The hash is a *labelled* digest by design (see graph_hash.h): the path
  // 0-1-2 and its relabeling 0-2-1 are isomorphic but hash differently,
  // because cached solutions are reported in the caller's vertex ids.
  const Graph path = MakeGraph(3, {{0, 1}, {1, 2}}).value();
  const Graph relabeled = MakeGraph(3, {{0, 2}, {2, 1}}).value();
  EXPECT_NE(CanonicalGraphHash(path), CanonicalGraphHash(relabeled));
}

TEST(GraphHashTest, VertexCountMatters) {
  const Graph small = MakeGraph(3, {{0, 1}}).value();
  const Graph padded = MakeGraph(4, {{0, 1}}).value();
  EXPECT_NE(CanonicalGraphHash(small), CanonicalGraphHash(padded));
}

TEST(GraphHashTest, CacheKeyCoversRequestFields) {
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  request.seed = 1;
  const std::string base = CacheKey(request, "bs");

  SolveRequest other = request;
  other.k = 3;
  EXPECT_NE(CacheKey(other, "bs"), base);
  other = request;
  other.seed = 2;
  EXPECT_NE(CacheKey(other, "bs"), base);
  other = request;
  other.options["shots"] = "50";
  EXPECT_NE(CacheKey(other, "bs"), base);
  EXPECT_NE(CacheKey(request, "enum"), base);

  // Deadline and label do NOT affect the key: a cached completed answer is
  // valid under any budget.
  other = request;
  other.deadline_seconds = 5;
  other.label = "renamed";
  EXPECT_EQ(CacheKey(other, "bs"), base);
}

TEST(InstanceCacheTest, HitMissAndCountersMatch) {
  obs::MetricsRegistry::Global().Reset();
  InstanceCache cache(8);
  SolveResponse response;
  response.solution.size = 4;
  response.backend = "bs";

  EXPECT_FALSE(cache.Lookup("key-a").has_value());
  cache.Insert("key-a", response);
  const std::optional<SolveResponse> hit = cache.Lookup("key-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->solution.size, 4);
  EXPECT_EQ(hit->backend, "bs");

  EXPECT_EQ(CounterValue("svc.cache.misses"), 1);
  EXPECT_EQ(CounterValue("svc.cache.hits"), 1);
  EXPECT_EQ(CounterValue("svc.cache.insertions"), 1);
}

TEST(InstanceCacheTest, LruEviction) {
  obs::MetricsRegistry::Global().Reset();
  InstanceCache cache(2);
  SolveResponse response;
  cache.Insert("a", response);
  cache.Insert("b", response);
  ASSERT_TRUE(cache.Lookup("a").has_value());  // refresh a; b is now LRU
  cache.Insert("c", response);                 // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(CounterValue("svc.cache.evictions"), 1);
}

TEST(RegistryTest, BuiltinBackendsRegistered) {
  const SolverRegistry registry = MakeBuiltinRegistry();
  const std::vector<std::string> expected = {"bs",  "enum", "grasp", "hybrid",
                                             "milp", "pia",  "pt",    "qmkp",
                                             "qtkp", "sa"};
  EXPECT_EQ(registry.Names(), expected);
  for (const std::string& name : expected) {
    EXPECT_NE(registry.Get(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Get("nope"), nullptr);
}

TEST(RegistryTest, DirectBackendSolveMatchesGroundTruth) {
  const SolverRegistry registry = MakeBuiltinRegistry();
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  const SolveContext context;
  for (const char* backend : {"bs", "enum"}) {
    const Result<SolveOutcome> outcome =
        registry.Get(backend)->Solve(request, context);
    ASSERT_TRUE(outcome.ok()) << backend << ": " << outcome.status();
    EXPECT_EQ(outcome.value().solution.size, 4) << backend;
    EXPECT_TRUE(outcome.value().completed) << backend;
    EXPECT_TRUE(outcome.value().provably_optimal) << backend;
  }
}

TEST(RegistryTest, MalformedOptionFailsTheJob) {
  const SolverRegistry registry = MakeBuiltinRegistry();
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  // Non-finite numbers are malformed too: a NaN alpha slips past every
  // range check and a NaN time limit would lift milp's default cap.
  const struct {
    const char* backend;
    const char* key;
    const char* value;
  } cases[] = {{"grasp", "iterations", "not-a-number"},
               {"grasp", "alpha", "nan"},
               {"grasp", "alpha", "inf"},
               {"grasp", "alpha", "-inf"},
               {"milp", "time_limit", "nan"}};
  for (const auto& bad : cases) {
    request.backend = bad.backend;
    request.options = {{bad.key, bad.value}};
    const Result<SolveOutcome> outcome =
        registry.Get(bad.backend)->Solve(request, SolveContext{});
    ASSERT_FALSE(outcome.ok()) << bad.key << "=" << bad.value;
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(outcome.status().message().find(bad.key), std::string::npos)
        << outcome.status();
  }
}

TEST(RegistryTest, QuboBackendsStoppedInTheBuildReturnAnEmptyIncompleteOutcome) {
  // A build the context stops is not a failure: OK, not completed, no
  // solution, so the scheduler reports "stopped early" and never retries.
  // qtkp and qmkp hold to the same contract: qtkp polls before its first
  // Grover attempt, qmkp before its first binary-search probe.
  const SolverRegistry registry = MakeBuiltinRegistry();
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  CancelToken cancel;
  cancel.Cancel();
  SolveContext context;
  context.cancel = &cancel;
  for (const char* backend :
       {"sa", "pt", "pia", "hybrid", "milp", "qtkp", "qmkp"}) {
    const std::uint64_t polls_before = cancel.polls();
    const Result<SolveOutcome> outcome =
        registry.Get(backend)->Solve(request, context);
    ASSERT_TRUE(outcome.ok()) << backend << ": " << outcome.status();
    EXPECT_FALSE(outcome.value().completed) << backend;
    EXPECT_EQ(outcome.value().solution.size, 0) << backend;
    EXPECT_TRUE(outcome.value().solution.members.empty()) << backend;
    // The first poll saw the cancellation; nothing ran after it.
    EXPECT_EQ(cancel.polls() - polls_before, 1u) << backend;
  }
}

TEST(RegistryTest, StoppedQuantumBackendsBuildNoOracle) {
  // qtkp polls before its oracle evaluation and qmkp before its first
  // probe, so a job stopped before it starts builds no oracle circuit.
  const SolverRegistry registry = MakeBuiltinRegistry();
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  CancelToken cancel;
  cancel.Cancel();
  SolveContext context;
  context.cancel = &cancel;
  for (const char* oracle : {"circuit", "predicate"}) {
    request.options["oracle"] = oracle;
    for (const char* backend : {"qtkp", "qmkp"}) {
      const std::int64_t builds = CounterValue("oracle.builds");
      const Result<SolveOutcome> outcome =
          registry.Get(backend)->Solve(request, context);
      ASSERT_TRUE(outcome.ok()) << backend << ": " << outcome.status();
      EXPECT_FALSE(outcome.value().completed) << backend;
      EXPECT_EQ(CounterValue("oracle.builds"), builds)
          << backend << " oracle=" << oracle;
    }
  }
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : registry_(MakeBuiltinRegistry()) {}

  SolveRequest Request(const std::string& backend, std::uint64_t seed = 1) {
    SolveRequest request;
    request.graph = TwoBlockGraph();
    request.k = 2;
    request.backend = backend;
    request.seed = seed;
    return request;
  }

  SolverRegistry registry_;
};

TEST_F(SchedulerTest, SingleJobSolvesToOptimum) {
  JobScheduler scheduler(&registry_);
  const Result<JobId> id = scheduler.Submit(Request("bs"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_TRUE(response.provably_optimal);
  EXPECT_EQ(response.backend, "bs");
}

TEST_F(SchedulerTest, UnknownBackendRejectedAtSubmit) {
  JobScheduler scheduler(&registry_);
  const Result<JobId> id = scheduler.Submit(Request("nope"));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, WaitOnUnknownIdFails) {
  JobScheduler scheduler(&registry_);
  const SolveResponse response = scheduler.Wait(12345);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, DeterministicAcrossWorkerCounts) {
  // A mixed-backend batch must produce identical solutions at any worker
  // count — the core service determinism contract.
  const std::vector<std::pair<std::string, std::uint64_t>> batch = {
      {"bs", 1},  {"enum", 1}, {"grasp", 3}, {"grasp", 9},
      {"sa", 5},  {"sa", 7},   {"pt", 2},    {"hybrid", 4},
  };
  auto run_batch = [&](int workers) {
    JobSchedulerOptions options;
    options.num_workers = workers;
    options.enable_cache = false;  // force every job to actually execute
    JobScheduler scheduler(&registry_, options);
    std::vector<JobId> ids;
    for (const auto& [backend, seed] : batch) {
      const Result<JobId> id = scheduler.Submit(Request(backend, seed));
      EXPECT_TRUE(id.ok()) << id.status();
      ids.push_back(id.value());
    }
    std::vector<VertexList> solutions;
    for (const JobId id : ids) {
      const SolveResponse response = scheduler.Wait(id);
      EXPECT_TRUE(response.status.ok()) << response.status;
      solutions.push_back(response.solution.members);
    }
    return solutions;
  };
  const std::vector<VertexList> serial = run_batch(1);
  const std::vector<VertexList> parallel4 = run_batch(4);
  const std::vector<VertexList> parallel8 = run_batch(8);
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel8);
}

TEST_F(SchedulerTest, MillisecondDeadlineReturnsDeadlineExceededPromptly) {
  // Enumeration on G(30, 260) with k = 7 tests ~5.5 M subsets, ~215 ms on a
  // 4-vCPU VM, but the 1 ms deadline must surface within the scheduler's
  // polling granularity.
  JobScheduler scheduler(&registry_);
  SolveRequest request;
  request.graph = RandomGnm(30, 260, 3).value();
  request.k = 7;
  request.backend = "enum";
  request.deadline_seconds = 0.001;
  Stopwatch watch;
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // Generous CI bound: prompt means "milliseconds", not "after the scan".
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
}

TEST_F(SchedulerTest, JobDeadlineCoversTheQuboBuildAndTheAnneal) {
  // The deadline is stamped once, at submission, and the QUBO build and the
  // anneal after it share it. A backend that restarted the remaining budget
  // after its build would overrun by a whole build time; the bound is half
  // a build measured here, so it scales with the build's speed.
  const Graph graph = RandomGnm(150, 300, 5).value();
  Stopwatch build_watch;
  ASSERT_TRUE(BuildMkpQubo(graph, 2).ok());
  const double build_seconds = build_watch.ElapsedSeconds();
  const double deadline_seconds = std::max(0.1, 2 * build_seconds);

  JobSchedulerOptions options;
  options.num_workers = 1;
  options.enable_cache = false;
  JobScheduler scheduler(&registry_, options);
  SolveRequest request;
  request.graph = graph;
  request.k = 2;
  request.backend = "sa";
  request.options["shots"] = "100000000";  // minutes if unbounded
  request.deadline_seconds = deadline_seconds;
  Stopwatch watch;
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  const double overrun_seconds = watch.ElapsedSeconds() - deadline_seconds;
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(overrun_seconds, build_seconds / 2)
      << "build " << build_seconds * 1e3 << " ms, deadline "
      << deadline_seconds * 1e3 << " ms";
}

TEST_F(SchedulerTest, MilpTimeLimitCapsTheSearchUnderALongerDeadline) {
  // milp's time_limit option is a cap of its own: a 10 s job deadline does
  // not lift a 50 ms cap, and the capped search ends not completed.
  JobScheduler scheduler(&registry_);
  SolveRequest request;
  request.graph = RandomGnm(20, 100, 3).value();
  request.k = 2;
  request.backend = "milp";
  request.deadline_seconds = 10;
  request.options["time_limit"] = "0.05";
  Stopwatch watch;
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status;
  EXPECT_NE(response.status.message().find("backend milp stopped early"),
            std::string::npos)
      << response.status;
  EXPECT_GE(response.solution.size, 1);
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
}

TEST_F(SchedulerTest, CancelStopsARunningJob) {
  JobScheduler scheduler(&registry_);
  SolveRequest request;
  request.graph = RandomGnm(48, 400, 11).value();
  request.k = 2;
  request.backend = "grasp";
  request.options["iterations"] = "100000000";  // minutes if uncancelled
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.Cancel(id.value());
  const SolveResponse response = scheduler.Wait(id.value());
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // The incumbent at cancellation time is still attached.
  EXPECT_GE(response.solution.size, 1);
}

TEST_F(SchedulerTest, CancelDuringTheQuboBuildStopsAnSaJobEarly) {
  obs::MetricsRegistry::Global().Reset();
  JobScheduler scheduler(&registry_);
  SolveRequest request;
  // ~1.8M penalty-expansion calls: tens of milliseconds with the flat term
  // store, seconds when every duplicate scanned the neighbour lists.
  request.graph = RandomGnm(150, 300, 5).value();
  request.k = 2;
  request.backend = "sa";
  request.options["shots"] = "100000000";  // minutes if uncancelled
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  while (scheduler.QueueDepth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stopwatch since_cancel;
  scheduler.Cancel(id.value());
  const SolveResponse response = scheduler.Wait(id.value());
  EXPECT_LT(since_cancel.ElapsedSeconds(), 2.0);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.status.message().find("backend sa stopped early"),
            std::string::npos)
      << response.status;
  EXPECT_EQ(response.attempts, 1);
  EXPECT_EQ(CounterValue("svc.backend.sa.failures"), 0);
}

TEST_F(SchedulerTest, PortfolioPicksProvablyOptimalWinnerAndCancelsLosers) {
  obs::MetricsRegistry::Global().Reset();
  JobSchedulerOptions options;
  options.num_workers = 2;
  JobScheduler scheduler(&registry_, options);
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  // bs proves the optimum in microseconds; the grasp racer is configured to
  // grind for minutes unless the portfolio cancellation reaches it.
  request.options["iterations"] = "100000000";
  const Result<JobId> id =
      scheduler.SubmitPortfolio(std::move(request), {"bs", "grasp"});
  ASSERT_TRUE(id.ok()) << id.status();
  Stopwatch watch;
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_TRUE(response.provably_optimal);
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_LT(watch.ElapsedSeconds(), 30.0);
  EXPECT_EQ(CounterValue("svc.portfolio.jobs"), 1);
}

TEST_F(SchedulerTest, CacheHitShortCircuitsRepeatedJobs) {
  obs::MetricsRegistry::Global().Reset();
  JobScheduler scheduler(&registry_);
  const Result<JobId> first = scheduler.Submit(Request("bs"));
  ASSERT_TRUE(first.ok());
  const SolveResponse cold = scheduler.Wait(first.value());
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.metrics.cache_hit);

  const Result<JobId> second = scheduler.Submit(Request("bs"));
  ASSERT_TRUE(second.ok());
  const SolveResponse warm = scheduler.Wait(second.value());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.metrics.cache_hit);
  EXPECT_EQ(warm.solution.members, cold.solution.members);
  EXPECT_EQ(warm.metrics.wall_seconds, 0);

  EXPECT_EQ(CounterValue("svc.cache.hits"), 1);
  EXPECT_EQ(CounterValue("svc.cache.misses"), 1);
  EXPECT_EQ(CounterValue("svc.cache.insertions"), 1);
}

TEST_F(SchedulerTest, CacheDisabledNeverHits) {
  obs::MetricsRegistry::Global().Reset();
  JobSchedulerOptions options;
  options.enable_cache = false;
  JobScheduler scheduler(&registry_, options);
  for (int round = 0; round < 2; ++round) {
    const Result<JobId> id = scheduler.Submit(Request("bs"));
    ASSERT_TRUE(id.ok());
    const SolveResponse response = scheduler.Wait(id.value());
    EXPECT_FALSE(response.metrics.cache_hit);
  }
  EXPECT_EQ(CounterValue("svc.cache.hits"), 0);
}

TEST_F(SchedulerTest, FullQueueRejectsWithResourceExhausted) {
  obs::MetricsRegistry::Global().Reset();
  JobSchedulerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  JobScheduler scheduler(&registry_, options);

  auto slow_request = [&] {
    SolveRequest request;
    request.graph = RandomGnm(48, 400, 13).value();
    request.k = 2;
    request.backend = "grasp";
    request.options["iterations"] = "100000000";
    return request;
  };

  // Job 1 occupies the single worker; wait for it to leave the queue.
  const Result<JobId> running = scheduler.Submit(slow_request());
  ASSERT_TRUE(running.ok());
  for (int spin = 0; spin < 1000 && scheduler.QueueDepth() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(scheduler.QueueDepth(), 0u);

  // Jobs 2 and 3 fill the bounded queue; job 4 must bounce.
  const Result<JobId> queued_a = scheduler.Submit(slow_request());
  const Result<JobId> queued_b = scheduler.Submit(slow_request());
  ASSERT_TRUE(queued_a.ok());
  ASSERT_TRUE(queued_b.ok());
  const Result<JobId> rejected = scheduler.Submit(slow_request());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("svc.jobs.rejected"), 1);

  for (const JobId id :
       {running.value(), queued_a.value(), queued_b.value()}) {
    scheduler.Cancel(id);
    const SolveResponse response = scheduler.Wait(id);
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  }
}

/// Threads of this process, from /proc/self/task. A thread that was just
/// joined can linger in the list for a moment, so read until two reads a
/// millisecond apart agree.
int ProcessThreads() {
  const auto count = [] {
    int tasks = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++tasks;
    }
    return tasks;
  };
  int previous = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int current = count();
    if (current == previous) {
      break;
    }
    previous = current;
  }
  return previous;
}

TEST_F(SchedulerTest, StartsOneThreadPerWorkerPlusTheWatchdog) {
  {
    const int before = ProcessThreads();
    JobSchedulerOptions options;
    options.num_workers = 4;
    JobScheduler scheduler(&registry_, options);
    EXPECT_EQ(ProcessThreads() - before, 4);
  }
  {
    const int before = ProcessThreads();
    JobSchedulerOptions options;
    options.num_workers = 1;
    options.watchdog_stall_ms = 50;
    JobScheduler scheduler(&registry_, options);
    EXPECT_EQ(ProcessThreads() - before, 2);
    // The single worker's loop runs inline on the dispatcher.
    const Result<JobId> id = scheduler.Submit(Request("bs"));
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(scheduler.Wait(id.value()).solution.size, 4);
  }
}

TEST_F(SchedulerTest, DestructorDrainsUnwaitedJobs) {
  obs::MetricsRegistry::Global().Reset();
  {
    JobScheduler scheduler(&registry_);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(scheduler.Submit(Request("bs")).ok());
    }
    // No Wait: the destructor must still execute everything.
  }
  EXPECT_EQ(CounterValue("svc.jobs.completed"), 4);
}

// ---------------------------------------------------------------------------
// Resilience layer: fault injection, retry/backoff, fallback chains.

TEST(FaultSpecTest, ParsesProbabilityEveryNAndSeeds) {
  const auto rules =
      resilience::ParseFaultSpec("solver_throw:0.3:7,io_read:5");
  ASSERT_TRUE(rules.ok()) << rules.status();
  ASSERT_EQ(rules.value().size(), 2u);
  EXPECT_EQ(rules.value()[0].first, resilience::FaultSite::kSolverThrow);
  EXPECT_DOUBLE_EQ(rules.value()[0].second.probability, 0.3);
  EXPECT_EQ(rules.value()[0].second.every_n, 0);
  EXPECT_EQ(rules.value()[0].second.seed, 7u);
  // A plain integer rate means "every Nth call", seed defaults to 1.
  EXPECT_EQ(rules.value()[1].first, resilience::FaultSite::kIoRead);
  EXPECT_EQ(rules.value()[1].second.every_n, 5);
  EXPECT_EQ(rules.value()[1].second.seed, 1u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  // Numbers are parsed strictly: no sign, no padding, and a negative seed
  // does not wrap to 2^64 - 1.
  for (const char* spec :
       {"nope:0.5", "alloc", "alloc:abc", "alloc:1.5", "alloc:0",
        "alloc:-1", "alloc:0.5:xyz", "solver_throw:2:-1",
        "solver_throw: 0.5:1", "solver_throw:+3:1", "solver_throw:2:+1",
        "solver_throw:2: 1", "solver_throw:0.5 :1", "solver_throw:+0.5"}) {
    EXPECT_FALSE(resilience::ParseFaultSpec(spec).ok()) << spec;
  }
}

TEST(FaultInjectorTest, EveryNthTriggerIsExact) {
  resilience::FaultInjector injector;
  resilience::FaultRule rule;
  rule.every_n = 3;
  injector.Arm(resilience::FaultSite::kIoRead, rule);
  EXPECT_TRUE(injector.enabled());
  int fires = 0;
  for (int i = 0; i < 9; ++i) {
    if (injector.ShouldFire(resilience::FaultSite::kIoRead)) ++fires;
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(injector.calls(resilience::FaultSite::kIoRead), 9);
  EXPECT_EQ(injector.injected(resilience::FaultSite::kIoRead), 3);
}

TEST(FaultInjectorTest, ProbabilityTriggerIsDeterministicPerCallIndex) {
  resilience::FaultRule rule;
  rule.probability = 0.3;
  rule.seed = 7;
  auto pattern = [&] {
    resilience::FaultInjector injector;
    injector.Arm(resilience::FaultSite::kSolverThrow, rule);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(
          injector.ShouldFire(resilience::FaultSite::kSolverThrow));
    }
    return fired;
  };
  const std::vector<bool> a = pattern();
  const std::vector<bool> b = pattern();
  EXPECT_EQ(a, b);
  const long fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 0);   // p = 0.3 over 200 calls: some must fire...
  EXPECT_LT(fires, 200); // ...and some must not.
}

TEST(FaultInjectorTest, ConfigureReplacesAndEmptySpecDisables) {
  resilience::FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  ASSERT_TRUE(injector.Configure("io_read:2").ok());
  EXPECT_TRUE(injector.enabled());
  // An invalid spec must leave the current configuration untouched.
  EXPECT_FALSE(injector.Configure("bogus:1").ok());
  EXPECT_TRUE(injector.enabled());
  ASSERT_TRUE(injector.Configure("").ok());
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.ShouldFire(resilience::FaultSite::kIoRead));
}

TEST(BackoffTest, DeterministicBoundedAndResettable) {
  resilience::BackoffOptions options;
  options.base_ms = 1.0;
  options.cap_ms = 50.0;
  options.seed = 42;
  std::vector<double> first;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double delay = resilience::DelayAtAttempt(options, attempt);
    EXPECT_GE(delay, options.base_ms);
    EXPECT_LE(delay, options.cap_ms);
    first.push_back(delay);
  }
  // The schedule is a pure function of (options, attempt): asking again from
  // attempt 1 replays it.
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_DOUBLE_EQ(resilience::DelayAtAttempt(options, attempt),
                     first[attempt - 1]);
  }
}

TEST(ClassifyFailureTest, TaxonomyMatchesDesignTable) {
  using resilience::ClassifyFailure;
  using resilience::FailureClass;
  EXPECT_EQ(ClassifyFailure(StatusCode::kInternal), FailureClass::kTransient);
  EXPECT_EQ(ClassifyFailure(StatusCode::kResourceExhausted),
            FailureClass::kDegradable);
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kUnimplemented}) {
    EXPECT_EQ(ClassifyFailure(code), FailureClass::kPermanent)
        << static_cast<int>(code);
  }
}

TEST(RegistryTest, FallbackChainValidation) {
  SolverRegistry registry = MakeBuiltinRegistry();
  EXPECT_FALSE(registry.SetFallback("nope", "bs").ok());
  EXPECT_FALSE(registry.SetFallback("bs", "nope").ok());
  EXPECT_FALSE(registry.SetFallback("bs", "bs").ok());  // self-loop
  ASSERT_TRUE(registry.SetFallback("sa", "bs").ok());
  ASSERT_NE(registry.Fallback("sa"), nullptr);
  EXPECT_EQ(*registry.Fallback("sa"), "bs");
  EXPECT_EQ(registry.Fallback("grasp"), nullptr);
}

TEST(RegistryTest, FallbackChainFollowsLinksAndStopsAtARepeat) {
  SolverRegistry registry = MakeBuiltinRegistry();
  EXPECT_EQ(registry.FallbackChain("qtkp"), std::vector<std::string>{"bs"});
  EXPECT_TRUE(registry.FallbackChain("bs").empty());
  EXPECT_TRUE(registry.FallbackChain("nope").empty());
  // Linked chains are walked in hop order: sa -> pt -> bs.
  ASSERT_TRUE(registry.SetFallback("sa", "pt").ok());
  ASSERT_TRUE(registry.SetFallback("pt", "bs").ok());
  EXPECT_EQ(registry.FallbackChain("sa"),
            (std::vector<std::string>{"pt", "bs"}));
  // A configured cycle (pia -> hybrid -> pia) stops before the repeat, and
  // one that loops back onto a later hop (sa -> pt -> bs -> pt) too.
  ASSERT_TRUE(registry.SetFallback("pia", "hybrid").ok());
  ASSERT_TRUE(registry.SetFallback("hybrid", "pia").ok());
  EXPECT_EQ(registry.FallbackChain("pia"),
            std::vector<std::string>{"hybrid"});
  ASSERT_TRUE(registry.SetFallback("bs", "pt").ok());
  EXPECT_EQ(registry.FallbackChain("sa"),
            (std::vector<std::string>{"pt", "bs"}));
}

TEST(RegistryTest, BuiltinFallbackChainsDeclared) {
  const SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_NE(registry.Fallback("qtkp"), nullptr);
  EXPECT_EQ(*registry.Fallback("qtkp"), "bs");
  ASSERT_NE(registry.Fallback("qmkp"), nullptr);
  EXPECT_EQ(*registry.Fallback("qmkp"), "bs");
  ASSERT_NE(registry.Fallback("milp"), nullptr);
  EXPECT_EQ(*registry.Fallback("milp"), "grasp");
}

/// Always throws: the scheduler's exception barrier must contain it.
class ThrowingSolver : public Solver {
 public:
  std::string_view name() const override { return "boom"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    throw std::runtime_error("synthetic backend crash");
  }
};

/// Fails with kInternal `failures` times, then succeeds.
class FlakySolver : public Solver {
 public:
  explicit FlakySolver(int failures) : failures_(failures) {}
  std::string_view name() const override { return "flaky"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    if (calls_.fetch_add(1) < failures_) {
      return Status::Internal("flaky backend failure");
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

/// Always fails with kResourceExhausted: must degrade, never retry.
class OomSolver : public Solver {
 public:
  explicit OomSolver(std::string name = "oom") : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    return Status::ResourceExhausted("synthetic memory budget breach");
  }

 private:
  std::string name_;
};

JobSchedulerOptions FastRetryOptions() {
  JobSchedulerOptions options;
  options.retry.backoff_base_ms = 0.01;  // keep retry sleeps negligible
  options.retry.backoff_cap_ms = 0.1;
  return options;
}

TEST_F(SchedulerTest, ThrowingBackendBecomesInternalAndExhaustsRetries) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_unique<ThrowingSolver>()).ok());
  JobSchedulerOptions options = FastRetryOptions();
  options.retry.max_retries = 2;
  JobScheduler scheduler(&registry, options);

  SolveRequest request = Request("boom");
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  // The throw is contained as a per-job status naming backend and what();
  // the process (and the worker pool) survives.
  EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  EXPECT_NE(response.status.message().find("boom"), std::string::npos);
  EXPECT_NE(response.status.message().find("synthetic backend crash"),
            std::string::npos);
  EXPECT_EQ(response.attempts, 3);  // 1 first attempt + 2 retries
  EXPECT_EQ(CounterValue("svc.backend.boom.exceptions"), 3);
  EXPECT_EQ(CounterValue("svc.retries.scheduled"), 2);
  EXPECT_EQ(CounterValue("svc.retries.exhausted"), 1);

  // The scheduler is still healthy: a follow-up job runs normally.
  ASSERT_TRUE(scheduler.Submit(Request("boom")).ok());
}

TEST_F(SchedulerTest, TransientFailureRecoversViaRetry) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_unique<FlakySolver>(2)).ok());
  JobScheduler scheduler(&registry, FastRetryOptions());  // max_retries = 2

  SolveRequest request = Request("flaky");
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.attempts, 3);
  EXPECT_EQ(response.solution.size, 1);
  EXPECT_EQ(CounterValue("svc.retries.scheduled"), 2);
  EXPECT_EQ(CounterValue("svc.retries.exhausted"), 0);
}

TEST_F(SchedulerTest, ResourceExhaustedWalksFallbackChain) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_TRUE(registry.Register(std::make_unique<OomSolver>()).ok());
  ASSERT_TRUE(registry.SetFallback("oom", "bs").ok());
  JobScheduler scheduler(&registry, FastRetryOptions());

  const Result<JobId> id = scheduler.Submit(Request("oom"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_EQ(response.degraded_from, "oom");
  EXPECT_NE(response.degradation_reason.find("synthetic memory budget"),
            std::string::npos);
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_TRUE(response.provably_optimal);
  EXPECT_EQ(response.attempts, 1);  // degradable failures are not retried
  EXPECT_EQ(CounterValue("svc.fallbacks.taken"), 1);

  // Degraded answers are never cached (the key names the requested
  // backend): a repeat submission walks the chain again.
  const Result<JobId> again = scheduler.Submit(Request("oom"));
  ASSERT_TRUE(again.ok());
  const SolveResponse repeat = scheduler.Wait(again.value());
  ASSERT_TRUE(repeat.status.ok()) << repeat.status;
  EXPECT_EQ(CounterValue("svc.fallbacks.taken"), 2);
  EXPECT_EQ(CounterValue("svc.cache.hits"), 0);
}

TEST_F(SchedulerTest, TwoHopChainDegradesPastAFailingHop) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_TRUE(registry.Register(std::make_unique<OomSolver>("a")).ok());
  ASSERT_TRUE(registry.Register(std::make_unique<OomSolver>("b")).ok());
  ASSERT_TRUE(registry.SetFallback("a", "b").ok());
  ASSERT_TRUE(registry.SetFallback("b", "bs").ok());
  JobScheduler scheduler(&registry, FastRetryOptions());

  const Result<JobId> id = scheduler.Submit(Request("a"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_EQ(response.degraded_from, "a");
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_EQ(response.attempts, 1);
  EXPECT_EQ(CounterValue("svc.fallbacks.taken"), 2);
  EXPECT_EQ(CounterValue("svc.backend.a.failures"), 1);
  EXPECT_EQ(CounterValue("svc.backend.b.failures"), 1);
}

TEST_F(SchedulerTest, FallbackCycleEndsAfterOneHop) {
  obs::MetricsRegistry::Global().Reset();
  SolverRegistry registry = MakeBuiltinRegistry();
  ASSERT_TRUE(registry.Register(std::make_unique<OomSolver>("a")).ok());
  ASSERT_TRUE(registry.Register(std::make_unique<OomSolver>("b")).ok());
  ASSERT_TRUE(registry.SetFallback("a", "b").ok());
  ASSERT_TRUE(registry.SetFallback("b", "a").ok());
  JobScheduler scheduler(&registry, FastRetryOptions());

  const Result<JobId> id = scheduler.Submit(Request("a"));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
      << response.status;
  EXPECT_EQ(response.attempts, 1);
  EXPECT_EQ(CounterValue("svc.fallbacks.taken"), 1);
  EXPECT_EQ(CounterValue("svc.backend.a.failures"), 1);
  EXPECT_EQ(CounterValue("svc.backend.b.failures"), 1);
}

TEST_F(SchedulerTest, QtkpDegradesToBsUnderTinySimulationBudget) {
  obs::MetricsRegistry::Global().Reset();
  // 8 vertices need a 2^8-amplitude register (4096 bytes); a 256-byte
  // budget forces qtkp into kResourceExhausted and down its chain to bs.
  SetMaxSimulationBytes(256);
  struct BudgetRestore {
    ~BudgetRestore() { SetMaxSimulationBytes(0); }
  } restore;

  JobScheduler scheduler(&registry_, FastRetryOptions());
  SolveRequest request = Request("qtkp");
  request.options["threshold"] = "4";
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  const SolveResponse response = scheduler.Wait(id.value());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.backend, "bs");
  EXPECT_EQ(response.degraded_from, "qtkp");
  EXPECT_NE(response.degradation_reason.find("simulation budget"),
            std::string::npos);
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_EQ(CounterValue("svc.fallbacks.taken"), 1);
}

TEST_F(SchedulerTest, CacheInsertFaultDropsInsertSafely) {
  obs::MetricsRegistry::Global().Reset();
  resilience::FaultInjector& injector = resilience::FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("cache_insert:1:1").ok());
  struct InjectorRestore {
    ~InjectorRestore() { resilience::FaultInjector::Global().Reset(); }
  } restore;

  JobScheduler scheduler(&registry_);  // cache enabled
  for (int round = 0; round < 2; ++round) {
    const Result<JobId> id = scheduler.Submit(Request("bs"));
    ASSERT_TRUE(id.ok()) << id.status();
    const SolveResponse response = scheduler.Wait(id.value());
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.solution.size, 4);
  }
  // Every insert was dropped, so the repeat run could not hit the cache —
  // a lost cache entry degrades throughput, never correctness.
  EXPECT_EQ(CounterValue("svc.cache.dropped_inserts"), 2);
  EXPECT_EQ(CounterValue("svc.cache.hits"), 0);
}

TEST_F(SchedulerTest, CancelWhileBlockedInWait) {
  // qplex_serve's signal watcher cancels the job the main thread is
  // currently Wait()ing on; the job must stay addressable during the wait.
  JobScheduler scheduler(&registry_);
  SolveRequest request = Request("grasp");
  request.graph = RandomGnm(48, 400, 13).value();
  request.options["iterations"] = "100000000";
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  std::thread canceller([&scheduler, &id] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    scheduler.Cancel(id.value());
  });
  const SolveResponse response = scheduler.Wait(id.value());
  canceller.join();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(response.solution.size, 1);  // incumbent attached
}

TEST_F(SchedulerTest, SecondWaitOnConsumedJobFails) {
  JobScheduler scheduler(&registry_);
  const Result<JobId> id = scheduler.Submit(Request("bs"));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(scheduler.Wait(id.value()).status.ok());
  EXPECT_EQ(scheduler.Wait(id.value()).status.code(),
            StatusCode::kInvalidArgument);
}

// --- TryWait: the non-blocking completion probe ------------------------------

/// Holds its execution open until Release(): lets a test pin a job in the
/// running state and probe TryWait against every lifecycle edge. Polls the
/// cancel token (heartbeating) so cancellation still releases it.
class GateSolver : public Solver {
 public:
  std::string_view name() const override { return "gate"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext& context) const override {
    started_.store(true);
    bool cancelled = false;
    while (!released_.load()) {
      if (context.cancel != nullptr && context.cancel->Poll()) {
        cancelled = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SolveOutcome outcome;
    outcome.solution.size = 1;
    outcome.solution.members = {0};
    outcome.completed = !cancelled;
    return outcome;
  }
  void Release() { released_.store(true); }
  bool started() const { return started_.load(); }

 private:
  mutable std::atomic<bool> started_{false};
  std::atomic<bool> released_{false};
};

/// Spins until TryWait consumes the job, with a generous CI bound.
bool PollTryWait(JobScheduler& scheduler, JobId id, SolveResponse* response) {
  for (int i = 0; i < 20000; ++i) {
    if (scheduler.TryWait(id, response)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST_F(SchedulerTest, TryWaitIsNonBlockingWhileRunningAndConsumesWhenDone) {
  SolverRegistry registry;
  auto* gate = new GateSolver();
  ASSERT_TRUE(registry.Register(std::unique_ptr<Solver>(gate)).ok());
  JobScheduler scheduler(&registry);

  const Result<JobId> id = scheduler.Submit(Request("gate"));
  ASSERT_TRUE(id.ok()) << id.status();
  while (!gate->started()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Running: the probe returns false and must not consume or block.
  SolveResponse response;
  EXPECT_FALSE(scheduler.TryWait(id.value(), &response));
  EXPECT_FALSE(scheduler.TryWait(id.value(), &response));

  gate->Release();
  ASSERT_TRUE(PollTryWait(scheduler, id.value(), &response));
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.solution.size, 1);

  // TryWait consumed the response exactly like Wait: a second probe (and a
  // blocking Wait) both report the id as already consumed.
  EXPECT_TRUE(scheduler.TryWait(id.value(), &response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Wait(id.value()).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, TryWaitUnknownIdReportsInvalidArgumentImmediately) {
  JobScheduler scheduler(&registry_);
  SolveResponse response;
  EXPECT_TRUE(scheduler.TryWait(424242, &response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, TryWaitObservesCancellationWithIncumbentAttached) {
  SolverRegistry registry;
  auto* gate = new GateSolver();
  ASSERT_TRUE(registry.Register(std::unique_ptr<Solver>(gate)).ok());
  JobScheduler scheduler(&registry);

  const Result<JobId> id = scheduler.Submit(Request("gate"));
  ASSERT_TRUE(id.ok()) << id.status();
  while (!gate->started()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SolveResponse response;
  ASSERT_FALSE(scheduler.TryWait(id.value(), &response));
  scheduler.Cancel(id.value());  // never Release(): only the cancel frees it
  ASSERT_TRUE(PollTryWait(scheduler, id.value(), &response));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(response.solution.size, 1);  // incumbent attached
}

TEST_F(SchedulerTest, TryWaitObservesDeadlineExpiry) {
  // Same instance as the blocking-deadline test: ~215 ms of enumeration
  // against a 1 ms budget, but observed through the non-blocking probe the
  // socket serve loop uses.
  JobScheduler scheduler(&registry_);
  SolveRequest request;
  request.graph = RandomGnm(30, 260, 3).value();
  request.k = 7;
  request.backend = "enum";
  request.deadline_seconds = 0.001;
  Stopwatch watch;
  const Result<JobId> id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status();
  SolveResponse response;
  ASSERT_TRUE(PollTryWait(scheduler, id.value(), &response));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
}

TEST_F(SchedulerTest, TryWaitConsumesMergedPortfolioWinner) {
  JobScheduler scheduler(&registry_);
  SolveRequest request = Request("bs");
  const Result<JobId> id =
      scheduler.SubmitPortfolio(std::move(request), {"bs", "grasp"});
  ASSERT_TRUE(id.ok()) << id.status();
  SolveResponse response;
  ASSERT_TRUE(PollTryWait(scheduler, id.value(), &response));
  ASSERT_TRUE(response.status.ok()) << response.status;
  // The merge ran exactly as it would for Wait(): the provably optimal
  // racer wins and the probe hands over the merged response once.
  EXPECT_EQ(response.solution.size, 4);
  EXPECT_EQ(response.backend, "bs");
  EXPECT_TRUE(scheduler.TryWait(id.value(), &response));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

// --- Request-scoped tracing through the scheduler ----------------------------

std::filesystem::path SvcEventsPath(const std::string& name) {
  return ScratchDir() / name;
}

/// Records whether a job trace was open while the backend solved, and what
/// its current span's path looked like.
class ScopeProbeSolver : public Solver {
 public:
  std::string_view name() const override { return "probe"; }
  Result<SolveOutcome> Solve(const SolveRequest&,
                             const SolveContext&) const override {
    if (const std::string_view path = obs::CurrentSpanPath(); !path.empty()) {
      std::lock_guard<std::mutex> lock(mutex_);  // racing jobs share the probe
      observed_paths_.emplace_back(path);
    }
    obs::ProgressHeartbeat heartbeat("probe");
    if (heartbeat.Due()) {
      heartbeat.Emit({{"step", 1}});
    }
    SolveOutcome outcome;
    outcome.solution.size = 1;
    outcome.solution.members = {0};
    return outcome;
  }

  mutable std::mutex mutex_;
  mutable std::vector<std::string> observed_paths_;
};

TEST_F(SchedulerTest, SolverRunsInsideTheJobsTrace) {
  const std::filesystem::path path = SvcEventsPath("scope_probe.jsonl");
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry;
  auto solver = std::make_unique<ScopeProbeSolver>();
  ScopeProbeSolver* probe = solver.get();
  ASSERT_TRUE(registry.Register(std::move(solver)).ok());
  {
    JobSchedulerOptions options = FastRetryOptions();
    options.num_workers = 1;
    JobScheduler scheduler(&registry, options);
    const Result<JobId> id = scheduler.Submit(Request("probe"));
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(scheduler.Wait(id.value()).status.ok());
  }
  obs::EventSink::InstallGlobal(nullptr);

  ASSERT_EQ(probe->observed_paths_.size(), 1u);
  // The backend executes under job/racer@.../attempt@1/svc.job/solve.
  EXPECT_NE(probe->observed_paths_[0].find("attempt@1"), std::string::npos)
      << probe->observed_paths_[0];
  EXPECT_NE(probe->observed_paths_[0].find("/solve"), std::string::npos)
      << probe->observed_paths_[0];
}

TEST_F(SchedulerTest, RacingJobsKeepIndependentHeartbeatCadences) {
  // Regression: the heartbeat throttle used to key on (solver, event) only,
  // so with a long interval the first racing job's heartbeat silenced every
  // other job's. The key now carries the active trace id.
  const std::filesystem::path path = SvcEventsPath("racing_heartbeats.jsonl");
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string(), 3'600'000);  // one heartbeat/key/hour
  ASSERT_TRUE(sink.ok()) << sink.status();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_unique<ScopeProbeSolver>()).ok());
  {
    JobSchedulerOptions options = FastRetryOptions();
    options.num_workers = 2;
    options.enable_cache = false;  // both jobs must actually execute
    JobScheduler scheduler(&registry, options);
    SolveRequest first = Request("probe");
    first.label = "race-a";
    SolveRequest second = Request("probe");
    second.label = "race-b";
    const Result<JobId> id_a = scheduler.Submit(std::move(first));
    const Result<JobId> id_b = scheduler.Submit(std::move(second));
    ASSERT_TRUE(id_a.ok());
    ASSERT_TRUE(id_b.ok());
    ASSERT_TRUE(scheduler.Wait(id_a.value()).status.ok());
    ASSERT_TRUE(scheduler.Wait(id_b.value()).status.ok());
  }
  obs::EventSink::InstallGlobal(nullptr);

  // Both jobs landed their first heartbeat despite the hour-long interval.
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> heartbeat_traces;
  while (std::getline(in, line)) {
    const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const obs::JsonValue* event = parsed.value().Find("event");
    if (event != nullptr && event->AsString() == "progress") {
      heartbeat_traces.push_back(parsed.value().Find("trace")->AsString());
    }
  }
  ASSERT_EQ(heartbeat_traces.size(), 2u);
  EXPECT_NE(heartbeat_traces[0], heartbeat_traces[1]);
}

TEST_F(SchedulerTest, TracedJobsLeaveNoHeartbeatThrottleKeys) {
  // Regression: every traced job whose solver polled a heartbeat left one
  // throttle key in the sink for the life of the process (~150 B per job).
  // Each job trace's keys must go when the job ends.
  const std::filesystem::path path = SvcEventsPath("throttle_keys.jsonl");
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string(), 3'600'000);
  ASSERT_TRUE(sink.ok()) << sink.status();
  obs::EventSink::InstallGlobal(sink.value().get());
  {
    JobSchedulerOptions options;
    options.num_workers = 2;
    options.enable_cache = false;  // every job must run its Grover search
    JobScheduler scheduler(&registry_, options);
    // Batches of 40 stay under the admission queue's cap of 64.
    for (std::uint64_t first = 1; first <= 2000; first += 40) {
      std::vector<JobId> ids;
      for (std::uint64_t seed = first; seed < first + 40; ++seed) {
        SolveRequest request = Request("qtkp", seed);
        // T = 4 leaves few marked states, so every search iterates (and
        // polls its heartbeat) at least once.
        request.options["threshold"] = "4";
        const Result<JobId> id = scheduler.Submit(std::move(request));
        ASSERT_TRUE(id.ok()) << id.status();
        ids.push_back(id.value());
      }
      for (const JobId id : ids) {
        ASSERT_TRUE(scheduler.Wait(id).status.ok());
      }
    }
  }
  const std::size_t keys = sink.value()->progress_key_count();
  obs::EventSink::InstallGlobal(nullptr);
  EXPECT_LE(keys, 4u);
}

/// One seeded chaos batch: flaky retries, an oom->bs fallback hop, and plain
/// jobs, all on one worker so execution order is the submission order.
/// Returns the rendered trace forest; asserts basic connectivity.
std::string RunChaosBatch(const std::string& events_name) {
  const std::filesystem::path path = SvcEventsPath(events_name);
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string());
  QPLEX_CHECK(sink.ok()) << sink.status().ToString();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry = MakeBuiltinRegistry();
  QPLEX_CHECK(registry.Register(std::make_unique<FlakySolver>(2)).ok());
  QPLEX_CHECK(registry.Register(std::make_unique<OomSolver>()).ok());
  QPLEX_CHECK(registry.SetFallback("oom", "bs").ok());
  {
    JobSchedulerOptions options = FastRetryOptions();
    options.num_workers = 1;
    JobScheduler scheduler(&registry, options);
    std::vector<JobId> ids;
    int index = 0;
    for (const std::string backend : {"flaky", "oom", "bs", "bs"}) {
      SolveRequest request;
      request.graph = ParseEdgeList(
                          "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n"
                          "5 6\n5 7\n6 7\n")
                          .value();
      request.k = 2;
      request.backend = backend;
      request.seed = 1;
      request.label = "chaos-" + std::to_string(index++);
      const Result<JobId> id = scheduler.Submit(std::move(request));
      QPLEX_CHECK(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    for (const JobId id : ids) {
      const SolveResponse response = scheduler.Wait(id);
      QPLEX_CHECK(response.status.ok()) << response.status.ToString();
    }
  }
  obs::EventSink::InstallGlobal(nullptr);
  sink.value().reset();

  const Result<obs::EventLog> log = obs::LoadEventLog(path.string());
  QPLEX_CHECK(log.ok()) << log.status().ToString();
  const std::vector<obs::TraceSummary> forest =
      obs::BuildTraceForest(log.value());

  // Every job is one connected tree: no orphans, and every job_end trace id
  // has a forest entry whose single root is the "job" span.
  EXPECT_EQ(obs::CountOrphans(forest), 0u) << obs::FormatTraceForest(forest);
  EXPECT_EQ(log.value().jobs.size(), 4u);
  for (const obs::JobRecord& job : log.value().jobs) {
    const auto match =
        std::find_if(forest.begin(), forest.end(),
                     [&job](const obs::TraceSummary& summary) {
                       return summary.trace == job.trace;
                     });
    if (match == forest.end()) {
      ADD_FAILURE() << "no trace tree for job " << job.label;
      continue;
    }
    if (match->roots.size() != 1u) {
      ADD_FAILURE() << job.label << ": " << match->roots.size() << " roots";
      continue;
    }
    EXPECT_EQ(match->roots[0].record.name, "job");
    EXPECT_FALSE(match->roots[0].children.empty()) << job.label;
  }

  // The retry path shows up as attempt spans + backoff spans, the fallback
  // path as a fallback@bs hop.
  const std::string folded = obs::FormatFoldedStacks(forest);
  EXPECT_NE(folded.find("attempt@3"), std::string::npos) << folded;
  EXPECT_NE(folded.find("backoff@2"), std::string::npos) << folded;
  EXPECT_NE(folded.find("fallback@bs"), std::string::npos) << folded;
  return obs::FormatTraceForest(forest);
}

constexpr char kPinnedChaosForest[] =
    "trace 65acf7e51aa75fb2 label=chaos-0 job=1 backend=flaky status=OK\n"
    "  job  count=1\n"
    "    racer@flaky  count=3\n"
    "      attempt@1  count=1\n"
    "        svc.job  count=1\n"
    "          cache  count=1\n"
    "          queue  count=1\n"
    "          solve  count=1\n"
    "      attempt@2  count=1\n"
    "        svc.job  count=1\n"
    "          solve  count=1\n"
    "      attempt@3  count=1\n"
    "        svc.job  count=1\n"
    "          solve  count=1\n"
    "      backoff@1  count=1\n"
    "      backoff@2  count=1\n"
    "trace 6e5d9de51f95c61c label=chaos-1 job=2 backend=bs status=OK\n"
    "  job  count=1\n"
    "    racer@oom  count=1\n"
    "      attempt@1  count=1\n"
    "        svc.job  count=1\n"
    "          cache  count=1\n"
    "          fallback@bs  count=1\n"
    "            solve  count=1\n"
    "              bs.solve  count=1\n"
    "                bs.branch  count=1\n"
    "                bs.reduce  count=1\n"
    "          queue  count=1\n"
    "          solve  count=1\n"
    "trace 538e1be5102a2826 label=chaos-2 job=3 backend=bs status=OK\n"
    "  job  count=1\n"
    "    racer@bs  count=1\n"
    "      attempt@1  count=1\n"
    "        svc.job  count=1\n"
    "          cache  count=1\n"
    "          queue  count=1\n"
    "          solve  count=1\n"
    "            bs.solve  count=1\n"
    "              bs.branch  count=1\n"
    "              bs.reduce  count=1\n"
    "trace 5cfcd5e515b9d994 label=chaos-3 job=4 backend=bs status=OK\n"
    "  job  count=1\n"
    "    racer@bs  count=1\n"
    "      attempt@1  count=1\n"
    "        svc.job  count=1\n"
    "          cache  count=1\n"
    "          queue  count=1\n";

TEST_F(SchedulerTest, SeededChaosRunYieldsConnectedByteIdenticalTraces) {
  obs::MetricsRegistry::Global().Reset();
  const std::string first = RunChaosBatch("chaos_a.jsonl");
  const std::string second = RunChaosBatch("chaos_b.jsonl");
  // Structural span ids + deterministic single-worker scheduling: the whole
  // reconstructed forest renders byte-identically across same-seed runs.
  EXPECT_EQ(first, second) << first;

  // Two runs of the same code agree even if both move a span; the literal
  // pins every path and count of the span-event contract.
  EXPECT_EQ(first, kPinnedChaosForest) << first;

  // A span id is the hash of "<trace>:<path>", on every span line.
  std::ifstream in(SvcEventsPath("chaos_a.jsonl"));
  std::string line;
  int spans = 0;
  while (std::getline(in, line)) {
    const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const obs::JsonValue& event = parsed.value();
    if (event.Find("event")->AsString() != "span") {
      continue;
    }
    ++spans;
    EXPECT_EQ(event.Find("span")->AsString(),
              obs::IdHex(obs::Fnv1a64(event.Find("trace")->AsString() + ":" +
                                      event.Find("path")->AsString())))
        << line;
  }
  EXPECT_GT(spans, 0);
}

}  // namespace
}  // namespace qplex::svc
