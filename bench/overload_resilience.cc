// Overload/health bench (DESIGN.md section 15). Three deterministic phases
// gate the health subsystem's counters against committed baselines:
//
//  1. Breaker brownout (captured): 12 jobs against an always-failing backend
//     with breakers enabled (threshold 2, cooldown 4) and a registry
//     fallback onto bs, under --workers 1 with sequential waits. The consult
//     order is the submission order, so which jobs trip the breaker, how
//     many consults short-circuit straight onto the fallback, and when the
//     half-open probe runs (and re-opens) are all pure functions of the
//     configuration — resilience.breaker.* and svc.fallbacks.taken are
//     gated exactly.
//
//  2. Watchdog sweep (captured): 4 jobs against a backend that wedges
//     without heartbeating (direct Cancelled() reads, never Poll), under a
//     30 ms stall budget. Every execution is killed exactly once and falls
//     back to bs, so svc.watchdog.kills is exact. The wall-clock cost of
//     the kills is machine-dependent and lands in report meta.
//
//  3. Admission sweep (captured): a synthetic 200-step queue-delay/depth
//     trace driven through the OverloadController (2x nominal capacity with
//     periodic open-breaker pressure). The EWMA arithmetic is plain doubles
//     over a fixed trace, so svc.admission.shed and its per-reason split
//     are exact; the retry_after hints land in a gated histogram.
//
// Wall-clocks (and anything else machine-dependent) go in report *meta*,
// which benchdiff never compares.

#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "resilience/breaker.h"
#include "resilience/health.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "svc/solver.h"

namespace qplex {
namespace {

/// Always fails with kInternal: the breaker-countable failure class.
class SickSolver : public svc::Solver {
 public:
  std::string_view name() const override { return "sick"; }
  Result<svc::SolveOutcome> Solve(const svc::SolveRequest&,
                                  const svc::SolveContext&) const override {
    return Status::Internal("synthetic brownout");
  }
};

/// Wedges without one heartbeat until cancelled: direct Cancelled() reads
/// keep the poll counter frozen, so the watchdog sees zero progress.
class StallSolver : public svc::Solver {
 public:
  std::string_view name() const override { return "stall"; }
  Result<svc::SolveOutcome> Solve(
      const svc::SolveRequest&, const svc::SolveContext& context) const override {
    while (context.cancel != nullptr && !context.cancel->Cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("stall released without cancellation");
  }
};

svc::SolveRequest Request(const std::string& backend, int i) {
  svc::SolveRequest request;
  request.graph = RandomGnm(16, 48, 1 + i).value();
  request.k = 2;
  request.backend = backend;
  request.seed = 7;
  return request;
}

}  // namespace
}  // namespace qplex

int main() {
  using namespace qplex;
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
  auto& metrics = obs::MetricsRegistry::Global();

  std::cout << "Overload bench\n\n-- phase 1: breaker brownout (12 jobs, "
               "threshold 2, cooldown 4) --\n";
  svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  QPLEX_CHECK(registry.Register(std::make_unique<SickSolver>()).ok());
  QPLEX_CHECK(registry.Register(std::make_unique<StallSolver>()).ok());
  QPLEX_CHECK(registry.SetFallback("sick", "bs").ok());
  QPLEX_CHECK(registry.SetFallback("stall", "bs").ok());

  std::int64_t brownout_ok = 0;
  std::int64_t brownout_size = 0;
  {
    svc::JobSchedulerOptions options;
    options.num_workers = 1;
    options.enable_cache = false;
    options.retry.max_retries = 0;
    options.breaker.failure_threshold = 2;
    options.breaker.cooldown_consults = 4;
    svc::JobScheduler scheduler(&registry, options);
    for (int i = 0; i < 12; ++i) {
      const Result<svc::JobId> id = scheduler.Submit(Request("sick", i));
      QPLEX_CHECK(id.ok()) << id.status().ToString();
      const svc::SolveResponse response = scheduler.Wait(id.value());
      if (response.status.ok()) {
        ++brownout_ok;
        brownout_size += response.solution.size;
      }
    }
  }
  metrics.GetCounter("bench.brownout_recovered_jobs").Add(brownout_ok);
  metrics.GetCounter("bench.brownout_solution_size").Add(brownout_size);
  std::cout << "  " << brownout_ok << "/12 jobs answered via fallback, "
            << "breaker opened "
            << metrics.GetCounter("resilience.breaker.opened").Get()
            << "x, short-circuits "
            << metrics.GetCounter("resilience.breaker.short_circuits").Get()
            << ", probes "
            << metrics.GetCounter("resilience.breaker.probes").Get() << "\n";

  std::cout << "\n-- phase 2: watchdog sweep (4 wedged jobs, 30 ms stall "
               "budget) --\n";
  Stopwatch watchdog_watch;
  std::int64_t watchdog_ok = 0;
  {
    svc::JobSchedulerOptions options;
    options.num_workers = 1;
    options.enable_cache = false;
    options.retry.max_retries = 0;
    options.watchdog_stall_ms = 30;
    options.watchdog_poll_ms = 2;
    svc::JobScheduler scheduler(&registry, options);
    for (int i = 0; i < 4; ++i) {
      const Result<svc::JobId> id = scheduler.Submit(Request("stall", i));
      QPLEX_CHECK(id.ok()) << id.status().ToString();
      const svc::SolveResponse response = scheduler.Wait(id.value());
      if (response.status.ok()) {
        ++watchdog_ok;
      }
    }
  }
  const double watchdog_wall = watchdog_watch.ElapsedSeconds();
  metrics.GetCounter("bench.watchdog_recovered_jobs").Add(watchdog_ok);
  std::cout << "  " << watchdog_ok << "/4 wedged jobs recovered via bs, kills "
            << metrics.GetCounter("svc.watchdog.kills").Get() << " in "
            << watchdog_wall << " s\n";

  std::cout << "\n-- phase 3: admission sweep (200-step synthetic overload "
               "trace) --\n";
  resilience::OverloadOptions overload_options;
  overload_options.target_delay_ms = 10;
  overload_options.ewma_alpha = 0.3;
  overload_options.shed_factor = 2.0;
  overload_options.min_backlog = 2;
  resilience::OverloadController overload(overload_options);
  std::int64_t admitted = 0;
  for (int i = 0; i < 200; ++i) {
    // A sawtooth delay ramp (0..58.5 ms) against a depth-8 cycle over a
    // 6-slot backlog, with an open breaker every 50th step: roughly 2x the
    // sustainable load, entirely fixed-point deterministic.
    overload.RecordQueueDelay(static_cast<double>(i % 40) * 1.5);
    const int open_breakers = i % 50 == 0 ? 1 : 0;
    const resilience::OverloadController::Decision decision =
        overload.Admit(static_cast<std::size_t>(i % 8), 6, open_breakers);
    if (decision.admit) {
      ++admitted;
    }
  }
  metrics.GetCounter("bench.overload_admitted").Add(admitted);
  std::cout << "  " << admitted << "/200 admitted, shed "
            << metrics.GetCounter("svc.admission.shed").Get() << " (backlog "
            << metrics.GetCounter("svc.admission.shed.backlog_full").Get()
            << ", delay "
            << metrics.GetCounter("svc.admission.shed.queue_delay").Get()
            << ")\n";

  obs::RunReport report("Overload");
  report.SetMeta("watchdog_wall_seconds", watchdog_wall);
  report.Capture();
  bench::EmitBenchReport(report);
  return 0;
}
