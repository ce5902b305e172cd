// End-to-end tests of the anytime-convergence telemetry: every backend's
// IncumbentReporter timeline must improve strictly and monotonically, the
// qplex_obs convergence report must reconstruct byte-identically from the
// JSONL stream regardless of scheduler thread count (the default report
// carries no wall-clock and no seq ordering), and a portfolio race summary
// must name the same winner the scheduler's deterministic merge rule picked.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "obs/analysis.h"
#include "obs/convergence.h"
#include "obs/events.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "scratch_dir.h"

namespace qplex::svc {
namespace {

std::filesystem::path EventsPath(const std::string& name) {
  return ScratchDir() / name;
}

// Two K4 blocks joined by one edge; the maximum 2-plex is a K4 (size 4).
Graph TwoBlockGraph() {
  return ParseEdgeList(
             "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n"
             "5 6\n5 7\n6 7\n")
      .value();
}

SolveRequest Request(const std::string& backend, const std::string& label) {
  SolveRequest request;
  request.graph = TwoBlockGraph();
  request.k = 2;
  request.backend = backend;
  request.seed = 7;
  request.label = label;
  return request;
}

/// Runs one seeded batch of single-backend jobs under an event sink writing
/// to `path`, then returns the parsed event log. Cache off so every job
/// executes; no deadlines so the work-unit streams are deterministic.
obs::EventLog RunBatch(const std::vector<std::string>& backends,
                       int num_workers, const std::filesystem::path& path) {
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string());
  QPLEX_CHECK(sink.ok()) << sink.status().ToString();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry;
  QPLEX_CHECK(RegisterBuiltinBackends(&registry).ok());
  {
    JobSchedulerOptions options;
    options.num_workers = num_workers;
    options.enable_cache = false;
    JobScheduler scheduler(&registry, options);
    std::vector<JobId> ids;
    int index = 0;
    for (const std::string& backend : backends) {
      const Result<JobId> id =
          scheduler.Submit(Request(backend, "job-" + std::to_string(index++)));
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

  Result<obs::EventLog> log = obs::LoadEventLog(path.string());
  QPLEX_CHECK(log.ok()) << log.status().ToString();
  return std::move(log.value());
}

TEST(ConvergenceTest, EveryBackendEmitsAMonotoneIncumbentTimeline) {
  const std::vector<std::string> backends = {"bs", "enum", "grasp", "qtkp",
                                             "qmkp", "sa", "pt", "pia",
                                             "hybrid", "milp"};
  const obs::EventLog log =
      RunBatch(backends, /*num_workers=*/2, EventsPath("all_backends.jsonl"));

  // Structural stream validation: strictly improving sizes, non-decreasing
  // work, consecutive improvement indices, tightening bounds.
  const std::vector<std::string> violations = obs::ValidateIncumbents(log);
  EXPECT_TRUE(violations.empty()) << violations.front();

  std::set<std::string> reporting;
  for (const obs::IncumbentRecord& record : log.incumbents) {
    reporting.insert(record.solver);
  }
  for (const std::string& backend : backends) {
    EXPECT_TRUE(reporting.count(backend) > 0)
        << backend << " emitted no incumbent events";
  }

  // The exact searchers close their primal-dual gap: BS bounds its search
  // and the MILP converts its objective bound to a plex-size bound.
  std::set<std::string> bounding;
  for (const obs::BoundRecord& record : log.bounds) {
    bounding.insert(record.solver);
  }
  EXPECT_TRUE(bounding.count("bs") > 0);
  EXPECT_TRUE(bounding.count("milp") > 0);

  // Every emitted line carried a seq stamp, with no duplicates.
  EXPECT_EQ(log.seq_missing, 0);
  EXPECT_EQ(log.seq_duplicates, 0);
}

TEST(ConvergenceTest, ReportIsByteIdenticalAcrossThreadCounts) {
  // Five deterministic seeded jobs; the default report orders by
  // (label, trace)/path/improvement index and excludes wall-clock, so the
  // worker interleaving must not leak into a single byte.
  const std::vector<std::string> backends = {"bs", "enum", "grasp", "sa",
                                             "milp"};
  std::vector<std::string> reports;
  for (const int workers : {1, 2, 4, 1}) {
    const obs::EventLog log = RunBatch(
        backends, workers,
        EventsPath("threads_" + std::to_string(reports.size()) + ".jsonl"));
    reports.push_back(obs::FormatConvergenceReport(log));
  }
  EXPECT_NE(reports[0].find("anytime convergence report"), std::string::npos);
  EXPECT_NE(reports[0].find("timeline bs @"), std::string::npos)
      << reports[0];
  EXPECT_NE(reports[0].find("gap:"), std::string::npos);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[0], reports[i]) << "run " << i << " diverged";
  }
}

TEST(ConvergenceTest, RaceSummaryNamesTheMergedWinner) {
  const std::filesystem::path path = EventsPath("race.jsonl");
  Result<std::unique_ptr<obs::EventSink>> sink =
      obs::EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  obs::EventSink::InstallGlobal(sink.value().get());

  SolverRegistry registry;
  ASSERT_TRUE(RegisterBuiltinBackends(&registry).ok());
  SolveResponse response;
  {
    JobSchedulerOptions options;
    options.num_workers = 2;
    options.enable_cache = false;
    JobScheduler scheduler(&registry, options);
    const Result<JobId> id = scheduler.SubmitPortfolio(
        Request("", "race-job"), {"grasp", "bs"});
    ASSERT_TRUE(id.ok()) << id.status();
    response = scheduler.Wait(id.value());
    ASSERT_TRUE(response.status.ok()) << response.status;
  }
  obs::EventSink::InstallGlobal(nullptr);
  sink.value().reset();

  // BS proves optimality, so the deterministic merge rule must pick it over
  // the heuristic regardless of finish order.
  EXPECT_EQ(response.backend, "bs");

  const Result<obs::EventLog> log = obs::LoadEventLog(path.string());
  ASSERT_TRUE(log.ok()) << log.status();
  const std::string report = obs::FormatConvergenceReport(log.value());
  EXPECT_NE(report.find("race: winner=" + response.backend),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("racers=2"), std::string::npos) << report;
  EXPECT_NE(report.find("<- winner"), std::string::npos) << report;

  // The job_end record carries the deterministic race analytics fields.
  ASSERT_EQ(log.value().jobs.size(), 1u);
  EXPECT_EQ(log.value().jobs[0].racers, 2);
  EXPECT_GE(log.value().jobs[0].winner_margin, 0);
}

}  // namespace
}  // namespace qplex::svc
