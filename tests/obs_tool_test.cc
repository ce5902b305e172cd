// End-to-end test of the offline observability pipeline: a seeded chaos
// batch runs through qplex_serve with --events/--journal/--metrics-prom,
// then the qplex_obs analyzer ingests the artifacts. Checks: the
// reconstructed trace forest is fully connected (zero orphans) and renders
// byte-identically across two same-seed runs, the OpenMetrics exposition
// passes the in-repo checker and round-trips every counter the JSON metrics
// report carries, the journal cross-check accepts a matching WAL and rejects
// a forged one, and orphan spans fail the run under --fail-on-orphans.
// Binary paths are injected by CMake as QPLEX_SERVE_PATH / QPLEX_OBS_PATH.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "obs/json.h"
#include "obs/openmetrics.h"
#include "scratch_dir.h"

namespace qplex {
namespace {

int RunBinary(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " >/dev/null 2>/dev/null";
  const int raw = std::system(command.c_str());
#ifdef WIFEXITED
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  return raw;
#endif
}

int RunServe(const std::string& args) {
  return RunBinary(QPLEX_SERVE_PATH, args);
}

int RunObs(const std::string& args) { return RunBinary(QPLEX_OBS_PATH, args); }

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Two K4 blocks joined by one edge; the maximum 2-plex is a K4 (size 4).
const char* kTwoBlockGraph =
    "{\"n\":8,\"edges\":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3],[3,4],[4,5],"
    "[4,6],[5,6],[5,7],[6,7]]}";

std::filesystem::path WriteChaosBatch() {
  const std::filesystem::path path = ScratchDir() / "chaos_batch.jsonl";
  std::ofstream out(path);
  for (int i = 0; i < 10; ++i) {
    out << R"({"id":"c)" << i << R"(","k":2,"backend":)"
        << (i % 3 == 0 ? R"("grasp","seed":)" + std::to_string(40 + i)
                       : R"("bs","seed":1)")
        << R"(,"graph":)" << kTwoBlockGraph << "}\n";
  }
  return path;
}

struct ChaosArtifacts {
  std::filesystem::path events;
  std::filesystem::path journal;
  std::filesystem::path prom;
  std::filesystem::path metrics_json;
};

/// One seeded single-worker chaos serve run (30% of solves throw) emitting
/// every observability artifact the analyzer consumes.
ChaosArtifacts RunChaosServe(const std::string& tag) {
  ChaosArtifacts artifacts;
  artifacts.events = ScratchDir() / ("events_" + tag + ".jsonl");
  artifacts.journal = ScratchDir() / ("journal_" + tag + ".jsonl");
  artifacts.prom = ScratchDir() / ("metrics_" + tag + ".prom");
  artifacts.metrics_json = ScratchDir() / ("metrics_" + tag + ".json");
  const std::filesystem::path jobs = WriteChaosBatch();
  const int exit_code = RunServe(
      "--jobs " + jobs.string() +
      " --workers 1 --fault-spec solver_throw:0.3:7 --slo-ms 60000" +
      " --events " + artifacts.events.string() + " --journal " +
      artifacts.journal.string() + " --metrics-prom " +
      artifacts.prom.string() + " --metrics-json " +
      artifacts.metrics_json.string());
  EXPECT_EQ(exit_code, 0) << tag;
  return artifacts;
}

TEST(ObsToolTest, ChaosRunAnalyzesCleanAndDeterministic) {
  const ChaosArtifacts run_a = RunChaosServe("a");
  const ChaosArtifacts run_b = RunChaosServe("b");

  auto analyze = [](const ChaosArtifacts& artifacts, const std::string& tag) {
    const std::filesystem::path tree = ScratchDir() / ("tree_" + tag + ".txt");
    const std::filesystem::path folded =
        ScratchDir() / ("folded_" + tag + ".txt");
    const std::filesystem::path latency =
        ScratchDir() / ("latency_" + tag + ".txt");
    const std::filesystem::path slo = ScratchDir() / ("slo_" + tag + ".txt");
    const std::filesystem::path convergence =
        ScratchDir() / ("convergence_" + tag + ".txt");
    const int exit_code = RunObs(
        "--events " + artifacts.events.string() + " --journal " +
        artifacts.journal.string() + " --check-metrics " +
        artifacts.prom.string() + " --trace-tree " + tree.string() +
        " --folded " + folded.string() + " --latency " + latency.string() +
        " --slo " + slo.string() + " --slo-ms 60000 --convergence " +
        convergence.string() + " --fail-on-orphans");
    EXPECT_EQ(exit_code, 0) << tag;
    return std::make_tuple(ReadFile(tree), ReadFile(folded),
                           ReadFile(convergence));
  };
  const auto [tree_a, folded_a, convergence_a] = analyze(run_a, "a");
  const auto [tree_b, folded_b, convergence_b] = analyze(run_b, "b");

  // Every job produced one connected trace rooted at the "job" span, with
  // the chaos visible as attempt/backoff spans.
  EXPECT_NE(tree_a.find("trace "), std::string::npos);
  EXPECT_NE(tree_a.find("job"), std::string::npos);
  EXPECT_EQ(tree_a.find("ORPHAN"), std::string::npos) << tree_a;
  EXPECT_NE(folded_a.find("job;racer@"), std::string::npos) << folded_a;
  EXPECT_NE(folded_a.find("attempt@"), std::string::npos);

  // The convergence report reconstructs per-job anytime profiles from the
  // event stream alone, even under fault-injected retries.
  EXPECT_NE(convergence_a.find("anytime convergence report"),
            std::string::npos);
  EXPECT_NE(convergence_a.find("timeline"), std::string::npos)
      << convergence_a;

  // Same seed, one worker, structural span ids: byte-identical outputs.
  EXPECT_EQ(tree_a, tree_b);
  EXPECT_EQ(folded_a, folded_b);
  EXPECT_EQ(convergence_a, convergence_b);
}

TEST(ObsToolTest, PromExpositionRoundTripsTheMetricsRegistry) {
  const ChaosArtifacts run = RunChaosServe("prom");
  const std::string prom_text = ReadFile(run.prom);
  ASSERT_FALSE(prom_text.empty());

  // Structurally valid under the in-repo checker.
  ASSERT_TRUE(obs::CheckOpenMetrics(prom_text).ok())
      << obs::CheckOpenMetrics(prom_text);
  const Result<obs::OpenMetricsDoc> parsed = obs::ParseOpenMetrics(prom_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::OpenMetricsDoc& doc = parsed.value();

  // Every counter / gauge / histogram in the JSON metrics report (the same
  // registry snapshotted by the same process) must round-trip through the
  // exposition with its exact value.
  const Result<obs::JsonValue> report =
      obs::JsonValue::Parse(ReadFile(run.metrics_json));
  ASSERT_TRUE(report.ok()) << report.status();
  const obs::JsonValue* counters = report.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_GT(counters->members().size(), 0u);
  for (const auto& [key, value] : counters->members()) {
    const obs::OpenMetricsSample* sample =
        doc.FindSample(obs::OpenMetricsName(key) + "_total");
    ASSERT_NE(sample, nullptr) << key;
    EXPECT_DOUBLE_EQ(sample->value, static_cast<double>(value.AsInt())) << key;
  }
  const obs::JsonValue* gauges = report.value().Find("gauges");
  if (gauges != nullptr) {
    for (const auto& [key, value] : gauges->members()) {
      const obs::OpenMetricsSample* sample =
          doc.FindSample(obs::OpenMetricsName(key));
      ASSERT_NE(sample, nullptr) << key;
      EXPECT_DOUBLE_EQ(sample->value, value.AsDouble()) << key;
    }
  }
  const obs::JsonValue* histograms = report.value().Find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const auto& [key, value] : histograms->members()) {
    const std::string family = obs::OpenMetricsName(key);
    const obs::OpenMetricsSample* count = doc.FindSample(family + "_count");
    ASSERT_NE(count, nullptr) << key;
    EXPECT_DOUBLE_EQ(count->value,
                     static_cast<double>(value.Find("count")->AsInt()))
        << key;
    const obs::OpenMetricsSample* sum = doc.FindSample(family + "_sum");
    ASSERT_NE(sum, nullptr) << key;
    EXPECT_DOUBLE_EQ(sum->value, value.Find("sum")->AsDouble()) << key;
  }

  // The SLO objective + verdict counters are exposed (--slo-ms was set).
  EXPECT_NE(doc.FindSample("qplex_svc_slo_objective_ms"), nullptr);
}

TEST(ObsToolTest, JournalMismatchAndOrphansFailTheRun) {
  const ChaosArtifacts run = RunChaosServe("fail");

  // A forged journal entry that never completed in the event stream.
  const std::filesystem::path forged = ScratchDir() / "forged_journal.jsonl";
  std::ofstream(forged) << ReadFile(run.journal)
                        << R"({"label":"ghost","status":"OK"})" << "\n";
  EXPECT_EQ(RunObs("--events " + run.events.string() + " --journal " +
                   forged.string()),
            1);

  // An orphan span (parent id absent from its trace) under --fail-on-orphans.
  const std::filesystem::path orphaned = ScratchDir() / "orphaned_events.jsonl";
  std::ofstream(orphaned)
      << ReadFile(run.events)
      << R"({"ts_ms":9,"level":"debug","solver":"trace","event":"span",)"
      << R"("trace":"00000000000000aa","span":"0000000000000002",)"
      << R"("parent":"00000000000000ff","name":"stray","path":"job/stray",)"
      << R"("count":1,"dur_ms":1.0})" << "\n";
  EXPECT_EQ(RunObs("--events " + orphaned.string() + " --fail-on-orphans"), 1);
  // Without the flag, orphans are reported but do not fail the run.
  EXPECT_EQ(RunObs("--events " + orphaned.string()), 0);

  // A structurally broken exposition fails the metrics check.
  const std::filesystem::path bad_prom = ScratchDir() / "bad.prom";
  std::ofstream(bad_prom) << "qplex_no_type_total 3\n# EOF\n";
  EXPECT_EQ(RunObs("--events " + run.events.string() + " --check-metrics " +
                   bad_prom.string()),
            1);
}

TEST(ObsToolTest, UsageErrorsExitTwoIoErrorsExitThree) {
  // Usage mistakes: exit 2.
  EXPECT_EQ(RunObs(""), 2);                              // --events required
  EXPECT_EQ(RunObs("--events x --slo out.txt"), 2);      // --slo needs --slo-ms
  EXPECT_EQ(RunObs("--events x --slo-ms junk"), 2);
  EXPECT_EQ(RunObs("--events x --unknown-flag"), 2);
  // Unreadable inputs: exit 3, distinct from both usage and validation.
  EXPECT_EQ(RunObs("--events /nonexistent/events.jsonl"), 3);
  const ChaosArtifacts run = RunChaosServe("io");
  EXPECT_EQ(RunObs("--events " + run.events.string() +
                   " --journal /nonexistent/journal.jsonl"),
            3);
  EXPECT_EQ(RunObs("--events " + run.events.string() +
                   " --check-metrics /nonexistent/metrics.prom"),
            3);
}

}  // namespace
}  // namespace qplex
