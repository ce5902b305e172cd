// End-to-end smoke test of the qplex_cli binary: seeded answers and counters
// are pinned per algorithm, every registry backend solves through it, the
// --metrics-json report must be parseable JSON carrying solver counters and
// the trace tree, --metrics-prom must be valid OpenMetrics, the --events
// stream must be parseable JSONL from run_start to run_end with at least one
// progress heartbeat, and malformed numeric flags must be rejected without
// crashing.
// Also covers qplex_benchdiff over fixture reports. The binary paths are
// injected by CMake as QPLEX_CLI_PATH / QPLEX_BENCHDIFF_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph/io.h"
#include "graph/kplex.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "scratch_dir.h"
#include "svc/registry.h"

namespace qplex {
namespace {

std::filesystem::path WriteExampleGraph() {
  // Two K4 blocks joined by one edge; the maximum 2-plex is a K4 (size 4).
  const std::filesystem::path path = ScratchDir() / "graph.el";
  std::ofstream out(path);
  out << "8\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n5 7\n6 7\n";
  return path;
}

/// Runs `binary args`; returns its exit code (-1 if it did not exit
/// normally). Streams are redirected into `stdout_path` / `stderr_path` when
/// non-empty, discarded otherwise.
int RunBinary(const std::string& binary, const std::string& args,
              const std::string& stdout_path = "",
              const std::string& stderr_path = "") {
  std::string command = binary + " " + args;
  command += stdout_path.empty() ? " >/dev/null" : " >" + stdout_path;
  command += stderr_path.empty() ? " 2>/dev/null" : " 2>" + stderr_path;
  const int raw = std::system(command.c_str());
#ifdef WIFEXITED
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
#else
  return raw;
#endif
}

int RunCli(const std::string& args, const std::string& stdout_path = "",
           const std::string& stderr_path = "") {
  return RunBinary(QPLEX_CLI_PATH, args, stdout_path, stderr_path);
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CliSmokeTest, QmkpMetricsJsonIsParseableAndComplete) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path report = ScratchDir() / "qmkp_report.json";
  const int exit_code =
      RunCli("--input " + graph.string() +
             " --format edgelist --algorithm qmkp --k 2 --seed 3" +
             " --metrics-json " + report.string());
  ASSERT_EQ(exit_code, 0);

  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue& json = parsed.value();
  EXPECT_EQ(json.Find("report")->AsString(), "qplex_cli");
  EXPECT_EQ(json.Find("meta")->Find("algorithm")->AsString(), "qmkp");
  EXPECT_EQ(json.Find("meta")->Find("k")->AsInt(), 2);
  EXPECT_EQ(json.Find("meta")->Find("solution_size")->AsInt(), 4);

  // Solver counters: the binary search probed and called the oracle.
  const obs::JsonValue* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("qmkp.probes"), nullptr);
  EXPECT_GE(counters->Find("qmkp.probes")->AsInt(), 1);
  ASSERT_NE(counters->Find("qmkp.oracle_calls"), nullptr);
  EXPECT_GE(counters->Find("qmkp.oracle_calls")->AsInt(), 1);

  // Threshold trajectory of the binary search.
  const obs::JsonValue* trajectory =
      json.Find("series")->Find("qmkp.threshold_trajectory");
  ASSERT_NE(trajectory, nullptr);
  EXPECT_GE(trajectory->size(), 1u);

  // Nested span timings: root -> qmkp -> (grover search / oracle evals).
  const obs::JsonValue* trace = json.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_GE(trace->Find("children")->size(), 1u);
  const obs::JsonValue& qmkp_span = trace->Find("children")->at(0);
  EXPECT_EQ(qmkp_span.Find("name")->AsString(), "qmkp");
  EXPECT_GE(qmkp_span.Find("total_seconds")->AsDouble(), 0.0);
  EXPECT_GE(qmkp_span.Find("children")->size(), 1u);
}

TEST(CliSmokeTest, PinnedAnswersAndCountersPerAlgorithm) {
  // Seeded runs are bit-reproducible, so each backend's stdout and counter
  // set is pinned exactly; a change to how the CLI dispatches a solve must
  // leave all of them untouched.
  struct Pinned {
    const char* algorithm;
    const char* stdout_text;
    const char* counters;
  };
  const Pinned pinned[] = {
      {"bs", "size 4\nmembers 0 1 2 3\n",
       R"({"bs.branch_nodes":1,"bs.prunes_bound":1,"bs.prunes_infeasible":0,)"
       R"("bs.reduction_removed_vertices":4,"bs.solves":1})"},
      {"enum", "size 4\nmembers 0 1 2 3\n",
       R"({"exact.enumerations":1,"exact.masks_scanned":66})"},
      {"qmkp", "size 4\nmembers 4 5 6 7\n",
       R"({"grover.iterations":8,"grover.runs":7,"grover.simulations":3,)"
       R"("oracle.builds":3,"oracle.stage_cost.degree_compare":1086,)"
       R"("oracle.stage_cost.degree_count":3348,)"
       R"("oracle.stage_cost.encoding":144,"oracle.stage_cost.oracle_flip":9,)"
       R"("oracle.stage_cost.size_check":524,)"
       R"("oracle.stage_cost.uncompute":5102,"qmkp.gate_cost":27600,)"
       R"("qmkp.oracle_calls":8,"qmkp.probes":3,"qmkp.probes_feasible":1,)"
       R"("qmkp.runs":1,"qtkp.attempts":7,"qtkp.found":1,)"
       R"("qtkp.gate_cost":27600,"qtkp.oracle_calls":8,"qtkp.searches":3,)"
       R"("simulator.diffusion_applies":8,)"
       R"("simulator.phase_oracle_applies":8})"},
      {"qamkp", "size 4\nmembers 0 1 2 3\n",
       R"({"anneal.hybrid.basin_hops":64,"anneal.hybrid.polish_flips":186,)"
       R"("anneal.hybrid.restarts":64,"anneal.hybrid.runs":1,)"
       R"("anneal.sa.moves_accepted":18337,)"
       R"("anneal.sa.moves_proposed":126976,"anneal.sa.runs":64,)"
       R"("anneal.sa.shots":64,"anneal.sa.sweeps":4096,"anneal.samples":192})"},
      {"milp", "size 4\nmembers 4 5 6 7\n", "{}"},
  };
  const std::filesystem::path graph = WriteExampleGraph();
  for (const Pinned& expected : pinned) {
    SCOPED_TRACE(expected.algorithm);
    const std::string name = expected.algorithm;
    const std::filesystem::path out = ScratchDir() / (name + "_pinned.out");
    const std::filesystem::path report =
        ScratchDir() / (name + "_pinned.json");
    ASSERT_EQ(RunCli("--input " + graph.string() +
                         " --format edgelist --k 2 --seed 3 --algorithm " +
                         name + " --metrics-json " + report.string(),
                     out.string()),
              0);
    EXPECT_EQ(ReadFile(out), expected.stdout_text);
    const Result<obs::JsonValue> parsed =
        obs::JsonValue::Parse(ReadFile(report));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_NE(parsed.value().Find("counters"), nullptr);
    EXPECT_EQ(parsed.value().Find("counters")->Dump(), expected.counters);
  }
}

TEST(CliSmokeTest, EveryRegistryBackendSolvesThroughTheCli) {
  const std::filesystem::path graph_path = WriteExampleGraph();
  const Result<Graph> graph = LoadEdgeListFile(graph_path.string());
  ASSERT_TRUE(graph.ok()) << graph.status();
  const std::vector<std::uint64_t> adjacency = AdjacencyMasks(graph.value());
  // The exact backends, and qmkp on this seed, find the optimum.
  const std::set<std::string> optimal = {"bs", "enum", "milp", "qmkp"};
  for (const std::string& name : svc::MakeBuiltinRegistry().Names()) {
    SCOPED_TRACE(name);
    const std::filesystem::path out = ScratchDir() / (name + "_any.out");
    ASSERT_EQ(RunCli("--input " + graph_path.string() +
                         " --format edgelist --k 2 --algorithm " + name,
                     out.string()),
              0);
    std::istringstream text(ReadFile(out));
    std::string word;
    int size = -1;
    text >> word >> size >> word;
    ASSERT_EQ(word, "members");
    std::uint64_t mask = 0;
    int members = 0;
    for (Vertex v; text >> v; ++members) {
      mask |= std::uint64_t{1} << v;
    }
    EXPECT_EQ(members, size);
    EXPECT_TRUE(IsKPlexMask(adjacency, mask, 2));
    if (optimal.count(name) != 0) {
      EXPECT_EQ(size, 4);
    }
  }

  const std::filesystem::path err = ScratchDir() / "unknown_algorithm.err";
  EXPECT_EQ(RunCli("--input " + graph_path.string() +
                       " --format edgelist --algorithm annealx",
                   "", err.string()),
            1);
  EXPECT_NE(ReadFile(err).find("unknown algorithm: annealx"),
            std::string::npos);
}

TEST(CliSmokeTest, MetricsPromIsValidOpenMetrics) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path prom = ScratchDir() / "cli.prom";
  ASSERT_EQ(RunCli("--input " + graph.string() +
                   " --format edgelist --algorithm qmkp --k 2 --seed 3" +
                   " --metrics-prom " + prom.string()),
            0);
  const std::string text = ReadFile(prom);
  const Status valid = obs::CheckOpenMetrics(text);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << text;
  EXPECT_NE(text.find("qmkp_probes"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(prom.string() + ".tmp"));
}

TEST(CliSmokeTest, MetricsJsonWorksForClassicalBackend) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path report = ScratchDir() / "bs_report.json";
  const int exit_code = RunCli("--input " + graph.string() +
                               " --format edgelist --algorithm bs --k 2" +
                               " --metrics-json " + report.string());
  ASSERT_EQ(exit_code, 0);
  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("bs.branch_nodes"), nullptr);
  EXPECT_GE(counters->Find("bs.branch_nodes")->AsInt(), 1);
}

TEST(CliSmokeTest, ThreadsFlagReachesSimulatorAndReport) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path report = ScratchDir() / "threads_report.json";
  const int exit_code =
      RunCli("--input " + graph.string() +
             " --format edgelist --algorithm qmkp --k 2 --seed 3 --threads 2" +
             " --metrics-json " + report.string());
  ASSERT_EQ(exit_code, 0);
  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue& json = parsed.value();
  // Threading must not perturb the solution (determinism contract).
  EXPECT_EQ(json.Find("meta")->Find("solution_size")->AsInt(), 4);
  EXPECT_EQ(json.Find("meta")->Find("threads")->AsInt(), 2);
  const obs::JsonValue* gauges = json.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("simulator.threads"), nullptr);
  EXPECT_EQ(gauges->Find("simulator.threads")->AsDouble(), 2.0);
  // The parallel gate kernels recorded their work.
  const obs::JsonValue* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("simulator.diffusion_applies"), nullptr);
  EXPECT_GE(counters->Find("simulator.diffusion_applies")->AsInt(), 1);
  ASSERT_NE(counters->Find("simulator.phase_oracle_applies"), nullptr);
  EXPECT_GE(counters->Find("simulator.phase_oracle_applies")->AsInt(), 1);
}

TEST(CliSmokeTest, RejectsMalformedNumericFlags) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::string base = "--input " + graph.string() + " --format edgelist";
  EXPECT_EQ(RunCli(base + " --k notanumber"), 2);
  EXPECT_EQ(RunCli(base + " --k 2x"), 2);
  EXPECT_EQ(RunCli(base + " --k 99999999999999999999"), 2);
  EXPECT_EQ(RunCli(base + " --k 0"), 2);
  EXPECT_EQ(RunCli(base + " --seed 12junk"), 2);
  EXPECT_EQ(RunCli(base + " --k"), 2);  // missing value
  EXPECT_EQ(RunCli(base + " --threads 0"), 2);
  EXPECT_EQ(RunCli(base + " --threads junk"), 2);
}

TEST(CliSmokeTest, SolvesWithoutMetricsFlagUnchanged) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path out = ScratchDir() / "plain.out";
  const int exit_code = RunCli("--input " + graph.string() +
                                   " --format edgelist --algorithm bs --k 2",
                               out.string());
  ASSERT_EQ(exit_code, 0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("size 4"), std::string::npos);
}

TEST(CliSmokeTest, EventsToStdoutEmitsParseableHeartbeats) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path out = ScratchDir() / "events.out";
  const int exit_code =
      RunCli("--input " + graph.string() +
                 " --format edgelist --algorithm qamkp --k 2 --events -",
             out.string());
  ASSERT_EQ(exit_code, 0);

  // The stream shares stdout with the solution lines; JSONL lines are the
  // ones that start with '{'.
  std::istringstream lines(ReadFile(out));
  std::string line;
  int event_lines = 0;
  int progress_lines = 0;
  bool saw_run_start = false;
  bool saw_run_end = false;
  std::string first_event;
  std::string last_event;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') {
      continue;
    }
    const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    const obs::JsonValue& event = parsed.value();
    ASSERT_NE(event.Find("ts_ms"), nullptr);
    ASSERT_NE(event.Find("level"), nullptr);
    ASSERT_NE(event.Find("solver"), nullptr);
    ASSERT_NE(event.Find("event"), nullptr);
    ++event_lines;
    const std::string& name = event.Find("event")->AsString();
    if (name == "progress") {
      ++progress_lines;
    }
    saw_run_start = saw_run_start || name == "run_start";
    saw_run_end = saw_run_end || name == "run_end";
    if (first_event.empty()) {
      first_event = name;
    }
    last_event = name;
  }
  EXPECT_GE(event_lines, 3);
  EXPECT_EQ(first_event, "run_start");
  EXPECT_EQ(last_event, "run_end");
  // The first heartbeat per solver site is always due, so even this
  // millisecond-scale solve emits at least one progress line.
  EXPECT_GE(progress_lines, 1);
  EXPECT_TRUE(saw_run_start);
  EXPECT_TRUE(saw_run_end);
}

TEST(CliSmokeTest, RejectsBadProgressInterval) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::string base = "--input " + graph.string() + " --format edgelist";
  EXPECT_EQ(RunCli(base + " --events - --progress-interval-ms 0"), 2);
  EXPECT_EQ(RunCli(base + " --events - --progress-interval-ms -5"), 2);
  EXPECT_EQ(RunCli(base + " --events - --progress-interval-ms junk"), 2);
}

TEST(CliSmokeTest, UnwritableMetricsPathStillPrintsSolution) {
  const std::filesystem::path graph = WriteExampleGraph();
  const std::filesystem::path out = ScratchDir() / "unwritable.out";
  const std::filesystem::path err = ScratchDir() / "unwritable.err";
  const std::string bad_report = "/nonexistent_qplex_dir/report.json";
  const int exit_code =
      RunCli("--input " + graph.string() +
                 " --format edgelist --algorithm bs --k 2 --metrics-json " +
                 bad_report,
             out.string(), err.string());
  // Reporting failure flips the exit code but never eats the solver result,
  // and the error names the offending path.
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(ReadFile(out).find("size 4"), std::string::npos);
  EXPECT_NE(ReadFile(err).find(bad_report), std::string::npos);
}

/// Writes a minimal run-report JSON fixture with one counter value.
std::filesystem::path WriteFixtureReport(const std::string& name,
                                         int oracle_calls) {
  const std::filesystem::path path = ScratchDir() / name;
  std::ofstream out(path);
  out << "{\"report\": \"fixture\", \"schema_version\": 1, "
         "\"counters\": {\"oracle.calls\": "
      << oracle_calls << ", \"grover.iterations\": 7}}";
  return path;
}

TEST(CliSmokeTest, BenchdiffPassesOnIdenticalReports) {
  const std::filesystem::path baseline =
      WriteFixtureReport("diff_base.json", 10);
  const std::filesystem::path candidate =
      WriteFixtureReport("diff_same.json", 10);
  const std::filesystem::path out = ScratchDir() / "diff_clean.out";
  const int exit_code = RunBinary(
      QPLEX_BENCHDIFF_PATH,
      "--baseline " + baseline.string() + " --candidate " + candidate.string(),
      out.string());
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(ReadFile(out).find("0 failed"), std::string::npos);
}

TEST(CliSmokeTest, BenchdiffFailsOnCountRegression) {
  const std::filesystem::path baseline =
      WriteFixtureReport("diff_base2.json", 10);
  const std::filesystem::path candidate =
      WriteFixtureReport("diff_regressed.json", 12);
  const std::filesystem::path out = ScratchDir() / "diff_regressed.out";
  const int exit_code = RunBinary(
      QPLEX_BENCHDIFF_PATH,
      "--baseline " + baseline.string() + " --candidate " + candidate.string(),
      out.string());
  EXPECT_EQ(exit_code, 1);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("oracle.calls"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
}

TEST(CliSmokeTest, BenchdiffRejectsARuleThatMatchesNoMetricOfItsReport) {
  // Directory sides prefix every metric with its report's stem ("Fixture/").
  const std::filesystem::path baseline = ScratchDir() / "base_dir";
  const std::filesystem::path candidate = ScratchDir() / "cand_dir";
  std::filesystem::create_directories(baseline);
  std::filesystem::create_directories(candidate);
  std::filesystem::copy_file(WriteFixtureReport("fixture_a.json", 10),
                             baseline / "BENCH_Fixture.json");
  std::filesystem::copy_file(WriteFixtureReport("fixture_b.json", 10),
                             candidate / "BENCH_Fixture.json");
  const auto run_with_rules = [&](const std::string& name,
                                  const std::string& rules) {
    const std::filesystem::path config = ScratchDir() / (name + ".json");
    std::ofstream(config) << "{\"rules\": [" << rules << "]}";
    return RunBinary(QPLEX_BENCHDIFF_PATH,
                     "--baseline " + baseline.string() + " --candidate " +
                         candidate.string() + " --config " + config.string(),
                     "", (ScratchDir() / (name + ".err")).string());
  };

  EXPECT_EQ(run_with_rules("live", R"({"match": "Fixture/oracle.*", )"
                                   R"("action": "exact"})"),
            0);
  // Names a compared report but none of its metrics: a dead rule.
  EXPECT_EQ(run_with_rules("dead", R"({"match": "Fixture/trace.bs.*", )"
                                   R"("action": "exact"})"),
            2);
  EXPECT_NE(ReadFile(ScratchDir() / "dead.err").find("Fixture/trace.bs.*"),
            std::string::npos);
  // A rule for a report that is not being compared stays quiet.
  EXPECT_EQ(run_with_rules("absent", R"({"match": "Other/trace.bs.*", )"
                                     R"("action": "exact"})"),
            0);
}

}  // namespace
}  // namespace qplex
