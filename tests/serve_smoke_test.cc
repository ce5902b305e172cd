// End-to-end smoke test of the qplex_serve batch front-end: a 22-job
// mixed-backend JSONL batch must stream one parseable job_end event per job,
// produce byte-identical solutions across repeated runs and across worker
// counts (fixed seeds), short-circuit repeated instances through the result
// cache, honour millisecond deadlines, and reject malformed job files with
// exit code 2. The binary path is injected by CMake as QPLEX_SERVE_PATH.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/kplex.h"
#include "obs/json.h"
#include "scratch_dir.h"

namespace qplex {
namespace {

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

int RunServe(const std::string& args, const std::string& stdout_path = "",
             const std::string& stderr_path = "") {
  return RunBinary(QPLEX_SERVE_PATH, args, stdout_path, stderr_path);
}

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

// C5 plus one chord; its maximum 2-plex has size 4.
const char* kChordedCycleGraph =
    "{\"n\":5,\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,0],[0,2]]}";

/// Writes the ≥20-job mixed-backend batch exercised by the determinism runs.
/// Jobs j17-j20 repeat earlier requests verbatim so the instance cache gets
/// hits; pf-1/pf-2 are portfolio jobs whose winning *member set* may depend
/// on race timing (size may not — both racers are exact on these instances).
std::filesystem::path WriteMixedBatch() {
  const std::filesystem::path path = ScratchDir() / "mixed_batch.jsonl";
  std::ofstream out(path);
  const std::string block = kTwoBlockGraph;
  const std::string cycle = kChordedCycleGraph;
  out << "# mixed-backend determinism batch (fixed seeds)\n"
      << R"({"id":"j01","k":2,"backend":"bs","graph":)" << block << "}\n"
      << R"({"id":"j02","k":2,"backend":"enum","graph":)" << block << "}\n"
      << R"({"id":"j03","k":2,"backend":"grasp","seed":3,"graph":)" << block
      << "}\n"
      << R"({"id":"j04","k":2,"backend":"grasp","seed":9,"graph":)" << cycle
      << "}\n"
      << R"({"id":"j05","k":2,"backend":"sa","seed":5,"graph":)" << block
      << "}\n"
      << R"({"id":"j06","k":2,"backend":"sa","seed":7,"graph":)" << cycle
      << "}\n"
      << R"({"id":"j07","k":2,"backend":"pt","seed":2,"graph":)" << block
      << "}\n"
      << R"({"id":"j08","k":2,"backend":"pia","seed":4,"graph":)" << cycle
      << "}\n"
      << R"({"id":"j09","k":2,"backend":"hybrid","seed":6,"graph":)" << block
      << "}\n"
      << R"({"id":"j10","k":2,"backend":"qmkp","seed":3,"graph":)" << block
      << "}\n"
      << R"({"id":"j11","k":2,"backend":"qtkp","seed":3,)"
      << R"("options":{"oracle":"predicate","threshold":4},"graph":)" << block
      << "}\n"
      << R"({"id":"j12","k":2,"backend":"milp","graph":)" << cycle << "}\n"
      << R"({"id":"j13","k":3,"backend":"bs","graph":)" << block << "}\n"
      << R"({"id":"j14","k":3,"backend":"enum","graph":)" << cycle << "}\n"
      << R"({"id":"j15","k":1,"backend":"bs","graph":)" << block << "}\n"
      << R"({"id":"j16","k":2,"backend":"grasp","seed":11,"graph":)" << block
      << "}\n"
      << R"({"id":"j17","k":2,"backend":"bs","graph":)" << block << "}\n"
      << R"({"id":"j18","k":2,"backend":"enum","graph":)" << block << "}\n"
      << R"({"id":"j19","k":2,"backend":"grasp","seed":3,"graph":)" << block
      << "}\n"
      << R"({"id":"j20","k":2,"backend":"sa","seed":5,"graph":)" << block
      << "}\n"
      << R"({"id":"pf-1","k":2,"backends":["bs","enum"],"graph":)" << block
      << "}\n"
      << R"({"id":"pf-2","k":2,"backends":["bs","enum"],"graph":)" << cycle
      << "}\n";
  return path;
}

struct JobEnd {
  std::string status;
  int size = 0;
  std::string members;
  bool cache_hit = false;
};

struct BatchRun {
  std::map<std::string, JobEnd> jobs;
  int job_end_lines = 0;
  int job_retry_lines = 0;
  std::int64_t batch_jobs = -1;
  std::int64_t batch_failed = -1;
};

/// Parses an event stream produced by `qplex_serve --events <file>`.
BatchRun ParseEvents(const std::filesystem::path& events_path) {
  BatchRun run;
  std::istringstream lines(ReadFile(events_path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '{') {
      continue;
    }
    const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    if (!parsed.ok()) {
      continue;
    }
    const obs::JsonValue& event = parsed.value();
    const obs::JsonValue* name = event.Find("event");
    if (name == nullptr) {
      continue;
    }
    if (name->AsString() == "job_end") {
      ++run.job_end_lines;
      JobEnd job;
      job.status = event.Find("status")->AsString();
      job.size = static_cast<int>(event.Find("size")->AsInt());
      job.members = event.Find("members")->AsString();
      job.cache_hit = event.Find("cache_hit")->AsBool();
      run.jobs[event.Find("label")->AsString()] = job;
    } else if (name->AsString() == "job_retry") {
      ++run.job_retry_lines;
    } else if (name->AsString() == "batch_end") {
      run.batch_jobs = event.Find("jobs")->AsInt();
      run.batch_failed = event.Find("failed")->AsInt();
    }
  }
  return run;
}

BatchRun RunMixedBatch(const std::filesystem::path& jobs, int workers,
                       const std::string& tag) {
  const std::filesystem::path events =
      ScratchDir() / ("events_" + tag + ".jsonl");
  const int exit_code =
      RunServe("--jobs " + jobs.string() + " --workers " +
               std::to_string(workers) + " --events " + events.string());
  EXPECT_EQ(exit_code, 0) << tag;
  return ParseEvents(events);
}

TEST(ServeSmokeTest, MixedBatchIsDeterministicAcrossRunsAndWorkerCounts) {
  const std::filesystem::path jobs = WriteMixedBatch();
  const BatchRun serial = RunMixedBatch(jobs, 1, "w1");
  const BatchRun parallel = RunMixedBatch(jobs, 4, "w4a");
  const BatchRun repeat = RunMixedBatch(jobs, 4, "w4b");

  for (const BatchRun* run : {&serial, &parallel, &repeat}) {
    EXPECT_GE(run->job_end_lines, 22);
    EXPECT_EQ(run->batch_jobs, 22);
    EXPECT_EQ(run->batch_failed, 0);
    for (const auto& [label, job] : run->jobs) {
      EXPECT_EQ(job.status, "OK") << label;
    }
  }

  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  ASSERT_EQ(serial.jobs.size(), repeat.jobs.size());
  for (const auto& [label, job] : serial.jobs) {
    ASSERT_TRUE(parallel.jobs.count(label)) << label;
    ASSERT_TRUE(repeat.jobs.count(label)) << label;
    // Portfolio winners are compared by size only: both racers are exact on
    // these instances, but which one reports first depends on race timing.
    EXPECT_EQ(job.size, parallel.jobs.at(label).size) << label;
    EXPECT_EQ(job.size, repeat.jobs.at(label).size) << label;
    if (label.rfind("pf-", 0) != 0) {
      EXPECT_EQ(job.members, parallel.jobs.at(label).members) << label;
      EXPECT_EQ(job.members, repeat.jobs.at(label).members) << label;
    }
  }

  // Known optima on the fixture graphs.
  EXPECT_EQ(serial.jobs.at("j01").size, 4);   // bs, two-K4 block
  EXPECT_EQ(serial.jobs.at("j02").size, 4);   // enum agrees
  EXPECT_EQ(serial.jobs.at("j12").size, 4);   // milp, chorded C5
  EXPECT_EQ(serial.jobs.at("pf-1").size, 4);  // portfolio

  // Jobs j17-j20 repeat j01/j02/j03/j05 verbatim: the cache must have served
  // at least one of them without re-solving.
  int cache_hits = 0;
  for (const char* label : {"j17", "j18", "j19", "j20"}) {
    cache_hits += serial.jobs.at(label).cache_hit ? 1 : 0;
  }
  EXPECT_GE(cache_hits, 1);
}

TEST(ServeSmokeTest, SolvesBeyond64VerticesThroughClassicalBackends) {
  // Previously BS and GRASP rejected n > 64 with InvalidArgument; the
  // BitGraph kernel engine must carry a 90-vertex planted-plex instance
  // through the full serve pipeline, and the streamed members must verify
  // as a real 2-plex of the instance.
  const int n = 90;
  const int planted = 10;
  const int k = 2;
  const Graph graph = PlantedKPlex(n, planted, k, 0.05, 123).value();
  std::ostringstream graph_json;
  graph_json << "{\"n\":" << n << ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : graph.Edges()) {
    graph_json << (first ? "" : ",") << "[" << u << "," << v << "]";
    first = false;
  }
  graph_json << "]}";

  const std::filesystem::path jobs = ScratchDir() / "wide_batch.jsonl";
  {
    std::ofstream out(jobs);
    out << R"({"id":"wide-bs","k":2,"backend":"bs","graph":)"
        << graph_json.str() << "}\n"
        << R"({"id":"wide-grasp","k":2,"backend":"grasp","seed":5,"graph":)"
        << graph_json.str() << "}\n";
  }
  const std::filesystem::path events = ScratchDir() / "events_wide.jsonl";
  const int exit_code =
      RunServe("--jobs " + jobs.string() + " --events " + events.string());
  EXPECT_EQ(exit_code, 0);
  const BatchRun run = ParseEvents(events);
  EXPECT_EQ(run.batch_jobs, 2);
  EXPECT_EQ(run.batch_failed, 0);
  for (const char* label : {"wide-bs", "wide-grasp"}) {
    ASSERT_TRUE(run.jobs.count(label)) << label;
    const JobEnd& job = run.jobs.at(label);
    EXPECT_EQ(job.status, "OK") << label;
    VertexList members;
    std::istringstream member_stream(job.members);
    for (Vertex v = 0; member_stream >> v;) {
      members.push_back(v);
    }
    EXPECT_EQ(static_cast<int>(members.size()), job.size) << label;
    EXPECT_TRUE(IsKPlex(graph, VertexBitset::FromList(n, members), k))
        << label;
  }
  // BS is exact: it must recover at least the planted plex.
  EXPECT_GE(run.jobs.at("wide-bs").size, planted);
}

TEST(ServeSmokeTest, CacheOffForcesEveryJobToExecute) {
  const std::filesystem::path jobs = WriteMixedBatch();
  const std::filesystem::path events = ScratchDir() / "events_nocache.jsonl";
  const int exit_code = RunServe("--jobs " + jobs.string() +
                                 " --workers 2 --cache off --events " +
                                 events.string());
  ASSERT_EQ(exit_code, 0);
  const BatchRun run = ParseEvents(events);
  EXPECT_EQ(run.batch_failed, 0);
  for (const auto& [label, job] : run.jobs) {
    EXPECT_FALSE(job.cache_hit) << label;
  }
}

TEST(ServeSmokeTest, MillisecondDeadlineSurfacesAsDeadlineExceeded) {
  // A 30-vertex circulant graph (steps 1..8) with k = 6: enumeration tests
  // ~5.6 M subsets, ~140 ms on a 4-vCPU VM, far beyond a 1 ms budget, so the
  // job must end DeadlineExceeded (and the batch still exits 0 — per-job
  // failures are data, not infra errors).
  const std::filesystem::path jobs = ScratchDir() / "deadline_batch.jsonl";
  {
    std::ofstream out(jobs);
    out << R"({"id":"slow","k":6,"backend":"enum","deadline_ms":1,)"
        << R"("graph":{"n":30,"edges":[)";
    bool first = true;
    for (int v = 0; v < 30; ++v) {
      for (int step = 1; step <= 8; ++step) {
        const int u = (v + step) % 30;
        out << (first ? "" : ",") << "[" << v << "," << u << "]";
        first = false;
      }
    }
    out << "]}}\n";
  }
  const std::filesystem::path events = ScratchDir() / "events_deadline.jsonl";
  const int exit_code =
      RunServe("--jobs " + jobs.string() + " --events " + events.string());
  ASSERT_EQ(exit_code, 0);
  const BatchRun run = ParseEvents(events);
  ASSERT_TRUE(run.jobs.count("slow"));
  EXPECT_EQ(run.jobs.at("slow").status, "DeadlineExceeded");
  EXPECT_EQ(run.batch_failed, 1);
}

TEST(ServeSmokeTest, MetricsJsonCarriesServiceCounters) {
  const std::filesystem::path jobs = WriteMixedBatch();
  const std::filesystem::path report = ScratchDir() / "serve_report.json";
  const int exit_code = RunServe("--jobs " + jobs.string() +
                                 " --metrics-json " + report.string());
  ASSERT_EQ(exit_code, 0);
  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue& json = parsed.value();
  EXPECT_EQ(json.Find("report")->AsString(), "qplex_serve");
  EXPECT_EQ(json.Find("meta")->Find("jobs")->AsInt(), 22);
  EXPECT_EQ(json.Find("meta")->Find("failed")->AsInt(), 0);
  const obs::JsonValue* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("svc.jobs.submitted"), nullptr);
  EXPECT_EQ(counters->Find("svc.jobs.submitted")->AsInt(), 22);
  ASSERT_NE(counters->Find("svc.jobs.completed"), nullptr);
  EXPECT_EQ(counters->Find("svc.jobs.completed")->AsInt(), 22);
  ASSERT_NE(counters->Find("svc.cache.misses"), nullptr);
  EXPECT_GE(counters->Find("svc.cache.misses")->AsInt(), 1);
}

TEST(ServeSmokeTest, MalformedInputsExitTwo) {
  const std::filesystem::path bad_json = ScratchDir() / "bad.jsonl";
  std::ofstream(bad_json) << "{\"id\":\"x\",\"k\":2\n";  // truncated JSON
  EXPECT_EQ(RunServe("--jobs " + bad_json.string()), 2);

  const std::filesystem::path bad_backend = ScratchDir() / "bad_backend.jsonl";
  std::ofstream(bad_backend) << R"({"id":"x","k":2,"backend":"nope",)"
                             << R"("graph":{"n":2,"edges":[[0,1]]}})" << "\n";
  EXPECT_EQ(RunServe("--jobs " + bad_backend.string()), 2);

  EXPECT_EQ(RunServe("--jobs /nonexistent/batch.jsonl"), 2);
  EXPECT_EQ(RunServe(""), 2);                    // --jobs is required
  EXPECT_EQ(RunServe("--jobs x --workers 0"), 2);
  EXPECT_EQ(RunServe("--jobs x --workers junk"), 2);
  EXPECT_EQ(RunServe("--jobs x --cache maybe"), 2);
}

TEST(ServeSmokeTest, UnknownBackendIsRejectedBeforeAnyJobRuns) {
  // The job file is validated as a whole at load: a bad backend on line 2
  // exits 2 before line 1's job is submitted, journaled or even started.
  const std::filesystem::path jobs = ScratchDir() / "late_bad_backend.jsonl";
  std::ofstream(jobs) << R"({"id":"ok","k":2,"backend":"bs","graph":)"
                      << kTwoBlockGraph << "}\n"
                      << R"({"id":"x","k":2,"backend":"nope","graph":)"
                      << kTwoBlockGraph << "}\n";
  const std::filesystem::path events = ScratchDir() / "events_rejected.jsonl";
  const std::filesystem::path journal = ScratchDir() / "journal_rejected.jsonl";
  EXPECT_EQ(RunServe("--jobs " + jobs.string() + " --events " +
                     events.string() + " --journal " + journal.string()),
            2);
  EXPECT_EQ(ReadFile(events).find("job_start"), std::string::npos);
  EXPECT_TRUE(ReadFile(journal).empty());
}

TEST(ServeSmokeTest, NonFiniteNumbersAreRejected) {
  // "nan" passes every `x < lo || x > hi` range check, so the one strict
  // number parser refuses it: in a job's options it fails that job only,
  // and on the command line it is a usage error.
  const std::filesystem::path jobs = ScratchDir() / "nan_batch.jsonl";
  std::ofstream(jobs) << R"({"id":"alpha","k":2,"backend":"grasp",)"
                      << R"("options":{"alpha":"nan"},"graph":)"
                      << kTwoBlockGraph << "}\n"
                      << R"({"id":"limit","k":2,"backend":"milp",)"
                      << R"("options":{"time_limit":"nan"},"graph":)"
                      << kTwoBlockGraph << "}\n";
  const std::filesystem::path journal = ScratchDir() / "journal_nan.jsonl";
  ASSERT_EQ(RunServe("--jobs " + jobs.string() + " --journal " +
                     journal.string()),
            0);
  const std::string text = ReadFile(journal);
  for (const char* label : {"alpha", "limit"}) {
    EXPECT_NE(text.find("\"label\":\"" + std::string(label) +
                        "\",\"status\":\"InvalidArgument\""),
              std::string::npos)
        << label << " in " << text;
  }

  const std::filesystem::path good = ScratchDir() / "one_job.jsonl";
  std::ofstream(good) << R"({"id":"ok","k":2,"backend":"bs","graph":)"
                      << kTwoBlockGraph << "}\n";
  EXPECT_EQ(RunServe("--jobs " + good.string()), 0);
  EXPECT_EQ(RunServe("--jobs " + good.string() + " --slo-ms nan"), 2);
  EXPECT_EQ(RunServe("--jobs " + good.string() + " --watchdog-poll-ms nan"), 2);
  EXPECT_EQ(RunServe("--jobs " + good.string() + " --watchdog-stall-ms inf"),
            2);
}

// ---------------------------------------------------------------------------
// Resilience: chaos runs, crash-safe journaling + resume, admission backoff.

/// Counts complete (newline-terminated) lines in a file.
int CountLines(const std::filesystem::path& path) {
  const std::string text = ReadFile(path);
  int lines = 0;
  for (const char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

TEST(ServeChaosTest, FaultInjectedBatchIsTerminalAndDeterministic) {
  // 30% of backend executions throw mid-solve (seeded, so the fault pattern
  // is fixed under --workers 1). The batch must still exit 0 with every job
  // reaching a terminal status, and two identical runs must journal
  // byte-identically — retries, faults and all.
  const std::filesystem::path jobs = WriteMixedBatch();
  auto chaos_run = [&](const std::string& tag) {
    const std::filesystem::path events =
        ScratchDir() / ("events_chaos_" + tag + ".jsonl");
    const std::filesystem::path journal =
        ScratchDir() / ("journal_chaos_" + tag + ".jsonl");
    const int exit_code = RunServe(
        "--jobs " + jobs.string() +
        " --workers 1 --fault-spec solver_throw:0.3:7 --journal " +
        journal.string() + " --events " + events.string());
    EXPECT_EQ(exit_code, 0) << tag;  // faults are data, never infra errors
    return std::make_pair(ParseEvents(events), ReadFile(journal));
  };
  const auto [run_a, journal_a] = chaos_run("a");
  const auto [run_b, journal_b] = chaos_run("b");

  EXPECT_EQ(run_a.jobs.size(), 22u);
  EXPECT_EQ(run_a.batch_jobs, 22);
  for (const auto& [label, job] : run_a.jobs) {
    // Terminal: solved, or failed cleanly after the retry budget.
    EXPECT_TRUE(job.status == "OK" || job.status == "Internal")
        << label << ": " << job.status;
  }
  EXPECT_EQ(std::count(journal_a.begin(), journal_a.end(), '\n'), 22);
  EXPECT_EQ(journal_a, journal_b);  // deterministic chaos
}

TEST(ServeChaosTest, RetriesAbsorbEveryOtherExecutionThrowing) {
  // Every 2nd backend execution throws mid-solve. The retry budget must
  // absorb every fault: all four jobs end OK, and at least one retry shows
  // the fault spec fired.
  const std::filesystem::path jobs = ScratchDir() / "throw_batch.jsonl";
  {
    const std::string block = kTwoBlockGraph;
    std::ofstream out(jobs);
    out << R"({"id":"c1","k":2,"backend":"bs","graph":)" << block << "}\n"
        << R"({"id":"c2","k":2,"backend":"enum","graph":)" << block << "}\n"
        << R"({"id":"c3","k":2,"backend":"grasp","seed":3,"graph":)" << block
        << "}\n"
        << R"({"id":"c4","k":2,"backend":"sa","seed":5,"graph":)"
        << kChordedCycleGraph << "}\n";
  }
  const std::filesystem::path events = ScratchDir() / "events_throw.jsonl";
  ASSERT_EQ(RunServe("--jobs " + jobs.string() +
                     " --workers 1 --fault-spec solver_throw:2:3 --events " +
                     events.string()),
            0);
  const BatchRun run = ParseEvents(events);
  EXPECT_EQ(run.job_end_lines, 4);
  ASSERT_EQ(run.jobs.size(), 4u);
  for (const auto& [label, job] : run.jobs) {
    EXPECT_EQ(job.status, "OK") << label;
  }
  EXPECT_GE(run.job_retry_lines, 1);
}

#ifndef _WIN32
TEST(ServeChaosTest, SigtermThenResumeReplaysToByteIdenticalJournal) {
  // 36 moderately slow grasp jobs. Reference run completes untouched; a
  // second run is SIGTERMed mid-batch (exit 0, clean WAL prefix), then
  // --resume must finish the remainder and leave the journal byte-identical
  // to the reference.
  const std::filesystem::path jobs = ScratchDir() / "resume_batch.jsonl";
  {
    std::ofstream out(jobs);
    for (int i = 0; i < 36; ++i) {
      out << R"({"id":"r)" << (i < 10 ? "0" : "") << i
          << R"(","k":2,"backend":"grasp","seed":)" << (100 + i)
          << R"(,"options":{"iterations":"30000"},"graph":)" << kTwoBlockGraph
          << "}\n";
    }
  }

  const std::filesystem::path reference =
      ScratchDir() / "journal_reference.jsonl";
  ASSERT_EQ(RunServe("--jobs " + jobs.string() + " --workers 1 --journal " +
                     reference.string()),
            0);
  ASSERT_EQ(CountLines(reference), 36);

  // Interrupted run: spawn the server, wait for >= 3 journaled jobs, SIGTERM.
  const std::filesystem::path journal = ScratchDir() / "journal_resume.jsonl";
  std::filesystem::remove(journal);
  const std::vector<std::string> args = {
      "--jobs",    jobs.string(), "--workers", "1",
      "--journal", journal.string()};
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (FILE* null = std::fopen("/dev/null", "w")) {
      dup2(fileno(null), STDOUT_FILENO);
      dup2(fileno(null), STDERR_FILENO);
    }
    std::vector<char*> argv;
    std::string binary = QPLEX_SERVE_PATH;
    argv.push_back(binary.data());
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  for (int spin = 0; spin < 2000 && CountLines(journal) < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(CountLines(journal), 3) << "server never journaled a job";
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int raw_status = 0;
  ASSERT_EQ(waitpid(pid, &raw_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(raw_status));
  EXPECT_EQ(WEXITSTATUS(raw_status), 0);  // graceful: flush, then exit 0

  // The WAL is a clean prefix of the reference (completed jobs only, in
  // submission order, no torn tail).
  const std::string prefix = ReadFile(journal);
  ASSERT_EQ(ReadFile(reference).compare(0, prefix.size(), prefix), 0);

  // Resume: skips journaled jobs, finishes the rest, byte-identical result.
  ASSERT_EQ(RunServe("--jobs " + jobs.string() + " --workers 1 --resume " +
                     " --journal " + journal.string()),
            0);
  EXPECT_EQ(ReadFile(journal), ReadFile(reference));
}
#endif  // !_WIN32

TEST(ServeChaosTest, AdmissionBackoffAbsorbsQueuePressure) {
  // One worker, queue capacity 1: most submissions bounce off the admission
  // bound. The job file must absorb every rejection by waiting in the
  // backlog for completions (exit 0, all jobs solved), and since its lines
  // are pulled only while the backlog has room, none of them is shed.
  const std::filesystem::path jobs = ScratchDir() / "pressure_batch.jsonl";
  {
    std::ofstream out(jobs);
    for (int i = 0; i < 8; ++i) {
      out << R"({"id":"p)" << i
          << R"(","k":2,"backend":"grasp","seed":)" << (7 + i)
          << R"(,"options":{"iterations":"100000"},"graph":)" << kTwoBlockGraph
          << "}\n";
    }
  }
  const std::filesystem::path report = ScratchDir() / "pressure_report.json";
  const std::filesystem::path events = ScratchDir() / "events_pressure.jsonl";
  ASSERT_EQ(RunServe("--jobs " + jobs.string() +
                     " --workers 1 --queue-cap 1 --metrics-json " +
                     report.string() + " --events " + events.string()),
            0);
  const BatchRun run = ParseEvents(events);
  EXPECT_EQ(run.batch_jobs, 8);
  EXPECT_EQ(run.batch_failed, 0);

  const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* counters = parsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("svc.jobs.rejected"), nullptr);
  EXPECT_GE(counters->Find("svc.jobs.rejected")->AsInt(), 1);
  const obs::JsonValue* shed = counters->Find("svc.admission.shed");
  EXPECT_TRUE(shed == nullptr || shed->AsInt() == 0);
}

}  // namespace
}  // namespace qplex
