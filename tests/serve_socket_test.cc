// End-to-end test of qplex_serve --listen: four concurrent loopback clients
// multiplexed onto one scheduler with per-client response routing, the
// record/replay determinism contract (byte-identical --journal), per-request
// errors for malformed lines on a surviving connection, oversize-line
// rejection, the graceful SIGTERM drain (in-flight responses all arrive,
// exit code 0), pipelined clients and a mid-stream disconnect under throw
// chaos, the brownout scenarios (breaker trip and recovery, overload
// shedding with retry hints, watchdog kills onto the fallback), periodic
// OpenMetrics snapshots, and the shared-path contract: a job
// file and a lockstep connection journal byte-identically, through the
// binaries and in-process through svc::FrontEnd. Binary paths are injected
// by CMake as QPLEX_SERVE_PATH / QPLEX_CLIENT_PATH / QPLEX_OBS_PATH.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/frame.h"
#include "net/io.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "svc/frontend.h"
#include "svc/registry.h"
#include "svc/scheduler.h"
#include "scratch_dir.h"

namespace qplex {
namespace {

std::filesystem::path TempDir(const std::string& name) {
  const std::filesystem::path dir = ScratchDir() / name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int RunClient(const std::string& args) {
  const std::string command =
      std::string(QPLEX_CLIENT_PATH) + " " + args + " >/dev/null 2>/dev/null";
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/// A qplex_serve --listen child process: fork/exec, wait for the port file,
/// SIGTERM + reaped exit status on Stop().
class ServeProcess {
 public:
  /// `extra` is appended to the base flag set. The server binds port 0 and
  /// announces the real port through --port-file.
  explicit ServeProcess(const std::filesystem::path& dir,
                        const std::string& extra = "") {
    const std::filesystem::path port_file = dir / "port.txt";
    std::string command = std::string(QPLEX_SERVE_PATH) + " --listen 0" +
                          " --port-file " + port_file.string() + " --journal " +
                          (dir / "journal.jsonl").string() +
                          " --events - --workers 4 " + extra +
                          " >/dev/null 2>" + (dir / "serve.err").string();
    pid_ = ::fork();
    if (pid_ == 0) {
      // exec through the shell so the redirections apply; `exec` makes the
      // server replace the shell, keeping pid_ signallable.
      ::execl("/bin/sh", "sh", "-c", ("exec " + command).c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int i = 0; i < 200 && port_ <= 0; ++i) {
      std::ifstream in(port_file);
      if (!(in >> port_)) {
        port_ = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  int port() const { return port_; }

  /// SIGTERM, reap, and return the exit code (-1 for abnormal death).
  int Stop() {
    if (pid_ <= 0) {
      return -1;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

const char* kBlockGraph =
    "{\"n\":8,\"edges\":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3],[3,4],[4,5],"
    "[4,6],[5,6],[5,7],[6,7]]}";

/// Writes `count` single-backend jobs with distinct labels job-0..count-1,
/// alternating backends so racing worker threads finish out of order.
std::filesystem::path WriteRequests(const std::filesystem::path& dir,
                                    int count) {
  const std::filesystem::path path = dir / "requests.jsonl";
  std::ofstream out(path);
  for (int i = 0; i < count; ++i) {
    const char* backend = i % 3 == 0 ? "bs" : (i % 3 == 1 ? "grasp" : "enum");
    out << "{\"id\":\"job-" << i << "\",\"k\":2,\"backend\":\"" << backend
        << "\",\"seed\":" << i << ",\"graph\":" << kBlockGraph << "}\n";
  }
  return path;
}

/// Parses the "label" field out of every JSONL response line.
std::vector<std::string> Labels(const std::string& jsonl) {
  std::vector<std::string> labels;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    if (parsed.ok() && parsed.value().is_object()) {
      const obs::JsonValue* label = parsed.value().Find("label");
      if (label != nullptr && label->is_string()) {
        labels.push_back(label->AsString());
      }
    }
  }
  return labels;
}

TEST(ServeSocketTest, FourConcurrentClientsGetTheirOwnResponses) {
  const std::filesystem::path dir = TempDir("concurrent");
  ServeProcess serve(dir);
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");

  const std::filesystem::path requests = WriteRequests(dir, 16);
  const std::filesystem::path conns = dir / "conns";
  std::filesystem::create_directories(conns);
  // One client process, four concurrent connections, requests dealt
  // round-robin: connection c receives exactly labels job-{c, c+4, c+8, ...}.
  ASSERT_EQ(RunClient("--port " + std::to_string(serve.port()) +
                      " --requests " + requests.string() +
                      " --connections 4 --mode pipeline --out-dir " +
                      conns.string()),
            0);
  for (int c = 0; c < 4; ++c) {
    const std::vector<std::string> labels = Labels(
        ReadFile(conns / ("conn-" + std::to_string(c) + ".jsonl")));
    std::set<std::string> expected;
    for (int i = c; i < 16; i += 4) {
      expected.insert("job-" + std::to_string(i));
    }
    // Routing: each connection gets exactly its own requests' responses,
    // never a neighbour's. Set equality, not sequence equality — responses
    // are tagged with the request id precisely because they arrive in
    // completion order, not request order.
    EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()), expected)
        << "connection " << c;
  }

  EXPECT_EQ(serve.Stop(), 0);
  // Every admitted job journaled exactly once.
  const std::vector<std::string> journaled =
      Labels(ReadFile(dir / "journal.jsonl"));
  EXPECT_EQ(std::set<std::string>(journaled.begin(), journaled.end()).size(),
            16u);
}

TEST(ServeSocketTest, RecordedScriptReplaysToByteIdenticalJournal) {
  const std::filesystem::path dir = TempDir("replay");
  const std::filesystem::path requests = WriteRequests(dir, 12);
  const std::filesystem::path script = dir / "script.txt";

  const std::filesystem::path rec_dir = TempDir("replay/rec");
  {
    ServeProcess serve(rec_dir);
    ASSERT_GT(serve.port(), 0) << ReadFile(rec_dir / "serve.err");
    const std::filesystem::path conns = rec_dir / "conns";
    std::filesystem::create_directories(conns);
    // --record tightens lockstep to one request in flight across all four
    // connections, so the script captures the server's admission order.
    ASSERT_EQ(RunClient("--port " + std::to_string(serve.port()) +
                        " --requests " + requests.string() +
                        " --connections 4 --record " + script.string() +
                        " --out-dir " + conns.string()),
              0);
    ASSERT_EQ(serve.Stop(), 0);
  }
  const std::string recorded_journal = ReadFile(rec_dir / "journal.jsonl");
  ASSERT_FALSE(recorded_journal.empty());
  ASSERT_EQ(Labels(recorded_journal).size(), 12u);

  const std::filesystem::path replay_dir = TempDir("replay/rep");
  {
    ServeProcess serve(replay_dir);
    ASSERT_GT(serve.port(), 0) << ReadFile(replay_dir / "serve.err");
    ASSERT_EQ(RunClient("--port " + std::to_string(serve.port()) +
                        " --replay " + script.string() + " --out " +
                        (replay_dir / "responses.jsonl").string()),
              0);
    ASSERT_EQ(serve.Stop(), 0);
  }
  // The determinism contract: replaying the recorded connection script on a
  // fresh server reproduces the WAL byte for byte.
  EXPECT_EQ(ReadFile(replay_dir / "journal.jsonl"), recorded_journal);
}

/// Reads one framed response line off a raw socket, with a poll timeout.
Result<std::string> ReadLine(int fd, net::FrameSplitter& splitter) {
  std::string line;
  for (int i = 0; i < 400; ++i) {
    if (splitter.Next(&line)) {
      return line;
    }
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLIN;
    if (net::PollFds(&waiter, 1, 25) <= 0) {
      continue;
    }
    char buffer[4096];
    const net::IoResult got = net::ReadFd(fd, buffer, sizeof(buffer));
    if (got.state == net::IoState::kClosed) {
      return Status::Internal("peer closed");
    }
    if (got.state == net::IoState::kOk) {
      QPLEX_RETURN_IF_ERROR(
          splitter.Feed(std::string_view(buffer, got.bytes)));
    }
  }
  return Status::DeadlineExceeded("no response within 10s");
}

Status SendAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const net::IoResult wrote =
        net::WriteFd(fd, text.data() + sent, text.size() - sent);
    if (wrote.state != net::IoState::kOk) {
      return Status::Internal("send failed");
    }
    sent += wrote.bytes;
  }
  return Status::Ok();
}

TEST(ServeSocketTest, MalformedLineEarnsErrorAndConnectionSurvives) {
  const std::filesystem::path dir = TempDir("malformed");
  ServeProcess serve(dir);
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");

  Result<int> fd = net::ConnectLoopback(serve.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  net::FrameSplitter splitter;

  ASSERT_TRUE(SendAll(fd.value(), "this is not json\n").ok());
  Result<std::string> error = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(error.ok()) << error.status();
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(error.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("status")->AsString(), "InvalidArgument");

  // The connection survives a malformed request: the next valid one solves.
  ASSERT_TRUE(
      SendAll(fd.value(), std::string("{\"id\":\"after\",\"k\":2,"
                                      "\"backend\":\"bs\",\"graph\":") +
                              kBlockGraph + "}\n")
          .ok());
  Result<std::string> response = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(response.ok()) << response.status();
  parsed = obs::JsonValue::Parse(response.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("label")->AsString(), "after");
  EXPECT_EQ(parsed.value().Find("status")->AsString(), "OK");
  EXPECT_EQ(parsed.value().Find("size")->AsInt(), 4);

  net::CloseFd(fd.value());
  EXPECT_EQ(serve.Stop(), 0);
}

TEST(ServeSocketTest, HealthRequestAnsweredInPlaceAndNeverJournaled) {
  const std::filesystem::path dir = TempDir("health");
  ServeProcess serve(dir, "--breaker-threshold 2 --breaker-cooldown 4");
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");

  Result<int> fd = net::ConnectLoopback(serve.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  net::FrameSplitter splitter;

  // A health probe is answered immediately, in place — no graph, no
  // admission, no scheduler round-trip.
  ASSERT_TRUE(SendAll(fd.value(), "{\"id\":\"hc-1\",\"type\":\"health\"}\n").ok());
  Result<std::string> health = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(health.ok()) << health.status();
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(health.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("label")->AsString(), "hc-1");
  EXPECT_EQ(parsed.value().Find("status")->AsString(), "OK");
  EXPECT_EQ(parsed.value().Find("type")->AsString(), "health");
  EXPECT_EQ(parsed.value().Find("draining")->AsBool(), false);
  EXPECT_EQ(parsed.value().Find("breakers_enabled")->AsBool(), true);
  EXPECT_EQ(parsed.value().Find("open_breakers")->AsInt(), 0);
  EXPECT_EQ(parsed.value().Find("watchdog_kills")->AsInt(), 0);
  ASSERT_NE(parsed.value().Find("breakers"), nullptr);

  // A real solve on the same connection still works, and a follow-up probe
  // reflects it in the served-request counters.
  ASSERT_TRUE(
      SendAll(fd.value(), std::string("{\"id\":\"solve-1\",\"k\":2,"
                                      "\"backend\":\"bs\",\"graph\":") +
                              kBlockGraph + "}\n")
          .ok());
  Result<std::string> response = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(response.ok()) << response.status();
  parsed = obs::JsonValue::Parse(response.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("label")->AsString(), "solve-1");
  EXPECT_EQ(parsed.value().Find("status")->AsString(), "OK");
  EXPECT_EQ(parsed.value().Find("size")->AsInt(), 4);

  ASSERT_TRUE(SendAll(fd.value(), "{\"id\":\"hc-2\",\"type\":\"health\"}\n").ok());
  Result<std::string> again = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(again.ok()) << again.status();
  parsed = obs::JsonValue::Parse(again.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_GE(parsed.value().Find("requests")->AsInt(), 1);
  EXPECT_GE(parsed.value().Find("responses")->AsInt(), 1);
  EXPECT_EQ(parsed.value().Find("outstanding")->AsInt(), 0);

  net::CloseFd(fd.value());
  EXPECT_EQ(serve.Stop(), 0);

  // Health probes are liveness traffic, not jobs: the record/replay journal
  // carries the solve but neither probe.
  const std::string journal = ReadFile(dir / "journal.jsonl");
  EXPECT_NE(journal.find("solve-1"), std::string::npos) << journal;
  EXPECT_EQ(journal.find("hc-1"), std::string::npos) << journal;
  EXPECT_EQ(journal.find("hc-2"), std::string::npos) << journal;
}

TEST(ServeSocketTest, OversizeLineIsRejectedAndConnectionClosed) {
  const std::filesystem::path dir = TempDir("oversize");
  ServeProcess serve(dir, "--max-line-bytes 256");
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");

  Result<int> fd = net::ConnectLoopback(serve.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  net::FrameSplitter splitter;
  ASSERT_TRUE(SendAll(fd.value(), std::string(1024, 'x') + "\n").ok());

  Result<std::string> error = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(error.ok()) << error.status();
  Result<obs::JsonValue> parsed = obs::JsonValue::Parse(error.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("status")->AsString(), "ResourceExhausted");
  // ... and then the server hangs up (the splitter cannot resynchronise).
  char buffer[64];
  net::IoResult got{};
  for (int i = 0; i < 400; ++i) {
    pollfd waiter{};
    waiter.fd = fd.value();
    waiter.events = POLLIN;
    if (net::PollFds(&waiter, 1, 25) <= 0) {
      continue;  // poll-wait so a misbehaving server cannot hang the test
    }
    got = net::ReadFd(fd.value(), buffer, sizeof(buffer));
    if (got.state != net::IoState::kOk) {
      break;
    }
  }
  EXPECT_EQ(got.state, net::IoState::kClosed);

  net::CloseFd(fd.value());
  EXPECT_EQ(serve.Stop(), 0);
}

TEST(ServeSocketTest, SigtermDrainsInFlightResponsesBeforeExit) {
  const std::filesystem::path dir = TempDir("drain");
  ServeProcess serve(dir);
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");

  Result<int> fd = net::ConnectLoopback(serve.port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  // Pipeline six requests without reading anything, then SIGTERM while they
  // are in flight. The graceful drain must finish every admitted job, flush
  // every response to this socket, and exit 0.
  std::string burst;
  for (int i = 0; i < 6; ++i) {
    burst += "{\"id\":\"drain-" + std::to_string(i) +
             "\",\"k\":2,\"backend\":\"grasp\",\"seed\":" + std::to_string(i) +
             ",\"graph\":" + kBlockGraph + "}\n";
  }
  ASSERT_TRUE(SendAll(fd.value(), burst).ok());
  // Wait for the first response so the SIGTERM provably lands mid-batch,
  // not before the requests were read.
  net::FrameSplitter splitter;
  Result<std::string> first = ReadLine(fd.value(), splitter);
  ASSERT_TRUE(first.ok()) << first.status();

  EXPECT_EQ(serve.Stop(), 0);

  std::vector<std::string> labels = Labels(first.value() + "\n");
  while (true) {
    Result<std::string> line = ReadLine(fd.value(), splitter);
    if (!line.ok()) {
      break;
    }
    for (std::string& label : Labels(line.value() + "\n")) {
      labels.push_back(std::move(label));
    }
  }
  std::vector<std::string> expected;
  for (int i = 0; i < 6; ++i) {
    expected.push_back("drain-" + std::to_string(i));
  }
  // Every response arrives (completion order); the journal is in admission
  // order, which for one pipelined connection IS the request order.
  EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()),
            std::set<std::string>(expected.begin(), expected.end()));
  EXPECT_EQ(Labels(ReadFile(dir / "journal.jsonl")), expected);
  net::CloseFd(fd.value());
}

TEST(ServeSocketTest, ListenAndJobsFlagsAreExclusive) {
  const std::string command = std::string(QPLEX_SERVE_PATH) +
                              " --listen 0 --jobs - >/dev/null 2>/dev/null";
  const int raw = std::system(command.c_str());
  EXPECT_EQ(WIFEXITED(raw) ? WEXITSTATUS(raw) : -1, 2);
}

/// Parses every line of a JSONL file into objects, skipping anything else.
std::vector<obs::JsonValue> JsonLines(const std::filesystem::path& path) {
  std::vector<obs::JsonValue> lines;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    if (parsed.ok() && parsed.value().is_object()) {
      lines.push_back(std::move(parsed).value());
    }
  }
  return lines;
}

TEST(ServeSocketTest, PipelinedClientsAndADisconnectSurviveThrowChaos) {
  const std::filesystem::path dir = TempDir("chaos");
  const std::filesystem::path requests = WriteRequests(dir, 24);
  const std::filesystem::path chaff = dir / "chaff.jsonl";
  {
    std::ofstream out(chaff);
    for (int i = 0; i < 6; ++i) {
      out << "{\"id\":\"chaff-" << i
          << "\",\"k\":2,\"backend\":\"grasp\",\"seed\":" << 100 + i
          << ",\"graph\":" << kBlockGraph << "}\n";
    }
  }
  const std::filesystem::path events = dir / "events.jsonl";
  // A quarter of all backend executions throw; six retries make a job
  // failing outright a rare event, so every job must end OK.
  ServeProcess serve(dir, "--fault-spec solver_throw:0.25:7 --max-retries 6 "
                          "--events " + events.string());
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");
  const std::string port = std::to_string(serve.port());

  const std::filesystem::path conns = dir / "conns";
  std::filesystem::create_directories(conns);
  int pipelined_exit = -1;
  std::thread pipelined([&] {
    pipelined_exit = RunClient("--port " + port + " --requests " +
                               requests.string() +
                               " --connections 3 --mode pipeline --out-dir " +
                               conns.string());
  });
  // This client hangs up after 2 of its 6 requests without reading any
  // response; the two it sent still run and journal.
  EXPECT_EQ(RunClient("--port " + port + " --requests " + chaff.string() +
                      " --mode pipeline --disconnect-after 2 --out " +
                      (dir / "chaff_responses.jsonl").string()),
            0);
  pipelined.join();
  EXPECT_EQ(pipelined_exit, 0);
  ASSERT_EQ(serve.Stop(), 0);

  // Every admitted job is journaled exactly once, and OK.
  std::vector<std::string> journaled;
  for (const obs::JsonValue& entry : JsonLines(dir / "journal.jsonl")) {
    journaled.push_back(entry.Find("label")->AsString());
    EXPECT_EQ(entry.Find("status")->AsString(), "OK") << journaled.back();
  }
  std::set<std::string> expected = {"chaff-0", "chaff-1"};
  for (int i = 0; i < 24; ++i) {
    expected.insert("job-" + std::to_string(i));
  }
  EXPECT_EQ(journaled.size(), expected.size());
  EXPECT_EQ(std::set<std::string>(journaled.begin(), journaled.end()),
            expected);

  // Each connection gets exactly its own labels, in completion order.
  for (int c = 0; c < 3; ++c) {
    std::vector<std::string> labels = Labels(
        ReadFile(conns / ("conn-" + std::to_string(c) + ".jsonl")));
    std::vector<std::string> own;
    for (int i = c; i < 24; i += 3) {
      own.push_back("job-" + std::to_string(i));
    }
    std::sort(labels.begin(), labels.end());
    std::sort(own.begin(), own.end());
    EXPECT_EQ(labels, own) << "connection " << c;
  }

  std::set<std::string> kinds;
  int retries = 0;
  for (const obs::JsonValue& event : JsonLines(events)) {
    if (const obs::JsonValue* name = event.Find("event"); name != nullptr) {
      kinds.insert(name->AsString());
      retries += name->AsString() == "job_retry" ? 1 : 0;
    }
  }
  EXPECT_TRUE(kinds.count("listening") && kinds.count("draining"));
  EXPECT_GE(retries, 1) << "the fault spec never fired";

  const int analyzed = std::system(
      (std::string(QPLEX_OBS_PATH) + " --events " + events.string() +
       " --journal " + (dir / "journal.jsonl").string() +
       " >/dev/null 2>&1")
          .c_str());
  EXPECT_EQ(WIFEXITED(analyzed) ? WEXITSTATUS(analyzed) : -1, 0);
}

/// Writes `count` jobs for `backend` on the two-block graph, labelled
/// <prefix>-0..count-1.
std::filesystem::path WriteBackendRequests(const std::filesystem::path& dir,
                                           const std::string& prefix,
                                           const std::string& backend,
                                           int count) {
  const std::filesystem::path path = dir / "requests.jsonl";
  std::ofstream out(path);
  for (int i = 0; i < count; ++i) {
    out << "{\"id\":\"" << prefix << "-" << i << "\",\"k\":2,\"backend\":\""
        << backend << "\",\"seed\":" << i << ",\"graph\":" << kBlockGraph
        << "}\n";
  }
  return path;
}

/// Events of one kind (`"event": name`) from a JSONL events file.
std::vector<obs::JsonValue> EventsNamed(const std::filesystem::path& path,
                                        const std::string& name) {
  std::vector<obs::JsonValue> matching;
  for (obs::JsonValue& event : JsonLines(path)) {
    const obs::JsonValue* kind = event.Find("event");
    if (kind != nullptr && kind->AsString() == name) {
      matching.push_back(std::move(event));
    }
  }
  return matching;
}

/// Validates a serve run's events and journal with qplex_obs and returns
/// its health report; fails the test when the analyzer rejects them.
std::string AnalyzedHealthReport(const std::filesystem::path& dir) {
  const std::filesystem::path health = dir / "health.txt";
  const int analyzed = std::system(
      (std::string(QPLEX_OBS_PATH) + " --events " +
       (dir / "events.jsonl").string() + " --journal " +
       (dir / "journal.jsonl").string() + " --health " + health.string() +
       " >/dev/null 2>&1")
          .c_str());
  EXPECT_EQ(WIFEXITED(analyzed) ? WEXITSTATUS(analyzed) : -1, 0);
  return ReadFile(health);
}

TEST(ServeSocketTest, BreakerTripsAndRecoversUnderThrowChaos) {
  const std::filesystem::path dir = TempDir("brownout_breaker");
  const std::filesystem::path requests =
      WriteBackendRequests(dir, "trip", "bs", 9);
  const std::filesystem::path probe = dir / "probe.jsonl";
  std::ofstream(probe) << "{\"id\":\"probe\",\"type\":\"health\"}\n";
  // Every 3rd execution throws. A one-failure threshold opens the breaker on
  // each throw, and a one-consult cooldown makes the very next execution the
  // half-open probe, which lands on a clean call and closes it again.
  ServeProcess serve(dir, "--fault-spec solver_throw:3:1 --workers 1 "
                          "--max-retries 3 --breaker-threshold 1 "
                          "--breaker-cooldown 1 --events " +
                              (dir / "events.jsonl").string());
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");
  const std::string port = std::to_string(serve.port());
  RunClient("--port " + port + " --requests " + requests.string() +
            " --mode pipeline --out " + (dir / "responses.jsonl").string());
  ASSERT_EQ(RunClient("--port " + port + " --requests " + probe.string() +
                      " --out " + (dir / "health_response.jsonl").string()),
            0);
  ASSERT_EQ(serve.Stop(), 0);

  const std::vector<obs::JsonValue> responses =
      JsonLines(dir / "responses.jsonl");
  ASSERT_EQ(responses.size(), 9u);
  // The retry budget absorbs the throws except in the one interleaving
  // where a single job eats every throw.
  EXPECT_GE(std::count_if(responses.begin(), responses.end(),
                          [](const obs::JsonValue& r) {
                            return r.Find("status")->AsString() == "OK";
                          }),
            8);
  std::set<std::pair<std::string, std::string>> edges;
  for (const obs::JsonValue& event :
       EventsNamed(dir / "events.jsonl", "breaker_transition")) {
    edges.emplace(event.Find("from")->AsString(),
                  event.Find("to")->AsString());
  }
  EXPECT_TRUE(edges.count({"closed", "open"}));
  EXPECT_TRUE(edges.count({"half_open", "closed"}));

  const std::vector<obs::JsonValue> health =
      JsonLines(dir / "health_response.jsonl");
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].Find("type")->AsString(), "health");
  EXPECT_EQ(health[0].Find("status")->AsString(), "OK");
  EXPECT_TRUE(health[0].Find("breakers_enabled")->AsBool());
  const obs::JsonValue* breakers = health[0].Find("breakers");
  ASSERT_NE(breakers, nullptr);
  bool bs_listed = false;
  for (std::size_t i = 0; i < breakers->size(); ++i) {
    bs_listed |= breakers->at(i).Find("backend")->AsString() == "bs";
  }
  EXPECT_TRUE(bs_listed);

  const std::string report = AnalyzedHealthReport(dir);
  EXPECT_NE(report.find("closed->open"), std::string::npos) << report;
  EXPECT_NE(report.find("half_open->closed"), std::string::npos) << report;
}

TEST(ServeSocketTest, OverloadShedsWithRetryHintsAndJournalsTheAdmitted) {
  const std::filesystem::path dir = TempDir("brownout_shed");
  const std::filesystem::path requests =
      WriteBackendRequests(dir, "flood", "bs", 40);
  // 2x overload: 40 pipelined requests flood one 25 ms/solve worker behind a
  // 4-deep queue.
  ServeProcess serve(dir, "--fault-spec solver_slow:1:1 --workers 1 "
                          "--max-retries 0 --queue-cap 4 "
                          "--shed-target-ms 25 --events " +
                              (dir / "events.jsonl").string());
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");
  RunClient("--port " + std::to_string(serve.port()) + " --requests " +
            requests.string() + " --mode pipeline --out " +
            (dir / "responses.jsonl").string());
  ASSERT_EQ(serve.Stop(), 0);

  const std::vector<obs::JsonValue> responses =
      JsonLines(dir / "responses.jsonl");
  ASSERT_EQ(responses.size(), 40u);
  std::vector<std::string> admitted;
  int shed = 0;
  for (const obs::JsonValue& response : responses) {
    const std::string& status = response.Find("status")->AsString();
    if (status == "OK") {
      admitted.push_back(response.Find("label")->AsString());
      continue;
    }
    // Everything not admitted is shed explicitly, with a retry hint.
    ASSERT_EQ(status, "ResourceExhausted") << response.Dump();
    ++shed;
    const obs::JsonValue* retry_after = response.Find("retry_after_ms");
    ASSERT_NE(retry_after, nullptr) << response.Dump();
    EXPECT_GT(retry_after->AsDouble(), 0) << response.Dump();
  }
  EXPECT_GE(shed, 10) << "too few shed under 2x overload";

  // Admitted work journals exactly once; shed work never does.
  std::vector<std::string> journaled =
      Labels(ReadFile(dir / "journal.jsonl"));
  std::sort(journaled.begin(), journaled.end());
  std::sort(admitted.begin(), admitted.end());
  EXPECT_EQ(journaled, admitted);
  EXPECT_EQ(std::set<std::string>(journaled.begin(), journaled.end()).size(),
            journaled.size());

  const std::vector<obs::JsonValue> sheds =
      EventsNamed(dir / "events.jsonl", "admission_shed");
  EXPECT_EQ(static_cast<int>(sheds.size()), shed);
  std::set<std::string> reasons;
  for (const obs::JsonValue& event : sheds) {
    reasons.insert(event.Find("reason")->AsString());
  }
  EXPECT_TRUE(reasons.count("backlog_full"));
  for (const std::string& reason : reasons) {
    EXPECT_TRUE(reason == "backlog_full" || reason == "queue_delay") << reason;
  }

  const std::string report = AnalyzedHealthReport(dir);
  EXPECT_NE(report.find("backlog_full"), std::string::npos) << report;
}

TEST(ServeSocketTest, WatchdogKillsWedgedExecutionsOntoTheFallback) {
  const std::filesystem::path dir = TempDir("brownout_watchdog");
  const std::filesystem::path requests =
      WriteBackendRequests(dir, "wedge", "qtkp", 4);
  // Every 2nd execution wedges without heartbeating. On one worker the call
  // pattern is exact: qtkp executions 2, 4 and 6 wedge and are killed, and
  // their bs fallback hops (calls 3, 5 and 7) run clean.
  ServeProcess serve(dir, "--fault-spec solver_stall:2:1 --workers 1 "
                          "--max-retries 0 --watchdog-stall-ms 60 "
                          "--watchdog-poll-ms 5 --events " +
                              (dir / "events.jsonl").string());
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");
  ASSERT_EQ(RunClient("--port " + std::to_string(serve.port()) +
                      " --requests " + requests.string() +
                      " --mode pipeline --out " +
                      (dir / "responses.jsonl").string()),
            0);
  ASSERT_EQ(serve.Stop(), 0);

  const std::vector<obs::JsonValue> responses =
      JsonLines(dir / "responses.jsonl");
  ASSERT_EQ(responses.size(), 4u);
  int fell_back = 0;
  for (const obs::JsonValue& response : responses) {
    EXPECT_EQ(response.Find("status")->AsString(), "OK") << response.Dump();
    fell_back += response.Find("backend")->AsString() == "bs" ? 1 : 0;
  }
  EXPECT_EQ(fell_back, 3);

  const std::vector<obs::JsonValue> kills =
      EventsNamed(dir / "events.jsonl", "watchdog_kill");
  EXPECT_EQ(kills.size(), 3u);
  for (const obs::JsonValue& kill : kills) {
    EXPECT_EQ(kill.Find("backend")->AsString(), "qtkp");
  }
  EXPECT_EQ(JsonLines(dir / "journal.jsonl").size(), 4u);

  const std::string report = AnalyzedHealthReport(dir);
  EXPECT_NE(report.find("qtkp: kills=3"), std::string::npos) << report;
}

TEST(ServeSocketTest, PeriodicPromSnapshotIsWrittenBeforeSigterm) {
  const std::filesystem::path dir = TempDir("prom");
  const std::filesystem::path prom = dir / "metrics.prom";
  ServeProcess serve(dir, "--metrics-prom " + prom.string() +
                              " --metrics-prom-interval-ms 50");
  ASSERT_GT(serve.port(), 0) << ReadFile(dir / "serve.err");
  for (int i = 0; i < 200 && !std::filesystem::exists(prom); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  // Read while the server still runs: only the periodic snapshot can have
  // written the file yet.
  const std::string exposition = ReadFile(prom);
  ASSERT_FALSE(exposition.empty());
  EXPECT_TRUE(obs::CheckOpenMetrics(exposition).ok())
      << obs::CheckOpenMetrics(exposition);
  EXPECT_EQ(serve.Stop(), 0);
}

TEST(ServeSocketTest, JobFileAndLockstepConnectionJournalIdentically) {
  const std::filesystem::path dir = TempDir("shared");
  const std::filesystem::path file_journal = dir / "file.jsonl";
  const int batch = std::system(
      (std::string(QPLEX_SERVE_PATH) + " --jobs " + QPLEX_SERVICE_BATCH +
       " --journal " + file_journal.string() + " >/dev/null 2>&1")
          .c_str());
  ASSERT_EQ(WIFEXITED(batch) ? WEXITSTATUS(batch) : -1, 0);

  const std::filesystem::path conn_dir = TempDir("shared/conn");
  {
    ServeProcess serve(conn_dir);
    ASSERT_GT(serve.port(), 0) << ReadFile(conn_dir / "serve.err");
    ASSERT_EQ(RunClient("--port " + std::to_string(serve.port()) +
                        " --requests " + QPLEX_SERVICE_BATCH + " --out " +
                        (conn_dir / "responses.jsonl").string()),
              0);
    ASSERT_EQ(serve.Stop(), 0);
  }
  const std::string journal = ReadFile(file_journal);
  EXPECT_EQ(Labels(journal).size(), 22u);
  EXPECT_EQ(ReadFile(conn_dir / "journal.jsonl"), journal);
}

/// Sends every request line of `text` over one connection, one request in
/// flight at a time.
Status SendLockstep(int port, const std::string& text) {
  QPLEX_ASSIGN_OR_RETURN(const int fd, net::ConnectLoopback(port));
  net::FrameSplitter splitter;
  std::istringstream lines(text);
  std::string line;
  Status status;
  while (status.ok() && std::getline(lines, line)) {
    if (!svc::IsSkippedLine(line)) {
      status = SendAll(fd, line + "\n");
      if (status.ok()) {
        status = ReadLine(fd, splitter).status();
      }
    }
  }
  net::CloseFd(fd);
  return status;
}

TEST(FrontEndTest, JobFileAndConnectionSourcesJournalIdentically) {
  const std::string text = ReadFile(QPLEX_SERVICE_BATCH);
  const svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  svc::FrontEndOptions options;

  std::ostringstream file_journal;
  {
    svc::JobScheduler scheduler(&registry);
    svc::FrontEnd front_end(&scheduler, &file_journal, options);
    Result<std::vector<svc::RequestSpec>> jobs =
        svc::LoadJobFile(text, registry, options.queue_cap);
    ASSERT_TRUE(jobs.ok()) << jobs.status();
    front_end.AddJobs(std::move(jobs).value());
    const Result<svc::FrontEndOutcome> served =
        front_end.Run([] { return false; });
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served.value().failures, 0);
    EXPECT_FALSE(served.value().interrupted);
  }

  std::ostringstream conn_journal;
  {
    svc::JobScheduler scheduler(&registry);
    options.listen_port = 0;
    svc::FrontEnd front_end(&scheduler, &conn_journal, options);
    ASSERT_TRUE(front_end.Listen().ok());
    std::atomic<bool> done{false};
    Status lockstep;
    std::thread client([&] {
      lockstep = SendLockstep(front_end.port(), text);
      done = true;
    });
    const Result<svc::FrontEndOutcome> served =
        front_end.Run([&] { return done.load(); });
    client.join();
    ASSERT_TRUE(lockstep.ok()) << lockstep;
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served.value().requests, 22);
    EXPECT_EQ(served.value().responses, 22);
    EXPECT_EQ(served.value().failures, 0);
  }
  EXPECT_EQ(Labels(file_journal.str()).size(), 22u);
  EXPECT_EQ(conn_journal.str(), file_journal.str());
}

}  // namespace
}  // namespace qplex
