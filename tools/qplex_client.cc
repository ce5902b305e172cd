// Blocking loopback client for qplex_serve --listen: sends JSONL request
// lines, collects one JSON response line per request, and (optionally)
// records or replays connection scripts for the determinism contract.
//
//   qplex_client --port <int> (--requests <file|-> | --replay <script>)
//                [--mode lockstep|pipeline] [--connections <int>]
//                [--out <file|->] [--out-dir <dir>]
//                [--record <script>] [--disconnect-after <int>]
//                [--request-timeout-ms <int>]
//
// --request-timeout-ms bounds the wait for each individual response
// (--timeout-ms is accepted as an alias). On a timeout the client exits 3
// (vs 1 for other connection failures, 2 for usage errors) and reports how
// many requests each failed connection had sent and how many responses it
// had received — the responses that did arrive are already in --out, so a
// partially-hung server still yields its partial results.
//
// Modes:
//   lockstep  one request in flight per connection: send a line, wait for
//             its response, repeat. The default, and the deterministic one.
//   pipeline  each connection writes all of its requests first, then reads
//             all of the responses — exercises the server's frame splitter
//             (many lines per read) and write coalescing.
//
// --connections N opens N concurrent connections (threads) and deals the
// request lines round-robin across them, so a multi-client test gets
// disjoint labels per connection. Responses land in --out-dir/conn-<i>.jsonl
// per connection, or interleave into --out (stdout by default).
//
// Determinism contract (DESIGN.md section 14): --record <script> tightens
// lockstep mode to ONE request in flight across ALL connections (a global
// turnstile) and appends each request line to the script in that global
// order. Because the server admits requests in arrival order and journals in
// admission order, the script order IS the journal order. Replaying it —
// `qplex_client --replay script` (single connection, lockstep) — therefore
// reproduces a byte-identical --journal WAL on a fresh server.
//
// --disconnect-after N closes the connection abruptly after sending N
// requests without reading the remaining responses — chaos input for the
// server's dropped-response path (exit stays 0; the disconnect is the test).

#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <poll.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/io.h"

namespace qplex {
namespace {

struct ClientOptions {
  int port = -1;
  std::string requests;  // request lines; "-" = stdin
  std::string replay;    // recorded script to replay (single connection)
  std::string record;    // script to write (forces global lockstep)
  std::string mode = "lockstep";
  int connections = 1;
  std::string out = "-";  // single response stream ("-" = stdout)
  std::string out_dir;    // per-connection response files
  int disconnect_after = -1;  // sends before an abrupt close; -1 = never
  int timeout_ms = 30000;     // per-response receive timeout
                              // (--request-timeout-ms / --timeout-ms)
};

void PrintUsage() {
  std::cerr
      << "usage: qplex_client --port <int> (--requests <file|-> | "
         "--replay <script>)\n"
         "                    [--mode lockstep|pipeline] "
         "[--connections <int>]\n"
         "                    [--out <file|->] [--out-dir <dir>]\n"
         "                    [--record <script>] "
         "[--disconnect-after <int>]\n"
         "                    [--request-timeout-ms <int>]\n";
}

Result<ClientOptions> ParseArgs(int argc, char** argv) {
  ClientOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--port") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.port, ParseNumber<int>(arg, value));
    } else if (arg == "--requests") {
      QPLEX_ASSIGN_OR_RETURN(options.requests, next());
    } else if (arg == "--replay") {
      QPLEX_ASSIGN_OR_RETURN(options.replay, next());
    } else if (arg == "--record") {
      QPLEX_ASSIGN_OR_RETURN(options.record, next());
    } else if (arg == "--mode") {
      QPLEX_ASSIGN_OR_RETURN(options.mode, next());
      if (options.mode != "lockstep" && options.mode != "pipeline") {
        return Status::InvalidArgument("--mode must be lockstep or pipeline");
      }
    } else if (arg == "--connections") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.connections,
                             ParseNumber<int>(arg, value));
    } else if (arg == "--out") {
      QPLEX_ASSIGN_OR_RETURN(options.out, next());
    } else if (arg == "--out-dir") {
      QPLEX_ASSIGN_OR_RETURN(options.out_dir, next());
    } else if (arg == "--disconnect-after") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.disconnect_after,
                             ParseNumber<int>(arg, value));
    } else if (arg == "--request-timeout-ms" || arg == "--timeout-ms") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.timeout_ms,
                             ParseNumber<int>(arg, value));
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.port < 1 || options.port > 65535) {
    return Status::InvalidArgument("--port must be in [1, 65535]");
  }
  if (options.requests.empty() == options.replay.empty()) {
    return Status::InvalidArgument(
        "exactly one of --requests and --replay is required");
  }
  if (!options.replay.empty()) {
    // Replay IS the deterministic run: one connection, one in flight.
    if (options.connections != 1 || options.mode != "lockstep" ||
        !options.record.empty()) {
      return Status::InvalidArgument(
          "--replay implies a single lockstep connection and cannot "
          "re-record");
    }
    options.requests = options.replay;
  }
  if (!options.record.empty() && options.mode != "lockstep") {
    return Status::InvalidArgument(
        "--record requires --mode lockstep (the script must be a total "
        "admission order)");
  }
  if (options.connections < 1) {
    return Status::InvalidArgument("--connections must be >= 1");
  }
  if (options.connections > 1 && options.out_dir.empty()) {
    return Status::InvalidArgument("--connections > 1 requires --out-dir");
  }
  if (options.timeout_ms < 1) {
    return Status::InvalidArgument("--request-timeout-ms must be >= 1");
  }
  return options;
}

/// Loads request lines, skipping blanks and '#' comments — the same skip
/// rule the server applies, so lockstep accounting (one response per sent
/// line) stays balanced.
Result<std::vector<std::string>> LoadRequestLines(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(const std::string text, net::SlurpFile(path));
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

/// Writes `line` + '\n' fully to the (blocking) socket.
Status SendLine(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const net::IoResult wrote =
        net::WriteFd(fd, framed.data() + sent, framed.size() - sent);
    if (wrote.state == net::IoState::kClosed) {
      return Status::Internal("server closed the connection mid-request");
    }
    if (wrote.state == net::IoState::kError) {
      return Status::Internal("socket write failed: " +
                              std::string(std::strerror(wrote.errno_value)));
    }
    sent += wrote.bytes;
  }
  return Status::Ok();
}

/// Reads complete response lines off one connection. Lines already buffered
/// in `splitter` are served first; otherwise the socket is polled with a
/// fresh `timeout_ms` budget per line.
class ResponseReader {
 public:
  ResponseReader(int fd, int timeout_ms) : fd_(fd), timeout_ms_(timeout_ms) {}

  Result<std::string> NextLine() {
    while (true) {
      std::string line;
      if (splitter_.Next(&line)) {
        return line;
      }
      if (closed_) {
        return Status::Internal(
            "server closed the connection before all responses arrived");
      }
      pollfd waiter{};
      waiter.fd = fd_;
      waiter.events = POLLIN;
      const int ready = net::PollFds(&waiter, 1, timeout_ms_);
      if (ready < 0) {
        return Status::Internal("poll failed: " +
                                std::string(std::strerror(errno)));
      }
      if (ready == 0) {
        return Status::DeadlineExceeded(
            "timed out waiting for a response after " +
            std::to_string(timeout_ms_) + " ms");
      }
      char buffer[16 * 1024];
      const net::IoResult got = net::ReadFd(fd_, buffer, sizeof(buffer));
      if (got.state == net::IoState::kClosed) {
        closed_ = true;
        continue;  // drain any complete lines already buffered, then error
      }
      if (got.state == net::IoState::kError) {
        return Status::Internal("socket read failed: " +
                                std::string(std::strerror(got.errno_value)));
      }
      if (got.state == net::IoState::kOk) {
        QPLEX_RETURN_IF_ERROR(
            splitter_.Feed(std::string_view(buffer, got.bytes)));
      }
    }
  }

 private:
  int fd_;
  int timeout_ms_;
  net::FrameSplitter splitter_;
  bool closed_ = false;
};

/// Serializes record-mode exchanges: while a script is being recorded, only
/// one request may be in flight across every connection, and completed
/// request lines append to the script inside the same critical section.
struct Recorder {
  std::mutex mutex;
  std::ofstream script;
};

struct ConnectionTask {
  int index = 0;
  std::vector<std::string> lines;
  Status status = Status::Ok();
  std::size_t sent = 0;      ///< request lines written before stopping
  std::size_t received = 0;  ///< response lines landed in --out
};

void RunConnection(const ClientOptions& options, ConnectionTask* task,
                   Recorder* recorder, std::ostream* out) {
  Result<int> connected = net::ConnectLoopback(options.port);
  if (!connected.ok()) {
    task->status = connected.status();
    return;
  }
  const int fd = connected.value();
  ResponseReader reader(fd, options.timeout_ms);
  std::size_t sent = 0;
  Status status = Status::Ok();

  if (options.mode == "pipeline") {
    for (const std::string& line : task->lines) {
      if (options.disconnect_after >= 0 &&
          sent >= static_cast<std::size_t>(options.disconnect_after)) {
        break;
      }
      status = SendLine(fd, line);
      if (!status.ok()) {
        break;
      }
      ++sent;
    }
    const bool disconnected =
        options.disconnect_after >= 0 && sent < task->lines.size();
    if (status.ok() && !disconnected) {
      for (std::size_t i = 0; i < sent; ++i) {
        Result<std::string> response = reader.NextLine();
        if (!response.ok()) {
          status = response.status();
          break;
        }
        *out << response.value() << "\n";
        ++task->received;
      }
    }
  } else {
    for (const std::string& line : task->lines) {
      if (options.disconnect_after >= 0 &&
          sent >= static_cast<std::size_t>(options.disconnect_after)) {
        break;
      }
      std::unique_lock<std::mutex> turnstile;
      if (recorder != nullptr) {
        turnstile = std::unique_lock<std::mutex>(recorder->mutex);
      }
      status = SendLine(fd, line);
      if (!status.ok()) {
        break;
      }
      ++sent;
      Result<std::string> response = reader.NextLine();
      if (!response.ok()) {
        status = response.status();
        break;
      }
      if (recorder != nullptr) {
        recorder->script << line << "\n" << std::flush;
      }
      *out << response.value() << "\n";
      ++task->received;
    }
  }
  net::CloseFd(fd);
  out->flush();
  task->sent = sent;
  task->status = status;
}

int Main(int argc, char** argv) {
  net::IgnoreSigpipe();  // a server hangup must be a Status, not a signal
  const Result<ClientOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    PrintUsage();
    return 2;
  }
  const ClientOptions& options = parsed.value();

  Result<std::vector<std::string>> lines = LoadRequestLines(options.requests);
  if (!lines.ok()) {
    std::cerr << "failed to read requests: " << lines.status() << "\n";
    return 2;
  }

  // Deal the request lines round-robin across the connections, preserving
  // relative order within each.
  std::vector<ConnectionTask> tasks(options.connections);
  for (int i = 0; i < options.connections; ++i) {
    tasks[i].index = i;
  }
  for (std::size_t i = 0; i < lines.value().size(); ++i) {
    tasks[i % tasks.size()].lines.push_back(lines.value()[i]);
  }

  std::unique_ptr<Recorder> recorder;
  if (!options.record.empty()) {
    recorder = std::make_unique<Recorder>();
    recorder->script.open(options.record, std::ios::trunc);
    if (!recorder->script) {
      std::cerr << "cannot open record script: " << options.record << "\n";
      return 2;
    }
  }

  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::ostream*> outs(tasks.size(), nullptr);
  if (!options.out_dir.empty()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto file = std::make_unique<std::ofstream>(
          options.out_dir + "/conn-" + std::to_string(i) + ".jsonl",
          std::ios::trunc);
      if (!*file) {
        std::cerr << "cannot open response file in " << options.out_dir
                  << "\n";
        return 2;
      }
      outs[i] = file.get();
      files.push_back(std::move(file));
    }
  } else if (options.out == "-") {
    outs[0] = &std::cout;
  } else {
    auto file = std::make_unique<std::ofstream>(options.out, std::ios::trunc);
    if (!*file) {
      std::cerr << "cannot open response file: " << options.out << "\n";
      return 2;
    }
    outs[0] = file.get();
    files.push_back(std::move(file));
  }

  if (tasks.size() == 1) {
    RunConnection(options, &tasks[0], recorder.get(), outs[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      threads.emplace_back([&, i] {
        RunConnection(options, &tasks[i], recorder.get(), outs[i]);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  // Partial-results report: a failed connection says how far it got — the
  // responses it did receive are already flushed to --out, so the caller
  // keeps them. A timeout gets its own exit code (3) so scripts can tell a
  // hung server from a hangup.
  int failures = 0;
  bool timed_out = false;
  for (const ConnectionTask& task : tasks) {
    if (task.status.ok()) {
      continue;
    }
    ++failures;
    if (task.status.code() == StatusCode::kDeadlineExceeded) {
      timed_out = true;
    }
    std::cerr << "conn-" << task.index << ": " << task.status << "\n";
    std::cerr << "conn-" << task.index << ": partial results: sent "
              << task.sent << "/" << task.lines.size() << " request(s), "
              << "received " << task.received << " response(s)\n";
  }
  if (failures == 0) {
    return 0;
  }
  return timed_out ? 3 : 1;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
