// Loopback-socket serving throughput bench: the service_throughput batch
// pushed through the real net stack. Four concurrent clients pipeline a
// deterministic mixed-backend request stream over TCP into svc::FrontEnd
// over the JobScheduler (the same front-end qplex_serve --listen runs), and
// read their responses back.
//
// Captured counters are deterministic by construction: every request is
// unique (no cache, distinct seeds per client), so connection counts, parsed
// line counts, total bytes in/out, per-backend job counts, client-side
// response counts, and the summed solution sizes are all independent of
// scheduling order. Wall-clocks (requests/s, drain latency) land in report
// meta, which benchdiff never gates; the handful of genuinely racy gauges
// (high-water marks) get warn-only rules in benchdiff_rules.json.

#include <atomic>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "net/frame.h"
#include "net/io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "svc/frontend.h"
#include "svc/registry.h"
#include "svc/scheduler.h"

namespace qplex {
namespace {

constexpr int kWorkers = 4;
constexpr int kClients = 4;
constexpr int kRequestsPerClient = 12;

const char* kGraphs[3] = {
    // Two K4 blocks joined by an edge.
    "{\"n\":8,\"edges\":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3],[3,4],[4,5],"
    "[4,6],[5,6],[5,7],[6,7]]}",
    // C5 with a chord.
    "{\"n\":5,\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,0],[0,2]]}",
    // A 3x3 rook-ish mesh.
    "{\"n\":9,\"edges\":[[0,1],[1,2],[3,4],[4,5],[6,7],[7,8],[0,3],[3,6],"
    "[1,4],[4,7],[2,5],[5,8]]}",
};

/// The deterministic per-client request stream: unique (client, index) seeds
/// so no two in-flight requests alias (the cache stays off regardless).
std::vector<std::string> ClientRequests(int client) {
  std::vector<std::string> lines;
  for (int i = 0; i < kRequestsPerClient; ++i) {
    const char* backend = i % 3 == 0 ? "bs" : (i % 3 == 1 ? "grasp" : "enum");
    lines.push_back("{\"id\":\"c" + std::to_string(client) + "-r" +
                    std::to_string(i) + "\",\"k\":2,\"backend\":\"" +
                    std::string(backend) + "\",\"seed\":" +
                    std::to_string(client * 100 + i) + ",\"graph\":" +
                    kGraphs[i % 3] + "}");
  }
  return lines;
}

/// One blocking pipeline client: connect, write every request, read every
/// response, accumulate the solution sizes.
void RunClient(int client, int port, std::atomic<std::int64_t>* responses,
               std::atomic<std::int64_t>* total_size) {
  const Result<int> fd = net::ConnectLoopback(port);
  QPLEX_CHECK(fd.ok()) << fd.status().ToString();
  std::string burst;
  for (const std::string& line : ClientRequests(client)) {
    burst += line + "\n";
  }
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const net::IoResult wrote =
        net::WriteFd(fd.value(), burst.data() + sent, burst.size() - sent);
    QPLEX_CHECK(wrote.state == net::IoState::kOk) << "client write failed";
    sent += wrote.bytes;
  }
  net::FrameSplitter splitter;
  int received = 0;
  while (received < kRequestsPerClient) {
    std::string line;
    if (splitter.Next(&line)) {
      const Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
      QPLEX_CHECK(parsed.ok()) << "unparseable response: " << line;
      const obs::JsonValue* size = parsed.value().Find("size");
      QPLEX_CHECK(size != nullptr) << "response without size: " << line;
      total_size->fetch_add(size->AsInt(), std::memory_order_relaxed);
      responses->fetch_add(1, std::memory_order_relaxed);
      ++received;
      continue;
    }
    char buffer[16 * 1024];
    const net::IoResult got =
        net::ReadFd(fd.value(), buffer, sizeof(buffer));
    QPLEX_CHECK(got.state == net::IoState::kOk)
        << "server hung up after " << received << " responses";
    QPLEX_CHECK(splitter.Feed(std::string_view(buffer, got.bytes)).ok());
  }
  net::CloseFd(fd.value());
}

}  // namespace
}  // namespace qplex

int main() {
  using namespace qplex;
  std::cout << "Net throughput bench: " << kClients
            << " pipelined loopback clients x " << kRequestsPerClient
            << " requests\n";
  net::IgnoreSigpipe();
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  svc::JobSchedulerOptions scheduler_options;
  scheduler_options.num_workers = kWorkers;
  // Unique requests by design; the cache would only add timing-dependent
  // hit/miss counters to the gated report.
  scheduler_options.enable_cache = false;
  scheduler_options.queue_capacity = 2 * kClients * kRequestsPerClient;
  svc::JobScheduler scheduler(&registry, scheduler_options);

  svc::FrontEndOptions front_end_options;
  front_end_options.queue_cap =
      static_cast<int>(scheduler_options.queue_capacity);
  front_end_options.listen_port = 0;
  front_end_options.max_connections = kClients;
  svc::FrontEnd front_end(&scheduler, /*journal=*/nullptr, front_end_options);
  const Status listening = front_end.Listen();
  QPLEX_CHECK(listening.ok()) << listening.ToString();

  std::atomic<std::int64_t> responses{0};
  std::atomic<std::int64_t> total_size{0};
  Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, c, front_end.port(), &responses,
                         &total_size);
  }

  const std::int64_t expected =
      static_cast<std::int64_t>(kClients) * kRequestsPerClient;
  // Stop once every client has its answers and the server has seen every
  // connection close, so the connection counters are final.
  const Result<svc::FrontEndOutcome> served = front_end.Run([&] {
    return responses.load() == expected &&
           obs::MetricsRegistry::Global()
                   .GetGauge("net.connections.active")
                   .Get() == 0;
  });
  QPLEX_CHECK(served.ok()) << served.status().ToString();
  QPLEX_CHECK(served.value().failures == 0 && served.value().malformed == 0)
      << "requests failed or were malformed";
  for (std::thread& client : clients) {
    client.join();
  }
  const double wall_seconds = watch.ElapsedSeconds();

  obs::MetricsRegistry::Global()
      .GetCounter("bench.responses.received")
      .Add(responses.load());
  obs::MetricsRegistry::Global()
      .GetCounter("bench.total_solution_size")
      .Add(total_size.load());
  std::cout << "  " << expected << " requests in " << wall_seconds << " s ("
            << expected / wall_seconds << " req/s), summed solution size "
            << total_size.load() << "\n";

  obs::RunReport report("Net");
  report.SetMeta("workers", kWorkers);
  report.SetMeta("clients", kClients);
  report.SetMeta("requests", expected);
  report.SetMeta("batch_seconds", wall_seconds);
  report.SetMeta("requests_per_wall_second", expected / wall_seconds);
  report.Capture();
  bench::EmitBenchReport(report);

  if (responses.load() != expected) {
    std::cerr << "FAIL: expected " << expected << " responses, got "
              << responses.load() << "\n";
    return 1;
  }
  return 0;
}
