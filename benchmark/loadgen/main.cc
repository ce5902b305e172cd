// qplex_loadgen: drives one benchmark workload against a freshly started
// qplex_serve and prints the metrics BENCHMARK.json names.
//
//   qplex_loadgen --workload <name> --spec <BENCHMARK.json> --out <dir>
//                 [--seed N] [--trace 0|1] [--commit SHA]
//
// --trace 0 measures the end-to-end metrics over loopback TCP for the
// spec's run_seconds; --trace 1 sends the head of the stream serially and
// reports the per-layer metrics from the server's own spans plus an
// in-process replay of its front-end calls. The last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and a fuller result file lands in <out>. Exit codes: 0 ok, 1 run failed,
// 2 usage, 3 a request failed or was answered wrongly.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/client.h"
#include "loadgen/replay.h"
#include "loadgen/server.h"
#include "loadgen/workload.h"
#include "net/io.h"
#include "obs/json.h"
#include "svc/solver.h"

namespace qplex::bench {
namespace {

// setup_s is the median over this many server starts.
constexpr int kSetupSpawns = 21;
constexpr double kWarmupSeconds = 2;
constexpr double kDrainSeconds = 60;
// throughput_rps is the median rate over this many consecutive blocks of
// answers, so a stall of the shared host slows one block, not the metric.
constexpr int kThroughputBlocks = 10;
// flood_small runs on one connection: the first share of the run in lockstep
// (its latency), the rest with kFloodDepth requests pipelined (its
// throughput). Over four lockstep connections an answer went out either when
// another connection's request woke the server's front-end loop or at its
// next 2 ms poll tick, and p90 moved by a third between runs; over one, every
// answer waits for the tick. Four connections x 16 pipelined raised
// throughput by a fifth but spread it over 8 seeds by 14% (IQR / median),
// against 4-11% for one connection: the front-end loop is one thread, and
// its vCPU's speed on the shared host then sets the rate. An open loop at a
// fixed rate was tried instead of lockstep: when the shared host stalled the
// VM for ~100 ms, the overdue requests went out in one burst, overflowed the
// server's bounded backlog and were shed, and latency rose tenfold.
constexpr double kFloodLockstepShare = 0.25;
constexpr int kFloodDepth = 16;

enum Phase { kWarmup = 0, kMeasured = 1, kLockstep = 2 };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out;
  std::string spec;
  std::string commit = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    auto number = [&](auto* out) -> Status {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
      if (ec != std::errc{} || ptr != end) {
        return Status::InvalidArgument("bad number for " + flag + ": " +
                                       value);
      }
      return Status::Ok();
    };
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      QPLEX_RETURN_IF_ERROR(number(&args.seed));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.spec.empty()) {
    return Status::InvalidArgument("--workload, --spec and --out are required");
  }
  return args;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Cuts the answers' completion times (after `start`) into kThroughputBlocks
/// consecutive blocks of equal count and returns the median block rate: its
/// answers over the time since the previous block's last answer.
double MedianBlockRate(std::vector<double> done, double start) {
  std::sort(done.begin(), done.end());
  const std::size_t per_block = done.size() / kThroughputBlocks;
  if (per_block == 0) {
    return done.empty() ? 0 : Ratio(done.size(), done.back() - start);
  }
  std::vector<double> rates;
  double from = start;
  for (int b = 1; b <= kThroughputBlocks; ++b) {
    const double to = done[b * per_block - 1];
    rates.push_back(Ratio(per_block, to - from));
    from = to;
  }
  return Quantile(rates, 0.5);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read " + path);
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string StringField(const obs::JsonValue& object, std::string_view key) {
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->AsString()
                                                : std::string();
}

/// Everything one run reports.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  obs::JsonValue detail = obs::JsonValue::Object();
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts the refused and wrong answers; a wrong one clears `correct`.
  void Tally(const Check& check) {
    if (check.verdict != Verdict::kRefused &&
        check.verdict != Verdict::kWrong) {
      return;
    }
    ++failed;
    correct = correct && check.verdict != Verdict::kWrong;
    if (errors.size() < 5) {
      errors.push_back(check.error);
    }
  }
};

// ---------------------------------------------------------------------------
// End-to-end run.

Status RunEndToEnd(double seconds, const Workload& workload,
                   const std::string& run_root, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeProcess> server;
  for (int i = 0; i < kSetupSpawns; ++i) {
    if (server != nullptr) {
      QPLEX_RETURN_IF_ERROR(server->Stop(kDrainSeconds).status());
      std::filesystem::remove_all(server->run_dir());
    }
    QPLEX_ASSIGN_OR_RETURN(
        server, ServeProcess::Start(QPLEX_SERVE_BINARY,
                                    run_root + "/spawn" + std::to_string(i)));
    setup_s.push_back(server->ready_seconds());
  }
  QPLEX_ASSIGN_OR_RETURN(
      std::unique_ptr<LoadClient> client,
      LoadClient::Connect(server->port(), workload.connections(), &workload));
  const bool flood = workload.loop() == LoopKind::kFlood;
  const int depth = flood ? kFloodDepth : 1;
  QPLEX_RETURN_IF_ERROR(client->RunClosed(kWarmup, depth, kWarmupSeconds));
  QPLEX_RETURN_IF_ERROR(client->Drain(kDrainSeconds));
  double closed_seconds = seconds;
  if (flood) {
    closed_seconds -= seconds * kFloodLockstepShare;
    QPLEX_RETURN_IF_ERROR(
        client->RunClosed(kLockstep, 1, seconds * kFloodLockstepShare));
    QPLEX_RETURN_IF_ERROR(client->Drain(kDrainSeconds));
  }
  const double window_start = client->Now();
  QPLEX_RETURN_IF_ERROR(client->RunClosed(kMeasured, depth, closed_seconds));
  const double window_end = client->Now();
  QPLEX_RETURN_IF_ERROR(client->Drain(kDrainSeconds));
  QPLEX_ASSIGN_OR_RETURN(const ServeUsage usage, server->Stop(kDrainSeconds));

  const std::vector<Sample>& samples = client->samples();
  std::vector<double> done_in_window;
  std::int64_t optimal = 0;
  std::int64_t answered = 0;
  std::vector<double> latency_ms;
  const int latency_phase = flood ? kLockstep : kMeasured;
  for (const Sample& sample : samples) {
    report->Tally(sample.check);
    const bool ok = sample.check.verdict == Verdict::kOptimal ||
                    sample.check.verdict == Verdict::kSuboptimal;
    answered += ok ? 1 : 0;
    optimal += sample.check.verdict == Verdict::kOptimal ? 1 : 0;
    if (ok && sample.phase == kMeasured && sample.done <= window_end) {
      done_in_window.push_back(sample.done);
    }
    // Refused answers count in `failed`, not in latency: a fast error must
    // not look like a fast answer.
    if (ok && sample.phase == latency_phase) {
      latency_ms.push_back(sample.latency_ms());
    }
  }
  report->attempted = static_cast<std::int64_t>(client->sent());

  const double window = window_end - window_start;
  const auto completed_in_window =
      static_cast<std::int64_t>(done_in_window.size());
  report->Set("setup_s", Quantile(setup_s, 0.5), "s");
  report->Set("throughput_rps", MedianBlockRate(done_in_window, window_start),
              "req/s");
  report->Set("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
  report->Set("latency_p90_ms", Quantile(latency_ms, 0.9), "ms");
  report->Set("optimal_share", Ratio(optimal, answered), "fraction");
  report->Set("server_cpu_ms_per_req",
              Ratio(usage.cpu_seconds * 1e3, samples.size()), "ms");
  report->Set("peak_rss_mb", usage.peak_rss_mib, "MiB");

  const std::string events = server->run_dir() + "/events.jsonl";
  const std::string wal = server->run_dir() + "/wal.jsonl";
  obs::JsonValue spawns = obs::JsonValue::Array();
  for (double s : setup_s) {
    spawns.Append(s);
  }
  obs::JsonValue& detail = report->detail;
  detail.Set("setup_spawns_s", std::move(spawns));
  detail.Set("responses", static_cast<std::int64_t>(samples.size()));
  detail.Set("window_s", window);
  detail.Set("throughput_mean_rps", Ratio(completed_in_window, window));
  detail.Set("latency_samples", static_cast<std::int64_t>(latency_ms.size()));
  detail.Set("latency_p99_ms", Quantile(latency_ms, 0.99));
  detail.Set("latency_max_ms", Quantile(latency_ms, 1.0));
  detail.Set("server_cpu_s", usage.cpu_seconds);
  detail.Set("events_bytes",
             static_cast<std::int64_t>(std::filesystem::file_size(events)));
  detail.Set("wal_bytes",
             static_cast<std::int64_t>(std::filesystem::file_size(wal)));
  // A saturated run leaves hundreds of MB of events; only the sizes are kept.
  std::filesystem::remove(events);
  std::filesystem::remove(wal);

  std::printf(
      "latency: %zu samples (%s); throughput: %lld answers in %.3f s, "
      "median of %d blocks\n",
      latency_ms.size(), flood ? "lockstep phase" : "closed loop",
      static_cast<long long>(completed_in_window), window, kThroughputBlocks);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Traced run.

/// Per-layer shares BENCHMARK.json names, and the layers each one sums.
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kLayerShares = {
        {"oracle.build_share", {"oracle.build"}},
        {"oracle.eval_share", {"oracle.eval"}},
        {"grover.sim_share", {"grover.sim"}},
        {"classical.enumerate_share", {"exact.enumerate"}},
        {"classical.bs_share", {"bs.solve", "bs.reduce", "bs.branch"}},
        {"classical.grasp_share", {"grasp.solve"}},
        {"qubo.build_share", {"qubo.build"}},
        {"anneal.sa_share", {"anneal.sa"}},
};

double Counter(const obs::JsonValue& metrics, const std::string& name) {
  const obs::JsonValue* counters = metrics.Find("counters");
  const obs::JsonValue* value =
      counters == nullptr ? nullptr : counters->Find(name);
  return value != nullptr && value->is_number() ? value->AsDouble() : 0;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans) {
    obs::JsonValue line = obs::JsonValue::Object();
    line.Set("name", span.name);
    line.Set("start_ns", span.start_ns);
    line.Set("end_ns", span.end_ns);
    line.Set("request_id", "r" + std::to_string(span.request));
    out << line.Dump() << "\n";
  }
  return out ? Status::Ok() : Status::Internal("cannot write " + path);
}

void PrintLayerTable(const std::map<std::string, double>& layer_ms,
                     const std::map<std::string, std::int64_t>& calls,
                     double serial_total_ms, double unaccounted_ms) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : layer_ms) {
    rows.emplace_back(ms, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  rows.emplace_back(unaccounted_ms, "unaccounted");
  std::printf("%-22s %12s %8s %7s\n", "layer (self time)", "ms", "share",
              "calls");
  for (const auto& [ms, name] : rows) {
    const auto it = calls.find(name);
    std::printf("%-22s %12.3f %8.4f %7lld\n", name.c_str(), ms,
                Ratio(ms, serial_total_ms),
                it == calls.end() ? 0LL : static_cast<long long>(it->second));
  }
  std::printf("%-22s %12.3f %8.4f\n", "serial client total", serial_total_ms,
              1.0);
}

Status RunTrace(const Args& args, const Workload& workload,
                const std::string& run_root, Report* report) {
  const int count = workload.trace_requests();
  QPLEX_ASSIGN_OR_RETURN(
      std::unique_ptr<ServeProcess> server,
      ServeProcess::Start(QPLEX_SERVE_BINARY, run_root + "/serial"));
  QPLEX_ASSIGN_OR_RETURN(std::unique_ptr<LoadClient> client,
                         LoadClient::Connect(server->port(), 1, &workload));
  FrontReplay replay;
  std::vector<std::string> winners;
  for (int i = 0; i < count; ++i) {
    QPLEX_RETURN_IF_ERROR(client->SendAndWait(kMeasured, kDrainSeconds));
    QPLEX_ASSIGN_OR_RETURN(
        const svc::SolveResponse response,
        replay.Request(workload, static_cast<std::uint64_t>(i),
                       client->last_response()));
    winners.push_back(response.backend);
  }
  QPLEX_RETURN_IF_ERROR(server->Stop(kDrainSeconds).status());
  const std::string dir = server->run_dir();
  QPLEX_ASSIGN_OR_RETURN(const std::string metrics_text,
                         ReadFile(dir + "/metrics.json"));
  QPLEX_ASSIGN_OR_RETURN(const obs::JsonValue metrics,
                         obs::JsonValue::Parse(metrics_text));
  QPLEX_ASSIGN_OR_RETURN(const ServerEvents events,
                         ReadServerEvents(dir + "/events.jsonl"));
  const auto wal_bytes =
      static_cast<double>(std::filesystem::file_size(dir + "/wal.jsonl"));

  // Self time per layer over the whole trace (ms) and its closed spans:
  // the replayed front-end spans, then every job's server spans.
  std::map<std::string, double> layer_ms;
  std::map<std::string, std::int64_t> layer_calls;
  std::map<std::string, std::vector<double>> front_us;
  std::vector<double> front_ms(count, 0);
  for (const Span& span : replay.spans()) {
    layer_ms[span.name] += span.ms();
    ++layer_calls[span.name];
    front_us[span.name].push_back(span.ms() * 1e3);
    front_ms[span.request] += span.ms();
  }
  std::vector<double> serial_ms;
  std::vector<double> unaccounted_ms;
  std::vector<double> queue_ms;
  std::vector<double> attempt_ms;
  std::vector<double> job_ms;
  std::vector<double> frontend_ms;
  std::vector<double> overrun_ms;
  std::vector<double> overrun_share;
  std::int64_t oracle_states = 0;
  for (const Sample& sample : client->samples()) {
    report->Tally(sample.check);
    const std::string label = "r" + std::to_string(sample.index);
    const auto found = events.jobs.find(label);
    if (found == events.jobs.end()) {
      return Status::Internal("the server's events have no job " + label);
    }
    const ServedJob& job = found->second;
    serial_ms.push_back(sample.latency_ms());
    frontend_ms.push_back(serial_ms.back() - job.job_ms);
    unaccounted_ms.push_back(frontend_ms.back() - front_ms[sample.index]);
    queue_ms.push_back(job.queue_ms);
    attempt_ms.push_back(job.attempt_ms);
    job_ms.push_back(job.job_ms);
    for (const auto& [layer, ms] : job.self_ms) {
      layer_ms[layer] += ms;
    }
    for (const auto& [layer, calls] : job.calls) {
      layer_calls[layer] += calls;
    }
    const auto evals = job.calls.find("oracle.eval");
    if (evals != job.calls.end()) {
      oracle_states += evals->second << job.num_vertices;
    }
    // A race ends when its last racer stops; the overrun is how long that
    // took after the racer whose answer won.
    const auto winner = job.racer_ms.find(winners[sample.index]);
    if (job.racer_ms.size() > 1 && winner != job.racer_ms.end()) {
      overrun_ms.push_back(job.job_ms - winner->second);
      overrun_share.push_back(Ratio(overrun_ms.back(), job.job_ms));
    }
  }
  report->attempted = count;

  const double serial_total = Sum(serial_ms);
  const double unaccounted_total = Sum(unaccounted_ms);
  const double hits = Counter(metrics, "svc.cache.hits");
  const double lookups = hits + Counter(metrics, "svc.cache.misses");
  auto per_request = [count](double total) { return total / count; };
  auto layer = [&layer_ms](const std::string& name) {
    const auto it = layer_ms.find(name);
    return it == layer_ms.end() ? 0 : it->second;
  };

  report->Set("serial_latency_ms.p50", Quantile(serial_ms, 0.5), "ms");
  report->Set("unaccounted_ms.p50", Quantile(unaccounted_ms, 0.5), "ms");
  report->Set("unaccounted_share", Ratio(unaccounted_total, serial_total),
              "fraction");
  report->Set("net.frame_us", Quantile(front_us["net.frame"], 0.5), "us");
  report->Set("svc.parse_us", Quantile(front_us["svc.parse"], 0.5), "us");
  report->Set("svc.cache_us", Quantile(front_us["svc.cache"], 0.5), "us");
  report->Set("svc.render_us", Quantile(front_us["svc.render"], 0.5), "us");
  for (const auto& [name, layers] : kLayerShares) {
    double ms = 0;
    for (const std::string& part : layers) {
      ms += layer(part);
    }
    report->Set(name, Ratio(ms, serial_total), "fraction");
  }
  report->Set("race.overrun_share", Quantile(overrun_share, 0.5), "fraction");
  report->Set("svc.queue_wait_ms.p50", Quantile(queue_ms, 0.5), "ms");
  report->Set("svc.attempt_ms.p50", Quantile(attempt_ms, 0.5), "ms");
  report->Set("svc.job_latency_ms.p50", Quantile(job_ms, 0.5), "ms");
  report->Set("serve.frontend_ms.p50", Quantile(frontend_ms, 0.5), "ms");
  report->Set("svc.cache_hit_ratio", Ratio(hits, lookups), "fraction");
  report->Set("net.bytes_in_per_req",
              per_request(Counter(metrics, "net.bytes.in")), "B");
  report->Set("net.bytes_out_per_req",
              per_request(Counter(metrics, "net.bytes.out")), "B");
  report->Set("serve.wal_bytes_per_req", per_request(wal_bytes), "B");
  report->Set("obs.event_lines_per_req", per_request(events.lines), "count");
  report->Set("obs.event_bytes_per_req", per_request(events.bytes), "B");
  report->Set("qmkp.probes_per_req",
              per_request(Counter(metrics, "qmkp.probes")), "count");
  report->Set("qtkp.oracle_calls_per_req",
              per_request(Counter(metrics, "qtkp.oracle_calls")), "count");
  report->Set("exact.masks_per_req",
              per_request(Counter(metrics, "exact.masks_scanned")), "count");
  report->Set("bs.branch_nodes_per_req",
              per_request(Counter(metrics, "bs.branch_nodes")), "count");
  report->Set("anneal.sweeps_per_req",
              per_request(Counter(metrics, "anneal.sa.sweeps")), "count");

  PrintLayerTable(layer_ms, layer_calls, serial_total, unaccounted_total);
  const double serial_p50 = Quantile(serial_ms, 0.5);
  const double unaccounted_p50 = Quantile(unaccounted_ms, 0.5);
  std::printf("serial latency p50 %.3f ms; unaccounted p50 %.3f ms "
              "(%.1f%% of it)\n",
              serial_p50, unaccounted_p50,
              100 * Ratio(unaccounted_p50, serial_p50));
  const double masks = Counter(metrics, "exact.masks_scanned");
  const double ns_per_state =
      Ratio(layer("oracle.eval") * 1e6, static_cast<double>(oracle_states));
  const double ns_per_mask = Ratio(layer("exact.enumerate") * 1e6, masks);
  const double overrun_p50 = Quantile(overrun_ms, 0.5);
  const double overrun_p90 = Quantile(overrun_ms, 0.9);
  if (oracle_states > 0) {
    std::printf("oracle.eval %.1f ns/state over %lld states\n", ns_per_state,
                static_cast<long long>(oracle_states));
  }
  if (masks > 0) {
    std::printf("exact.enumerate %.2f ns/mask over %.0f masks\n", ns_per_mask,
                masks);
  }
  if (!overrun_ms.empty()) {
    std::printf("race.overrun_ms p50 %.2f p90 %.2f over %zu races\n",
                overrun_p50, overrun_p90, overrun_ms.size());
  }

  obs::JsonValue& detail = report->detail;
  detail.Set("requests", count);
  detail.Set("oracle_eval_ns_per_state", ns_per_state);
  detail.Set("enumerate_ns_per_mask", ns_per_mask);
  detail.Set("race_overrun_ms_p50", overrun_p50);
  detail.Set("race_overrun_ms_p90", overrun_p90);
  std::filesystem::remove(dir + "/events.jsonl");
  std::filesystem::remove(dir + "/wal.jsonl");
  return WriteSpans(args.out + "/trace_" + workload.name() + ".jsonl",
                    replay.spans());
}

// ---------------------------------------------------------------------------

/// BENCHMARK.json, which must fix a positive run_seconds.
Result<obs::JsonValue> ReadSpec(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  QPLEX_ASSIGN_OR_RETURN(obs::JsonValue spec, obs::JsonValue::Parse(text));
  const obs::JsonValue* seconds = spec.Find("run_seconds");
  if (seconds == nullptr || !seconds->is_number() ||
      seconds->AsDouble() <= 0) {
    return Status::InvalidArgument(path + " has no positive run_seconds");
  }
  return spec;
}

/// Renders the metrics the spec lists for this mode, in its order; fails if
/// one was not computed or carries another unit.
Result<obs::JsonValue> SpecMetrics(const obs::JsonValue& spec, bool trace,
                                   const Report& report) {
  const obs::JsonValue* list = spec.Find(trace ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("BENCHMARK.json has no metric list");
  }
  obs::JsonValue metrics = obs::JsonValue::Object();
  for (std::size_t i = 0; i < list->size(); ++i) {
    const std::string name = StringField(list->at(i), "name");
    const std::string unit = StringField(list->at(i), "unit");
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end() || it->second.second != unit) {
      return Status::Internal("metric " + name + " [" + unit +
                              "] was not measured");
    }
    obs::JsonValue metric = obs::JsonValue::Object();
    metric.Set("value", it->second.first);
    metric.Set("unit", unit);
    metrics.Set(name, std::move(metric));
  }
  return metrics;
}

int Main(int argc, char** argv) {
  net::IgnoreSigpipe();
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  Result<obs::JsonValue> spec = ReadSpec(args.spec);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  const double seconds = spec.value().Find("run_seconds")->AsDouble();
  Result<Workload> made = Workload::Make(args.workload, args.seed);
  if (!made.ok()) {
    std::cerr << made.status() << "\n";
    return 2;
  }
  const Workload& workload = made.value();
  const std::string digest = workload.Digest();
  const auto stamp_ns =
      std::chrono::system_clock::now().time_since_epoch().count();
  const std::string tag = workload.name() + "-seed" +
                          std::to_string(args.seed) +
                          (args.trace ? "-trace-" : "-e2e-") +
                          std::to_string(stamp_ns);
  const std::string run_root = args.out + "/runs/" + tag;
  std::filesystem::create_directories(run_root);
  std::printf("workload %s seed %llu digest sha256:%s (first %llu lines)\n",
              workload.name().c_str(),
              static_cast<unsigned long long>(args.seed),
              digest.substr(0, 16).c_str(),
              static_cast<unsigned long long>(Workload::kDigestLines));

  Report report;
  const Status ran = args.trace
                         ? RunTrace(args, workload, run_root, &report)
                         : RunEndToEnd(seconds, workload, run_root, &report);
  if (!ran.ok()) {
    std::cerr << "run failed: " << ran << "\n";
    return 1;
  }
  Result<obs::JsonValue> metrics =
      SpecMetrics(spec.value(), args.trace, report);
  if (!metrics.ok()) {
    std::cerr << metrics.status() << "\n";
    return 1;
  }
  for (const auto& [name, metric] : metrics.value().members()) {
    std::printf("%-28s %14.6f %s\n", name.c_str(),
                metric.Find("value")->AsDouble(),
                metric.Find("unit")->AsString().c_str());
  }
  for (const std::string& error : report.errors) {
    std::cerr << "failed request: " << error << "\n";
  }

  obs::JsonValue stamp = obs::JsonValue::Object();
  stamp.Set("commit", args.commit);
  stamp.Set("nproc",
            static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  stamp.Set("compiler", QPLEX_BENCH_COMPILER);
  stamp.Set("build_type", QPLEX_BENCH_BUILD_TYPE);
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("workload", workload.name());
  result.Set("seed", static_cast<std::int64_t>(args.seed));
  result.Set("trace", args.trace);
  result.Set("seconds", seconds);
  result.Set("digest", digest);
  result.Set("digest_lines",
             static_cast<std::int64_t>(Workload::kDigestLines));
  result.Set("stamp", std::move(stamp));
  result.Set("correct", report.correct);
  result.Set("attempted", report.attempted);
  result.Set("failed", report.failed);
  result.Set("metrics", metrics.value());
  result.Set("detail", report.detail);
  std::ofstream result_file(args.out + "/" + tag + ".json");
  result_file << result.Dump(2) << "\n";
  if (!result_file) {
    std::cerr << "cannot write the result file in " << args.out << "\n";
    return 1;
  }

  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("correct", report.correct);
  line.Set("attempted", report.attempted);
  line.Set("failed", report.failed);
  line.Set("metrics", std::move(metrics).value());
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  // Every workload is built so that no request fails; one that does fails
  // the run, like a wrong answer.
  return report.correct && report.failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace qplex::bench

int main(int argc, char** argv) { return qplex::bench::Main(argc, argv); }
