// qplex solve service: executes JSONL job requests through the
// svc::JobScheduler over every registered backend, either as a one-shot
// batch (--jobs, file or stdin) or as a persistent loopback TCP server
// (--listen) multiplexing many concurrent clients onto the one scheduler.
//
//   qplex_serve --jobs <file|-> | --listen <port> [--workers N]
//               [--queue-cap N] [--events <file|->] [--cache on|off]
//               [--metrics-json <file|->] [--metrics-prom <file>]
//               [--metrics-prom-interval-ms N] [--slo-ms X]
//               [--progress-interval-ms N]
//               [--journal <file>] [--resume]
//               [--fault-spec site:rate[:seed]] [--max-sim-bytes N]
//               [--max-retries N]
//               [--max-connections N] [--idle-timeout-ms N]
//               [--max-line-bytes N] [--port-file <file>]
//               [--breaker-threshold N] [--breaker-cooldown N]
//               [--watchdog-stall-ms X] [--watchdog-poll-ms X]
//               [--shed-target-ms X]
//
// Both modes run through one svc::FrontEnd (src/svc/frontend.h), which owns
// the request path — parse, admission backlog and shedding, completion
// routing, the admission-ordered journal — and the two source policies. A
// job file is validated before any job runs (a bad line exits 2) and is
// never shed; SIGINT/SIGTERM cancels its in-flight jobs and stops the
// journal. Each connection (--listen, port 0 = kernel-assigned, announced via
// the "listening" event and --port-file) gets per-request error and shed
// responses, and SIGINT/SIGTERM drains it gracefully: stop accepting, finish
// admitted jobs, flush every response. This file parses flags, wires up the
// event stream, journal and scheduler, and writes the summary and reports.
//
// --journal appends one timestamp-free JSON line per finished job (the WAL).
// --resume skips a job file's journaled jobs for a byte-identical final
// journal; for connections, a script recorded by qplex_client --record
// replays to the same journal. Health (DESIGN.md section 15):
// --breaker-threshold/--breaker-cooldown arm per-backend circuit breakers,
// --watchdog-stall-ms the wedged-job watchdog, --shed-target-ms adaptive
// shedding; clients probe them with {"type": "health", "id": "..."}.
// --fault-spec arms the deterministic fault injector (DESIGN.md section 10).

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qplex/qplex.h"

namespace qplex {
namespace {

/// Set by the SIGINT/SIGTERM handler; the front-end's stop predicate reads
/// it. Async-signal-safe by construction (one store).
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

struct ServeOptions {
  std::string jobs;  // job file; "-" = stdin; empty in socket mode
  int workers = 4;
  std::string events = "-";
  bool cache = true;
  std::string metrics_json;
  double slo_ms = 0;  // >0 = per-job latency objective
  int progress_interval_ms = obs::EventSink::kDefaultProgressIntervalMs;
  std::string journal;       // WAL path; empty = no journaling
  bool resume = false;       // skip jobs already journaled (batch mode only)
  std::string fault_spec;    // forwarded to the global FaultInjector
  std::uint64_t max_sim_bytes = 0;  // 0 = keep the default budget
  int max_retries = 2;
  // Health-subsystem knobs (all off by default; DESIGN.md section 15).
  int breaker_threshold = 0;     // >0 arms per-backend circuit breakers
  int breaker_cooldown = 8;      // open -> half-open after N consults
  double watchdog_stall_ms = 0;  // >0 arms the wedged-job watchdog
  double watchdog_poll_ms = 5;   // watchdog scan cadence
  // Admission, socket and OpenMetrics-snapshot knobs (--listen,
  // --queue-cap, --shed-target-ms, ...), handed to the front-end as is.
  svc::FrontEndOptions front_end;
};

void PrintUsage() {
  std::cerr << "usage: qplex_serve --jobs <file|-> | --listen <port>\n"
               "                   [--workers <int>] [--queue-cap <int>]\n"
               "                   [--events <file|->] [--cache on|off]\n"
               "                   [--metrics-json <file|->] "
               "[--metrics-prom <file>]\n"
               "                   [--metrics-prom-interval-ms <int>] "
               "[--slo-ms <float>]\n"
               "                   [--progress-interval-ms <int>]\n"
               "                   [--journal <file>] [--resume]\n"
               "                   [--fault-spec site:rate[:seed]] "
               "[--max-sim-bytes <int>]\n"
               "                   [--max-retries <int>]\n"
               "                   [--max-connections <int>] "
               "[--idle-timeout-ms <int>]\n"
               "                   [--max-line-bytes <int>] "
               "[--port-file <file>]\n"
               "                   [--breaker-threshold <int>] "
               "[--breaker-cooldown <int>]\n"
               "                   [--watchdog-stall-ms <float>] "
               "[--watchdog-poll-ms <float>]\n"
               "                   [--shed-target-ms <float>]\n";
}

Result<ServeOptions> ParseArgs(int argc, char** argv) {
  ServeOptions options;
  svc::FrontEndOptions& front_end = options.front_end;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    auto next_int = [&]() -> Result<int> {
      QPLEX_ASSIGN_OR_RETURN(const std::string value, next());
      return ParseNumber<int>(arg, value);
    };
    auto next_float = [&]() -> Result<double> {
      QPLEX_ASSIGN_OR_RETURN(const std::string value, next());
      return ParseNumber<double>(arg, value);
    };
    if (arg == "--jobs") {
      QPLEX_ASSIGN_OR_RETURN(options.jobs, next());
    } else if (arg == "--listen") {
      QPLEX_ASSIGN_OR_RETURN(front_end.listen_port, next_int());
      if (front_end.listen_port < 0 || front_end.listen_port > 65535) {
        return Status::InvalidArgument("--listen port must be in [0, 65535]");
      }
    } else if (arg == "--workers") {
      QPLEX_ASSIGN_OR_RETURN(options.workers, next_int());
    } else if (arg == "--queue-cap") {
      QPLEX_ASSIGN_OR_RETURN(front_end.queue_cap, next_int());
    } else if (arg == "--events") {
      QPLEX_ASSIGN_OR_RETURN(options.events, next());
    } else if (arg == "--cache") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      if (value != "on" && value != "off") {
        return Status::InvalidArgument("--cache must be on or off");
      }
      options.cache = value == "on";
    } else if (arg == "--metrics-json") {
      QPLEX_ASSIGN_OR_RETURN(options.metrics_json, next());
    } else if (arg == "--metrics-prom") {
      QPLEX_ASSIGN_OR_RETURN(front_end.metrics_prom, next());
    } else if (arg == "--metrics-prom-interval-ms") {
      QPLEX_ASSIGN_OR_RETURN(front_end.metrics_prom_interval_ms, next_int());
    } else if (arg == "--slo-ms") {
      QPLEX_ASSIGN_OR_RETURN(options.slo_ms, next_float());
    } else if (arg == "--progress-interval-ms") {
      QPLEX_ASSIGN_OR_RETURN(options.progress_interval_ms, next_int());
    } else if (arg == "--journal") {
      QPLEX_ASSIGN_OR_RETURN(options.journal, next());
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--fault-spec") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      // Repeated flags accumulate into one comma-joined spec.
      if (!options.fault_spec.empty()) {
        options.fault_spec += ",";
      }
      options.fault_spec += value;
    } else if (arg == "--max-sim-bytes") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.max_sim_bytes,
                             ParseNumber<std::uint64_t>(arg, value));
      if (options.max_sim_bytes == 0) {
        return Status::InvalidArgument("--max-sim-bytes must be >= 1");
      }
    } else if (arg == "--max-retries") {
      QPLEX_ASSIGN_OR_RETURN(options.max_retries, next_int());
    } else if (arg == "--max-connections") {
      QPLEX_ASSIGN_OR_RETURN(front_end.max_connections, next_int());
    } else if (arg == "--idle-timeout-ms") {
      QPLEX_ASSIGN_OR_RETURN(front_end.idle_timeout_ms, next_int());
    } else if (arg == "--max-line-bytes") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(front_end.max_line_bytes,
                             ParseNumber<std::size_t>(arg, value));
      if (front_end.max_line_bytes < 2) {
        return Status::InvalidArgument("--max-line-bytes must be >= 2");
      }
    } else if (arg == "--port-file") {
      QPLEX_ASSIGN_OR_RETURN(front_end.port_file, next());
    } else if (arg == "--breaker-threshold") {
      QPLEX_ASSIGN_OR_RETURN(options.breaker_threshold, next_int());
    } else if (arg == "--breaker-cooldown") {
      QPLEX_ASSIGN_OR_RETURN(options.breaker_cooldown, next_int());
    } else if (arg == "--watchdog-stall-ms") {
      QPLEX_ASSIGN_OR_RETURN(options.watchdog_stall_ms, next_float());
    } else if (arg == "--watchdog-poll-ms") {
      QPLEX_ASSIGN_OR_RETURN(options.watchdog_poll_ms, next_float());
    } else if (arg == "--shed-target-ms") {
      QPLEX_ASSIGN_OR_RETURN(front_end.shed_target_ms, next_float());
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  const bool socket_mode = front_end.listen_port >= 0;
  if (options.jobs.empty() && !socket_mode) {
    return Status::InvalidArgument("--jobs or --listen is required");
  }
  if (!options.jobs.empty() && socket_mode) {
    return Status::InvalidArgument("--jobs and --listen are exclusive");
  }
  if (socket_mode && options.resume) {
    return Status::InvalidArgument(
        "--resume applies to batch mode only (socket-mode journals are "
        "reproduced by replaying the connection script)");
  }
  if (options.workers < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  if (front_end.queue_cap < 1) {
    return Status::InvalidArgument("--queue-cap must be >= 1");
  }
  if (options.progress_interval_ms < 1) {
    return Status::InvalidArgument("--progress-interval-ms must be >= 1");
  }
  if (options.resume && options.journal.empty()) {
    return Status::InvalidArgument("--resume requires --journal");
  }
  if (options.max_retries < 0) {
    return Status::InvalidArgument("--max-retries must be >= 0");
  }
  if (front_end.max_connections < 1) {
    return Status::InvalidArgument("--max-connections must be >= 1");
  }
  if (front_end.idle_timeout_ms < 0) {
    return Status::InvalidArgument("--idle-timeout-ms must be >= 0");
  }
  if (front_end.metrics_prom_interval_ms < 0) {
    return Status::InvalidArgument("--metrics-prom-interval-ms must be >= 0");
  }
  if (front_end.metrics_prom_interval_ms > 0 &&
      front_end.metrics_prom.empty()) {
    return Status::InvalidArgument(
        "--metrics-prom-interval-ms requires --metrics-prom");
  }
  if (options.slo_ms < 0) {
    return Status::InvalidArgument("--slo-ms must be >= 0");
  }
  if (options.breaker_threshold < 0) {
    return Status::InvalidArgument("--breaker-threshold must be >= 0");
  }
  if (options.breaker_cooldown < 1) {
    return Status::InvalidArgument("--breaker-cooldown must be >= 1");
  }
  if (options.watchdog_stall_ms < 0) {
    return Status::InvalidArgument("--watchdog-stall-ms must be >= 0");
  }
  if (options.watchdog_poll_ms <= 0) {
    return Status::InvalidArgument("--watchdog-poll-ms must be > 0");
  }
  if (front_end.shed_target_ms < 0) {
    return Status::InvalidArgument("--shed-target-ms must be >= 0");
  }
  if (front_end.shed_target_ms > 0 && !socket_mode) {
    return Status::InvalidArgument(
        "--shed-target-ms applies to socket mode only (batch mode has no "
        "admission queue to shed from)");
  }
  return options;
}

struct JournalEntry {
  std::string label;
  std::string status;
  std::string line;  ///< the raw serialized form, without the newline
};

/// Reads the valid prefix of a WAL. A torn tail line (the process died
/// mid-write) is dropped; anything after the first malformed line is
/// discarded with it.
std::vector<JournalEntry> ReadJournal(const std::string& path) {
  std::vector<JournalEntry> entries;
  const Result<std::string> slurped = net::SlurpFile(path);
  if (!slurped.ok()) {
    return entries;  // no journal yet: a fresh run
  }
  std::istringstream in(slurped.value());
  std::string text;
  while (std::getline(in, text)) {
    Result<obs::JsonValue> parsed = obs::JsonValue::Parse(text);
    if (!parsed.ok() || !parsed.value().is_object()) {
      break;
    }
    const obs::JsonValue* label = parsed.value().Find("label");
    const obs::JsonValue* status = parsed.value().Find("status");
    if (label == nullptr || !label->is_string() || status == nullptr ||
        !status->is_string()) {
      break;
    }
    entries.push_back(
        JournalEntry{label->AsString(), status->AsString(), text});
  }
  return entries;
}

/// Checks that a resumed journal is a prefix of this job file, emitting one
/// job_replayed event per journaled job; returns the journaled failures.
Result<std::int64_t> ReplayJournal(const std::vector<JournalEntry>& journaled,
                                   const std::vector<svc::RequestSpec>& jobs) {
  if (journaled.size() > jobs.size()) {
    return Status::InvalidArgument(
        "journal has " + std::to_string(journaled.size()) +
        " entries but the batch only has " + std::to_string(jobs.size()) +
        " jobs — wrong journal for this job file?");
  }
  std::int64_t failures = 0;
  for (std::size_t i = 0; i < journaled.size(); ++i) {
    if (journaled[i].label != jobs[i].request.label) {
      return Status::InvalidArgument(
          "journal entry " + std::to_string(i + 1) + " is for job '" +
          journaled[i].label + "' but the job file has '" +
          jobs[i].request.label + "' — wrong journal for this job file?");
    }
    if (journaled[i].status != "OK") {
      ++failures;
    }
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kInfo, "svc", "job_replayed",
                     {{"label", journaled[i].label},
                      {"status", journaled[i].status}});
    }
  }
  return failures;
}

int Main(int argc, char** argv) {
  // Handlers go in before anything else so a signal during startup already
  // takes the graceful path. SIGPIPE is ignored process-wide: a client
  // disconnecting mid-write must surface as EPIPE on that connection's
  // write, never kill the server.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  net::IgnoreSigpipe();

  const Result<ServeOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    PrintUsage();
    return 2;
  }
  const ServeOptions& options = parsed.value();
  const bool socket_mode = options.front_end.listen_port >= 0;

  if (!options.fault_spec.empty()) {
    const Status armed =
        resilience::FaultInjector::Global().Configure(options.fault_spec);
    if (!armed.ok()) {
      std::cerr << armed << "\n";
      PrintUsage();
      return 2;
    }
  }
  if (options.max_sim_bytes > 0) {
    SetMaxSimulationBytes(options.max_sim_bytes);
  }

  std::unique_ptr<obs::EventSink> events;
  if (!options.events.empty()) {
    Result<std::unique_ptr<obs::EventSink>> opened =
        obs::EventSink::Open(options.events, options.progress_interval_ms);
    if (!opened.ok()) {
      std::cerr << "failed to open event stream " << options.events << ": "
                << opened.status() << "\n";
      return 2;
    }
    events = std::move(opened).value();
    obs::EventSink::InstallGlobal(events.get());
  }
  struct SinkUninstaller {
    ~SinkUninstaller() { obs::EventSink::InstallGlobal(nullptr); }
  } uninstaller;

  const svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  std::vector<svc::RequestSpec> jobs;
  if (!socket_mode) {
    Result<std::vector<svc::RequestSpec>> loaded =
        [&]() -> Result<std::vector<svc::RequestSpec>> {
      QPLEX_ASSIGN_OR_RETURN(const std::string text,
                             net::SlurpFile(options.jobs));
      return svc::LoadJobFile(text, registry, options.front_end.queue_cap);
    }();
    if (!loaded.ok()) {
      std::cerr << "failed to read jobs: " << loaded.status() << "\n";
      return 2;
    }
    jobs = std::move(loaded).value();
  }

  // Journal setup. On --resume the valid prefix of the existing WAL is kept
  // (a torn tail line from a hard crash is truncated away) and the stream
  // reopens right after it; otherwise the journal starts fresh.
  std::vector<JournalEntry> journaled;
  std::unique_ptr<std::ofstream> journal;
  if (!options.journal.empty()) {
    if (options.resume) {
      journaled = ReadJournal(options.journal);
    }
    journal = std::make_unique<std::ofstream>(options.journal, std::ios::trunc);
    if (!*journal) {
      std::cerr << "cannot open journal: " << options.journal << "\n";
      return 2;
    }
    for (const JournalEntry& entry : journaled) {
      *journal << entry.line << "\n";
    }
    journal->flush();
  }

  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  svc::JobSchedulerOptions scheduler_options;
  scheduler_options.num_workers = options.workers;
  scheduler_options.queue_capacity =
      static_cast<std::size_t>(options.front_end.queue_cap);
  scheduler_options.enable_cache = options.cache;
  scheduler_options.retry.max_retries = options.max_retries;
  scheduler_options.slo_latency_ms = options.slo_ms;
  scheduler_options.breaker.failure_threshold = options.breaker_threshold;
  scheduler_options.breaker.cooldown_consults = options.breaker_cooldown;
  scheduler_options.watchdog_stall_ms = options.watchdog_stall_ms;
  scheduler_options.watchdog_poll_ms = options.watchdog_poll_ms;

  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "svc", "batch_start",
                   {{"jobs", static_cast<std::int64_t>(jobs.size())},
                    {"listen", socket_mode},
                    {"workers", options.workers},
                    {"queue_cap", options.front_end.queue_cap},
                    {"cache", options.cache},
                    {"resumed", static_cast<std::int64_t>(journaled.size())}});
  }
  Stopwatch watch;
  const std::int64_t skipped = static_cast<std::int64_t>(journaled.size());
  std::int64_t replayed_failures = 0;
  Result<svc::FrontEndOutcome> outcome = [&]() -> Result<svc::FrontEndOutcome> {
    QPLEX_ASSIGN_OR_RETURN(replayed_failures, ReplayJournal(journaled, jobs));
    jobs.erase(jobs.begin(), jobs.begin() + skipped);
    svc::JobScheduler scheduler(&registry, scheduler_options);
    svc::FrontEnd front_end(&scheduler, journal.get(), options.front_end);
    if (socket_mode) {
      QPLEX_RETURN_IF_ERROR(front_end.Listen());
    }
    front_end.AddJobs(std::move(jobs));
    return front_end.Run([] { return g_signal != 0; });
  }();
  const double wall_seconds = watch.ElapsedSeconds();
  if (!outcome.ok()) {
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kWarn, "svc", "batch_error",
                     {{"status", outcome.status().ToString()},
                      {"wall_seconds", wall_seconds}});
    }
    std::cerr << "batch failed: " << outcome.status() << "\n";
    return 2;
  }
  const svc::FrontEndOutcome& served = outcome.value();

  auto& metrics = obs::MetricsRegistry::Global();
  const std::int64_t total =
      metrics.GetCounter("svc.jobs.completed").Get() + skipped;
  const std::int64_t failures = served.failures + replayed_failures;
  if (obs::EventsEnabled()) {
    obs::EmitEvent(
        obs::EventLevel::kInfo, "svc", "batch_end",
        {{"jobs", total},
         {"failed", failures},
         {"skipped", skipped},
         {"interrupted", served.interrupted},
         {"requests", served.requests},
         {"responses", served.responses},
         {"malformed", served.malformed},
         {"shed", served.shed},
         {"retries", metrics.GetCounter("svc.retries.scheduled").Get()},
         {"fallbacks", metrics.GetCounter("svc.fallbacks.taken").Get()},
         {"cache_hits", metrics.GetCounter("svc.cache.hits").Get()},
         {"cache_misses", metrics.GetCounter("svc.cache.misses").Get()},
         {"wall_seconds", wall_seconds},
         {"jobs_per_second",
          wall_seconds > 0 ? static_cast<double>(total) / wall_seconds
                           : 0.0}});
  }

  if (!options.front_end.metrics_prom.empty()) {
    const Status written =
        svc::WritePromSnapshot(options.front_end.metrics_prom);
    if (!written.ok()) {
      std::cerr << "failed to write OpenMetrics exposition to "
                << options.front_end.metrics_prom << ": " << written << "\n";
      return 2;
    }
  }

  if (!options.metrics_json.empty()) {
    obs::RunReport report("qplex_serve");
    report.SetMeta("jobs", total);
    report.SetMeta("failed", failures);
    report.SetMeta("skipped", skipped);
    report.SetMeta("interrupted", served.interrupted);
    report.SetMeta("workers", options.workers);
    report.SetMeta("cache", options.cache);
    report.SetMeta("wall_seconds", wall_seconds);
    report.Capture();
    const Status written = report.WriteJsonFile(options.metrics_json);
    if (!written.ok()) {
      std::cerr << "failed to write metrics report to "
                << options.metrics_json << ": " << written << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
