// qplex command-line solver: finds the maximum k-plex of a graph given in
// DIMACS or edge-list format, with a selectable solver backend.
//
//   qplex_cli --input graph.col [--format dimacs|edgelist] [--k 2]
//             [--algorithm <backend>|qamkp] [--seed 1]
//             [--threads N] [--metrics-json <file|->] [--metrics-prom <file>]
//             [--verbose-trace]
//             [--events <file|->] [--progress-interval-ms N]
//
// --algorithm names any backend of the service registry (bs, enum, grasp,
// qtkp, qmkp, sa, pt, pia, hybrid, milp; see svc/registry.h) or qamkp, the
// paper's name for hybrid. The CLI calls that backend's Solver::Solve
// directly: no job scheduler, cache, retry or fallback sits in between.
// With --input - the graph is read from stdin. --metrics-json writes a
// structured run report (counters, histograms, trace tree) after solving;
// --metrics-prom writes the same registry as OpenMetrics text exposition;
// --verbose-trace prints the nested span timings to stderr. --events streams
// structured JSONL events (run lifecycle + rate-limited solver progress
// heartbeats) while the solve is running; --progress-interval-ms sets the
// heartbeat spacing (default 250, must be >= 1). --threads parallelizes the
// state-vector kernels of the quantum solvers (qmkp); results are
// bit-identical for any thread count.

#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "qplex/qplex.h"

namespace qplex {
namespace {

struct CliOptions {
  std::string input;
  std::string format = "dimacs";
  std::string algorithm = "bs";
  int k = 2;
  int threads = 1;
  std::uint64_t seed = 1;
  std::string metrics_json;  // empty = no report; "-" = stdout
  std::string metrics_prom;  // empty = no OpenMetrics exposition
  bool verbose_trace = false;
  std::string events;  // empty = no event stream; "-" = stdout
  int progress_interval_ms = obs::EventSink::kDefaultProgressIntervalMs;
  std::string fault_spec;           // arms the deterministic fault injector
  std::uint64_t max_sim_bytes = 0;  // 0 = keep the default 4 GiB budget
};

void PrintUsage() {
  std::cerr << "usage: qplex_cli --input <file|-> [--format dimacs|edgelist]\n"
               "                 [--k <int>] [--algorithm <backend>|qamkp] "
               "[--seed <int>]\n"
               "                 [--threads <int>] [--metrics-json <file|->] "
               "[--metrics-prom <file>]\n"
               "                 [--verbose-trace]\n"
               "                 [--events <file|->] "
               "[--progress-interval-ms <int>]\n"
               "                 [--fault-spec site:rate[:seed]] "
               "[--max-sim-bytes <int>]\n";
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--input") {
      QPLEX_ASSIGN_OR_RETURN(options.input, next());
    } else if (arg == "--format") {
      QPLEX_ASSIGN_OR_RETURN(options.format, next());
    } else if (arg == "--algorithm") {
      QPLEX_ASSIGN_OR_RETURN(options.algorithm, next());
    } else if (arg == "--k") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.k, ParseNumber<int>(arg, value));
    } else if (arg == "--seed") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.seed,
                             ParseNumber<std::uint64_t>(arg, value));
    } else if (arg == "--threads") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.threads, ParseNumber<int>(arg, value));
    } else if (arg == "--metrics-json") {
      QPLEX_ASSIGN_OR_RETURN(options.metrics_json, next());
    } else if (arg == "--metrics-prom") {
      QPLEX_ASSIGN_OR_RETURN(options.metrics_prom, next());
    } else if (arg == "--verbose-trace") {
      options.verbose_trace = true;
    } else if (arg == "--events") {
      QPLEX_ASSIGN_OR_RETURN(options.events, next());
    } else if (arg == "--progress-interval-ms") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.progress_interval_ms,
                             ParseNumber<int>(arg, value));
    } else if (arg == "--fault-spec") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
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
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.input.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("--k must be >= 1");
  }
  if (options.threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  if (options.progress_interval_ms < 1) {
    return Status::InvalidArgument("--progress-interval-ms must be >= 1");
  }
  return options;
}

Result<Graph> LoadGraph(const CliOptions& options) {
  std::string text;
  if (options.input == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else if (options.format == "dimacs") {
    return LoadDimacsFile(options.input);
  } else {
    return LoadEdgeListFile(options.input);
  }
  return options.format == "dimacs" ? ParseDimacs(text) : ParseEdgeList(text);
}

/// Runs the requested registry backend once, outside any scheduler, so the
/// run records no svc.* metrics or job span. Outside a request scope the
/// incumbent events carry no trace/path; qplex_obs --convergence lists them
/// as "(direct)".
Result<MkpSolution> Solve(const svc::SolveRequest& request) {
  const svc::SolverRegistry registry = svc::MakeBuiltinRegistry();
  const svc::Solver* solver = registry.Get(request.backend);
  if (solver == nullptr) {
    return Status::InvalidArgument("unknown algorithm: " + request.backend);
  }
  QPLEX_ASSIGN_OR_RETURN(svc::SolveOutcome outcome,
                         solver->Solve(request, svc::SolveContext{}));
  return std::move(outcome.solution);
}

/// Builds the structured run report after a solve; meta fields capture the
/// invocation, the instance, and the headline result.
obs::RunReport BuildReport(const CliOptions& options, const Graph& graph,
                           const MkpSolution& solution, double wall_seconds) {
  obs::RunReport report("qplex_cli");
  report.SetMeta("input", options.input);
  report.SetMeta("format", options.format);
  report.SetMeta("algorithm", options.algorithm);
  report.SetMeta("k", options.k);
  report.SetMeta("seed", static_cast<std::int64_t>(options.seed));
  report.SetMeta("threads", options.threads);
  report.SetMeta("num_vertices", graph.num_vertices());
  report.SetMeta("num_edges", graph.num_edges());
  report.SetMeta("solution_size", solution.size);
  report.SetMeta("wall_seconds", wall_seconds);
  report.Capture();
  return report;
}

int Main(int argc, char** argv) {
  const Result<CliOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    PrintUsage();
    return 2;
  }
  if (!options.value().fault_spec.empty()) {
    const Status armed = resilience::FaultInjector::Global().Configure(
        options.value().fault_spec);
    if (!armed.ok()) {
      std::cerr << armed << "\n";
      PrintUsage();
      return 2;
    }
  }
  if (options.value().max_sim_bytes > 0) {
    SetMaxSimulationBytes(options.value().max_sim_bytes);
  }
  Result<Graph> loaded = LoadGraph(options.value());
  if (!loaded.ok()) {
    std::cerr << "failed to load graph: " << loaded.status() << "\n";
    return 1;
  }
  svc::SolveRequest request;
  request.graph = std::move(loaded).value();
  request.k = options.value().k;
  // The paper's qaMKP is the registry's hybrid backend.
  request.backend = options.value().algorithm == "qamkp"
                        ? "hybrid"
                        : options.value().algorithm;
  request.seed = options.value().seed;
  request.options["threads"] = std::to_string(options.value().threads);
  const Graph& graph = request.graph;
  std::cerr << "loaded " << graph.ToString() << ", solving k="
            << options.value().k << " via " << options.value().algorithm
            << "\n";

  // Structured JSONL event stream: opened before the solve so every solver
  // heartbeat lands in it, uninstalled before exit (RAII keeps the error
  // paths honest).
  std::unique_ptr<obs::EventSink> events;
  if (!options.value().events.empty()) {
    Result<std::unique_ptr<obs::EventSink>> opened = obs::EventSink::Open(
        options.value().events, options.value().progress_interval_ms);
    if (!opened.ok()) {
      std::cerr << "failed to open event stream " << options.value().events
                << ": " << opened.status() << "\n";
      return 1;
    }
    events = std::move(opened).value();
    obs::EventSink::InstallGlobal(events.get());
  }
  struct SinkUninstaller {
    ~SinkUninstaller() { obs::EventSink::InstallGlobal(nullptr); }
  } uninstaller;

  // Start metric collection from a clean slate so the report describes this
  // solve only, not process history.
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
  // Every lifecycle emission sits behind EventsEnabled() so a run without
  // --events never assembles the payload fields at all.
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "cli", "run_start",
                   {{"input", options.value().input},
                    {"algorithm", options.value().algorithm},
                    {"k", options.value().k},
                    {"seed", static_cast<std::int64_t>(options.value().seed)},
                    {"num_vertices", graph.num_vertices()},
                    {"num_edges", graph.num_edges()}});
  }
  Stopwatch watch;
  const Result<MkpSolution> solution = Solve(request);
  const double wall_seconds = watch.ElapsedSeconds();
  if (!solution.ok()) {
    if (obs::EventsEnabled()) {
      obs::EmitEvent(obs::EventLevel::kWarn, "cli", "run_error",
                     {{"status", solution.status().ToString()},
                      {"wall_seconds", wall_seconds}});
    }
    std::cerr << "solver failed: " << solution.status() << "\n";
    return 1;
  }
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "cli", "run_end",
                   {{"solution_size", solution.value().size},
                    {"wall_seconds", wall_seconds}});
  }
  std::cout << "size " << solution.value().size << "\nmembers";
  for (Vertex v : solution.value().members) {
    std::cout << " " << v;
  }
  std::cout << "\n";

  if (!options.value().metrics_json.empty() || options.value().verbose_trace) {
    const obs::RunReport report = BuildReport(
        options.value(), graph, solution.value(), wall_seconds);
    if (options.value().verbose_trace) {
      std::cerr << report.ToPrettyString();
    }
    if (!options.value().metrics_json.empty()) {
      const Status written =
          report.WriteJsonFile(options.value().metrics_json);
      if (!written.ok()) {
        // The solution was already printed above: a reporting failure names
        // the offending path and flips the exit code, but never eats the
        // solver result.
        std::cerr << "failed to write metrics report to "
                  << options.value().metrics_json << ": " << written << "\n";
        return 1;
      }
      if (options.value().metrics_json != "-") {
        std::cerr << "metrics report written to "
                  << options.value().metrics_json << "\n";
      }
    }
  }
  if (!options.value().metrics_prom.empty()) {
    const Status written =
        svc::WritePromSnapshot(options.value().metrics_prom);
    if (!written.ok()) {
      std::cerr << "failed to write OpenMetrics exposition to "
                << options.value().metrics_prom << ": " << written << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
