// qplex offline observability analyzer: ingests a --events JSONL stream (and
// optionally the matching WAL journal + an OpenMetrics exposition) and emits
// derived views of one run:
//
//   qplex_obs --events <file> [--journal <file>]
//             [--trace-tree <file|->] [--folded <file|->]
//             [--latency <file|->] [--slo <file|-> --slo-ms <float>]
//             [--convergence <file|->] [--convergence-timing]
//             [--health <file|->]
//             [--check-metrics <file>] [--fail-on-orphans]
//
//   --trace-tree     reconstructed span tree per job (trace/span/parent ids
//                    from the scheduler's request-scoped tracing)
//   --folded         flamegraph-folded stacks (path;path;... count), ready
//                    for flamegraph.pl / speedscope
//   --latency        per-backend latency percentiles (exact order stats)
//   --slo            SLO compliance report against --slo-ms
//   --convergence    anytime-convergence report: per-job incumbent timelines
//                    (size vs deterministic work), primal-bound gap closure,
//                    and portfolio race summaries, reconstructed from the
//                    incumbent/bound/job events alone
//   --convergence-timing adds wall-clock columns and the seq-ordered race
//                    lead-change line to --convergence (off by default: the
//                    default report is byte-stable across reruns)
//   --health         health-subsystem summary: breaker transition counts per
//                    backend and edge, watchdog kills per backend, admission
//                    sheds per reason — counts only, so two same-seed
//                    single-worker chaos runs render byte-identically
//   --check-metrics  validates an OpenMetrics exposition with the in-repo
//                    checker (TYPE declarations, charset, cumulative
//                    buckets, # EOF)
//   --journal        cross-checks the WAL against the event stream: every
//                    journaled job must appear as a job_end or job_replayed
//   --fail-on-orphans exits 1 when any span's parent is missing from its
//                    trace (a broken trace-context propagation)
//
// Tree, folded and (default) convergence outputs carry counts only — no
// wall-clock — so two same-seed runs produce byte-identical files and CI can
// diff them.
//
// Every run also validates the stream itself: incumbent timelines must
// improve strictly and monotonically, bound timelines must tighten, seq
// stamps must not repeat (each EmitLocked line carries a process-wide
// monotonic "seq"; duplicates mean two sinks clobbered each other), and the
// health events must be consistent — breaker transitions replay as a legal
// walk of the state machine (no open->closed without a half_open probe) and
// no watchdog kill is sequenced after its job's job_end.
//
// Exit codes: 0 ok, 1 validation failure (orphans/malformed metrics/journal
// mismatch/incumbent or seq violations), 2 usage error, 3 unreadable or
// unwritable input/output (missing events file, bad journal path, ...).

#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "qplex/qplex.h"

namespace qplex {
namespace {

struct ObsOptions {
  std::string events;
  std::string journal;
  std::string trace_tree;
  std::string folded;
  std::string latency;
  std::string slo;
  double slo_ms = 0;
  std::string convergence;
  bool convergence_timing = false;
  std::string health;
  std::string check_metrics;
  bool fail_on_orphans = false;
};

void PrintUsage() {
  std::cerr << "usage: qplex_obs --events <file> [--journal <file>]\n"
               "                 [--trace-tree <file|->] [--folded <file|->]\n"
               "                 [--latency <file|->] "
               "[--slo <file|-> --slo-ms <float>]\n"
               "                 [--convergence <file|->] "
               "[--convergence-timing]\n"
               "                 [--health <file|->]\n"
               "                 [--check-metrics <file>] "
               "[--fail-on-orphans]\n";
}

Result<ObsOptions> ParseArgs(int argc, char** argv) {
  ObsOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--events") {
      QPLEX_ASSIGN_OR_RETURN(options.events, next());
    } else if (arg == "--journal") {
      QPLEX_ASSIGN_OR_RETURN(options.journal, next());
    } else if (arg == "--trace-tree") {
      QPLEX_ASSIGN_OR_RETURN(options.trace_tree, next());
    } else if (arg == "--folded") {
      QPLEX_ASSIGN_OR_RETURN(options.folded, next());
    } else if (arg == "--latency") {
      QPLEX_ASSIGN_OR_RETURN(options.latency, next());
    } else if (arg == "--slo") {
      QPLEX_ASSIGN_OR_RETURN(options.slo, next());
    } else if (arg == "--slo-ms") {
      QPLEX_ASSIGN_OR_RETURN(std::string value, next());
      QPLEX_ASSIGN_OR_RETURN(options.slo_ms,
                             ParseNumber<double>(arg, value));
    } else if (arg == "--convergence") {
      QPLEX_ASSIGN_OR_RETURN(options.convergence, next());
    } else if (arg == "--convergence-timing") {
      options.convergence_timing = true;
    } else if (arg == "--health") {
      QPLEX_ASSIGN_OR_RETURN(options.health, next());
    } else if (arg == "--check-metrics") {
      QPLEX_ASSIGN_OR_RETURN(options.check_metrics, next());
    } else if (arg == "--fail-on-orphans") {
      options.fail_on_orphans = true;
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.events.empty()) {
    return Status::InvalidArgument("--events is required");
  }
  if (!options.slo.empty() && options.slo_ms <= 0) {
    return Status::InvalidArgument("--slo requires --slo-ms > 0");
  }
  return options;
}

Status WriteOutput(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return Status::Ok();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out || !(out << text)) {
    return Status::InvalidArgument("cannot write output file: " + path);
  }
  return Status::Ok();
}

/// Journal cross-check: every journaled label must be accounted for in the
/// event stream, either as a completed job_end or a job_replayed line.
Result<std::vector<std::string>> JournalMismatches(
    const std::string& path, const obs::EventLog& log) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open journal: " + path);
  }
  std::set<std::string> seen;
  for (const obs::JobRecord& job : log.jobs) {
    seen.insert(job.label);
  }
  for (const std::string& label : log.replayed_labels) {
    seen.insert(label);
  }
  std::vector<std::string> missing;
  std::string text;
  while (std::getline(in, text)) {
    auto parsed = obs::JsonValue::Parse(text);
    if (!parsed.ok() || !parsed.value().is_object()) {
      break;  // torn tail: the valid-prefix rule, same as --resume
    }
    const obs::JsonValue* label = parsed.value().Find("label");
    if (label == nullptr || !label->is_string()) {
      break;
    }
    if (seen.find(label->AsString()) == seen.end()) {
      missing.push_back(label->AsString());
    }
  }
  return missing;
}

int Main(int argc, char** argv) {
  const Result<ObsOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    PrintUsage();
    return 2;
  }
  const ObsOptions& opts = options.value();

  Result<obs::EventLog> loaded = obs::LoadEventLog(opts.events);
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n"
              << "qplex_obs: cannot analyze '" << opts.events
              << "' — pass the --events JSONL produced by a run with "
                 "QPLEX_EVENTS set (or qplex_serve --events)\n";
    return 3;
  }
  const obs::EventLog& log = loaded.value();
  const std::vector<obs::TraceSummary> forest = obs::BuildTraceForest(log);
  const std::size_t orphans = obs::CountOrphans(forest);

  if (!opts.trace_tree.empty()) {
    const Status written =
        WriteOutput(opts.trace_tree, obs::FormatTraceForest(forest));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }
  if (!opts.folded.empty()) {
    const Status written =
        WriteOutput(opts.folded, obs::FormatFoldedStacks(forest));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }
  if (!opts.latency.empty()) {
    const Status written =
        WriteOutput(opts.latency, obs::FormatLatencyReport(log));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }
  if (!opts.slo.empty()) {
    const Status written =
        WriteOutput(opts.slo, obs::FormatSloReport(log, opts.slo_ms));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }
  if (!opts.convergence.empty()) {
    obs::ConvergenceOptions convergence_options;
    convergence_options.include_timing = opts.convergence_timing;
    const Status written = WriteOutput(
        opts.convergence,
        obs::FormatConvergenceReport(log, convergence_options));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }

  if (!opts.health.empty()) {
    const Status written =
        WriteOutput(opts.health, obs::FormatHealthReport(log));
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 3;
    }
  }

  int failures = 0;
  const Status health_checked = obs::ValidateHealthEvents(log);
  if (!health_checked.ok()) {
    std::cerr << "health check FAILED: " << health_checked.message() << "\n";
    ++failures;
  }
  const std::vector<std::string> incumbent_violations =
      obs::ValidateIncumbents(log);
  if (!incumbent_violations.empty()) {
    std::cerr << "incumbent check FAILED: " << incumbent_violations.size()
              << " violation(s):\n";
    for (const std::string& violation : incumbent_violations) {
      std::cerr << "  " << violation << "\n";
    }
    ++failures;
  }
  if (log.seq_duplicates > 0) {
    std::cerr << "seq check FAILED: " << log.seq_duplicates
              << " duplicate seq stamp(s) — two event sinks clobbered each "
                 "other's lines\n";
    ++failures;
  }
  if (!opts.check_metrics.empty()) {
    std::ifstream in(opts.check_metrics);
    if (!in) {
      std::cerr << "cannot open metrics file: " << opts.check_metrics << "\n";
      return 3;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const Status checked = obs::CheckOpenMetrics(buffer.str());
    if (!checked.ok()) {
      std::cerr << "openmetrics check FAILED: " << checked.message() << "\n";
      ++failures;
    } else {
      std::cerr << "openmetrics check ok: " << opts.check_metrics << "\n";
    }
  }
  if (!opts.journal.empty()) {
    Result<std::vector<std::string>> missing =
        JournalMismatches(opts.journal, log);
    if (!missing.ok()) {
      std::cerr << missing.status() << "\n";
      return 3;
    }
    if (!missing.value().empty()) {
      std::cerr << "journal check FAILED: " << missing.value().size()
                << " journaled job(s) missing from the event stream:";
      for (const std::string& label : missing.value()) {
        std::cerr << " " << label;
      }
      std::cerr << "\n";
      ++failures;
    } else {
      std::cerr << "journal check ok: " << opts.journal << "\n";
    }
  }
  if (orphans > 0) {
    std::cerr << "orphan spans: " << orphans << "\n";
    if (opts.fail_on_orphans) {
      ++failures;
    }
  }

  std::cerr << "events=" << log.lines << " malformed=" << log.malformed
            << " traces=" << forest.size() << " jobs=" << log.jobs.size()
            << " replayed=" << log.replayed_labels.size()
            << " retries=" << log.retries << " fallbacks=" << log.fallbacks
            << " orphans=" << orphans << " incumbents=" << log.incumbents.size()
            << " bounds=" << log.bounds.size()
            << " breaker_transitions=" << log.breaker_transitions.size()
            << " watchdog_kills=" << log.watchdog_kills.size()
            << " sheds=" << log.sheds.size()
            << " seq_missing=" << log.seq_missing
            << " seq_gaps=" << log.seq_gaps << "\n";
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
