#ifndef QPLEX_OBS_ANALYSIS_H_
#define QPLEX_OBS_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace qplex::obs {

/// One "span" event line from a --events JSONL stream (already merged per
/// path by the job trace that emitted it; LoadEventLog keeps them raw, BuildTraceForest
/// re-merges lines that share a span id across attempts/flushes).
struct SpanRecord {
  std::string trace;   ///< 16-hex trace id
  std::string span;    ///< 16-hex span id
  std::string parent;  ///< 16-hex parent id; all zeros marks a root
  std::string name;
  std::string path;
  std::int64_t count = 0;
  double total_ms = 0;
};

/// One completed job (a job_end line).
struct JobRecord {
  std::int64_t job = 0;
  std::string label;
  std::string trace;
  std::string backend;
  std::string status;
  std::string degraded_from;
  double queue_seconds = 0;
  double wall_seconds = 0;
  std::int64_t attempts = 0;
  std::int64_t size = 0;
  std::int64_t racers = 0;        ///< portfolio width (0 on pre-PR7 logs)
  std::int64_t winner_margin = 0; ///< winner size minus best losing racer
  bool cache_hit = false;
  std::int64_t seq = -1;  ///< envelope sequence number; -1 when absent
};

/// One circuit-breaker state transition (a breaker_transition line).
struct BreakerTransitionRecord {
  std::string backend;
  std::string from;  ///< "closed" | "half_open" | "open"
  std::string to;
  std::int64_t consecutive_failures = 0;
  std::int64_t cooldown = 0;  ///< consults charged for the next probe
  std::int64_t seq = -1;
};

/// One wedged-job watchdog kill (a watchdog_kill line).
struct WatchdogKillRecord {
  std::int64_t job = 0;
  std::string backend;
  std::int64_t attempt = 0;
  std::int64_t heartbeats = 0;  ///< cancel-poll count at kill time
  std::int64_t seq = -1;
};

/// One shed admission decision (an admission_shed line).
struct ShedRecord {
  std::string label;
  std::string reason;  ///< "backlog_full" | "queue_delay"
  std::int64_t seq = -1;
};

/// One admitted job (a job_start line), carrying the instance shape.
struct JobStartRecord {
  std::int64_t job = 0;
  std::string label;
  std::string trace;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<std::string> backends;
};

/// One "incumbent" event line: a strict best-solution improvement inside a
/// backend, keyed to the structural span (trace + path) that produced it.
struct IncumbentRecord {
  std::string trace;
  std::string solver;
  std::string path;        ///< request-scope path; empty for plain CLI solves
  std::int64_t size = 0;
  std::int64_t work = 0;   ///< backend-native deterministic progress units
  std::int64_t improvement = 0;  ///< 1-based per-timeline index
  bool has_value = false;
  double value = 0;        ///< native objective (energy / MILP objective)
  double elapsed_ms = 0;
  std::int64_t seq = -1;   ///< envelope sequence number; -1 when absent
};

/// One "bound" event line: a dual/upper-bound update from a bounded search.
struct BoundRecord {
  std::string trace;
  std::string solver;
  std::string path;
  double bound = 0;
  std::int64_t work = 0;
  std::int64_t update = 0;  ///< 1-based per-timeline index
  double elapsed_ms = 0;
  std::int64_t seq = -1;
};

/// Everything the analyzer extracts from one events file.
struct EventLog {
  std::vector<SpanRecord> spans;
  std::vector<JobRecord> jobs;
  std::vector<JobStartRecord> job_starts;
  std::vector<IncumbentRecord> incumbents;
  std::vector<BoundRecord> bounds;
  std::vector<BreakerTransitionRecord> breaker_transitions;
  std::vector<WatchdogKillRecord> watchdog_kills;
  std::vector<ShedRecord> sheds;
  std::vector<std::string> replayed_labels;  ///< job_replayed (WAL replays)
  std::int64_t retries = 0;
  std::int64_t fallbacks = 0;
  std::int64_t lines = 0;
  std::int64_t malformed = 0;  ///< lines that failed to parse as JSON
  /// Envelope "seq" stamp accounting across every parsed line. Gaps are
  /// expected when one process feeds several sinks (the counter is shared);
  /// duplicates within one merged stream are a validation failure.
  std::int64_t seq_present = 0;
  std::int64_t seq_missing = 0;     ///< parsed lines without a "seq" field
  std::int64_t seq_duplicates = 0;  ///< stamps seen more than once
  std::int64_t seq_gaps = 0;        ///< missing stamps inside [min, max]
};

/// Parses an --events JSONL file. IO failure is an error; individual
/// malformed lines are counted, not fatal (a crashed run may truncate its
/// last line and post-mortems must still work).
Result<EventLog> LoadEventLog(const std::string& path);

/// A span-id-merged node of a reconstructed trace tree.
struct SpanTreeNode {
  SpanRecord record;
  std::vector<SpanTreeNode> children;  ///< sorted by path
};

/// One job's reconstructed trace.
struct TraceSummary {
  std::string trace;
  std::string label;              ///< from the matching job_end, or "?"
  std::int64_t job = -1;          ///< -1 when no job_end was seen
  std::string backend;
  std::string status;
  std::vector<SpanTreeNode> roots;    ///< parent id all zeros
  std::vector<SpanRecord> orphans;    ///< parent id unknown in this trace
};

/// Groups spans by trace id, merges records sharing a span id (counts and
/// durations summed), and assembles parent/child trees. Ordered by
/// (label, trace id) so output is stable across runs.
std::vector<TraceSummary> BuildTraceForest(const EventLog& log);

std::size_t CountOrphans(const std::vector<TraceSummary>& forest);

/// Renders the forest as an indented text tree. Durations are deliberately
/// excluded — the output is a pure function of trace structure, so two
/// same-seed runs render byte-identically and CI can diff them.
std::string FormatTraceForest(const std::vector<TraceSummary>& forest);

/// Flamegraph-folded stacks ("job;racer@bs;attempt@1;solve 3"), one line per
/// structural path, aggregated across every trace and sorted. The folded
/// value is the span count (not milliseconds) for the same determinism
/// reason as above.
std::string FormatFoldedStacks(const std::vector<TraceSummary>& forest);

/// Per-backend latency percentiles (exact order statistics over job_end
/// queue+wall latencies, in ms). Values are whatever the run recorded;
/// structure and ordering are deterministic.
std::string FormatLatencyReport(const EventLog& log);

/// SLO compliance per backend against `slo_ms` (admission-to-merge latency).
std::string FormatSloReport(const EventLog& log, double slo_ms);

/// Health-subsystem invariants (DESIGN.md section 15), checked on every
/// analyzer run:
///   - breaker transitions per backend replay as a legal walk of the state
///     machine from closed: closed->open, open->half_open,
///     half_open->closed, half_open->open, with each line's "from" matching
///     the replayed state (no open->closed without a half_open probe);
///   - no watchdog kill is sequenced after its job's job_end line (the
///     scheduler emits the kill before the job can merge a response).
/// Pre-health logs (no such events) pass vacuously.
Status ValidateHealthEvents(const EventLog& log);

/// Deterministic health summary: breaker transition counts per backend and
/// edge, watchdog kills per backend, sheds per reason. Counts only — no
/// timestamps or durations — so two same-seed single-worker chaos runs
/// render byte-identically and CI can diff them.
std::string FormatHealthReport(const EventLog& log);

}  // namespace qplex::obs

#endif  // QPLEX_OBS_ANALYSIS_H_
