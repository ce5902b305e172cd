#ifndef QPLEX_OBS_TRACE_H_
#define QPLEX_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace qplex::obs {

/// One aggregated node of the trace tree: spans with the same name under the
/// same parent merge (count incremented, durations summed), so a solver that
/// probes qTKP eight times shows one "qtkp" child with count = 8 rather than
/// eight siblings.
struct TraceNodeSnapshot {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_nanos = 0;  ///< inclusive (children's time counted)
  std::vector<TraceNodeSnapshot> children;

  double TotalSeconds() const { return total_nanos * 1e-9; }
  /// Time not attributed to any child span.
  std::int64_t SelfNanos() const;
};

namespace internal {
struct TraceNode;
struct JobTrace;
}  // namespace internal

/// FNV-1a 64-bit hash: the id-derivation primitive for trace and span ids.
std::uint64_t Fnv1a64(std::string_view text);

/// 16-hex-digit lowercase rendering of an id (the wire form in span events).
std::string IdHex(std::uint64_t id);

/// Trace id of one scheduler job: a hash of the caller's label and the job
/// id, so it is recomputable anywhere the job is visible.
std::uint64_t DeriveTraceId(std::string_view label, std::int64_t job_id);

/// Owns the aggregated trace tree that TraceSpans close into. Open/close take
/// a mutex, which is fine at span granularity (solver call, probe, sweep
/// batch — never per inner-loop step).
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Drops all recorded spans. Must not be called while spans are open.
  void Reset();

  TraceNodeSnapshot Snapshot() const;

  /// The process-wide tracer every TraceSpan records into.
  static Tracer& Global();

 private:
  friend class TraceSpan;

  /// `parent` null opens a top-level span.
  internal::TraceNode* OpenSpan(internal::TraceNode* parent,
                                std::string_view name);
  void CloseSpan(internal::TraceNode* node, std::int64_t elapsed_nanos);

  mutable std::mutex mutex_;
  std::unique_ptr<internal::TraceNode> root_;
};

/// Marks a request-structure span (the scheduler's racer@, attempt@, solve
/// and fallback@): it gets an id and a "span" event, but no node in the
/// aggregate tree.
struct RequestOnlyTag {};
inline constexpr RequestOnlyTag kRequestOnly{};

/// RAII scoped timer on this thread's span stack. Closing a span feeds two
/// sinks:
///   - the aggregated name tree of Tracer::Global() (RunReport,
///     --metrics-json, --verbose-trace), nested under the innermost enclosing
///     span that has a tree node;
///   - inside a job's trace only, the trace's per-path aggregation. Span ids
///     are structural: the hash of "<trace hex>:<path>", so a retry attempt
///     or a fallback hop recomputes the same id on any worker thread, and two
///     same-seed runs emit byte-identical id sets.
/// A trace lives on the thread that opened its root. Threads with an empty
/// stack (solver-internal pools) feed the tree only, which keeps every trace
/// orphan-free. With events off no trace is opened, so no span builds a path
/// or an id.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);

  /// A request-only span named "name@qualifier" ("name" when the qualifier
  /// is empty) under the current trace span.
  TraceSpan(RequestOnlyTag, std::string_view name,
            std::string_view qualifier = {});

  /// Opens job `trace_id`'s trace on this thread: a request-only root span
  /// "job/name@qualifier". It aggregates every span closed under it per
  /// path and, when it closes, emits one path-sorted "span" event per path,
  /// so a solver evaluating its oracle 10^4 times still costs one line.
  /// Records nothing when no event sink is installed.
  TraceSpan(std::uint64_t trace_id, std::string_view name,
            std::string_view qualifier);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  friend void RecordSpan(std::string_view, std::string_view, double);
  friend std::string_view CurrentTraceToken();
  friend std::string_view CurrentSpanPath();

  /// Joins `trace` as the child "name@qualifier" of the span at
  /// `parent_path`.
  void Join(internal::JobTrace* trace, std::string_view parent_path,
            std::uint64_t parent_id, std::string_view name,
            std::string_view qualifier);

  TraceSpan* parent_;                    // enclosing span on this thread
  internal::TraceNode* node_ = nullptr;  // own tree node; null: request-only
  internal::TraceNode* tree_ = nullptr;  // where child tree nodes attach
  internal::JobTrace* trace_ = nullptr;  // null: outside any trace
  std::unique_ptr<internal::JobTrace> owned_trace_;  // set on a trace root
  std::string path_;                     // e.g. "job/racer@bs/attempt@1"
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  Stopwatch watch_;
};

/// Records an already-measured span "name@qualifier" of `elapsed_ms` as a
/// child of the current trace span (queue wait, cache lookup, a computed
/// backoff); no-op outside a trace.
void RecordSpan(std::string_view name, std::string_view qualifier,
                double elapsed_ms);

/// The path of the current trace span, or empty outside a trace.
std::string_view CurrentSpanPath();

/// Emits the "job" root span of trace `trace_id` (parent id 0, count 1) —
/// the scheduler's last racer closes every job with it — and drops the
/// trace's heartbeat throttle state, since no racer of the job is left.
void EmitJobSpan(std::uint64_t trace_id, double total_ms);

/// Renders a snapshot as an indented text tree with counts and timings —
/// the CLI's --verbose-trace output.
std::string FormatTraceTree(const TraceNodeSnapshot& root);

}  // namespace qplex::obs

#endif  // QPLEX_OBS_TRACE_H_
