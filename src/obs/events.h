#ifndef QPLEX_OBS_EVENTS_H_
#define QPLEX_OBS_EVENTS_H_

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/json.h"

namespace qplex::obs {

/// Severity of a structured event line.
enum class EventLevel : std::uint8_t {
  kDebug = 0,
  kInfo,
  kWarn,
};

/// Stable lowercase name ("debug", "info", "warn").
std::string_view EventLevelName(EventLevel level);

/// A structured JSONL event stream: one compact JSON object per line, written
/// as events happen (flushed per line so `tail -f` and crash post-mortems see
/// every emitted event). Line schema:
///
///   {"ts_ms": <ms since sink open>, "seq": <process-wide sequence number>,
///    "level": "info", "solver": "qmkp", "event": "probe",
///    ...caller key/values in order...}
///
/// "seq" is a process-wide monotonic stamp shared by every sink, so lines
/// merged across sinks (or jobs) sort deterministically even at equal ts_ms.
/// Within one process's output it is gap-free; qplex_obs flags duplicates.
///
/// The sink is the live counterpart of RunReport: reports summarise a finished
/// run, the event stream narrates it while it is still going. Emission is
/// mutex-serialised (events happen at probe/heartbeat granularity, never in
/// inner loops), and every field value rides the obs/json writer, so lines are
/// parseable by `JsonValue::Parse` and by any JSONL tooling.
class EventSink {
 public:
  static constexpr int kDefaultProgressIntervalMs = 250;

  /// Opens a sink writing to `path` ("-" means stdout). `progress_interval_ms`
  /// is the minimum spacing between ProgressHeartbeat emissions per site and
  /// must be >= 1.
  static Result<std::unique_ptr<EventSink>> Open(
      const std::string& path,
      int progress_interval_ms = kDefaultProgressIntervalMs);

  ~EventSink();

  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  /// Writes one event line. `fields` are appended to the envelope in order.
  void Emit(EventLevel level, std::string_view solver, std::string_view event,
            std::initializer_list<std::pair<std::string_view, JsonValue>>
                fields);

  /// True when a progress event keyed `solver/event[/scope]` is currently
  /// due: the key has never emitted, or at least progress_interval_ms elapsed
  /// since it last did. Throttle state lives here (not in call sites) so many
  /// short-lived solver objects under one run share one cadence. `scope`
  /// separates concurrent requests (the portfolio racer passes the trace id)
  /// so racing jobs never starve each other's heartbeats.
  bool ProgressDue(std::string_view solver, std::string_view event,
                   std::string_view scope = {}) const;

  /// Emits a progress line iff due, atomically updating the key's last-emit
  /// time. Returns whether a line was written. When `scope` is non-empty it
  /// is also stamped on the line as the "trace" envelope field.
  bool EmitProgress(std::string_view solver, std::string_view event,
                    std::initializer_list<std::pair<std::string_view,
                                                    JsonValue>> fields,
                    std::string_view scope = {});

  /// Drops the throttle state of every progress key under `scope`. The job
  /// span that ends a trace (EmitJobSpan) calls it with the trace id, so a
  /// server tracing every job keeps one throttle entry per live job, not one
  /// per job ever run. O(log scopes).
  void ForgetProgressScope(std::string_view scope);

  /// Number of progress keys currently throttled, over every scope.
  std::size_t progress_key_count() const;

  int progress_interval_ms() const { return progress_interval_ms_; }
  std::int64_t lines_written() const {
    return lines_written_.load(std::memory_order_relaxed);
  }

  /// The process-wide sink instrumentation sites emit into, or nullptr when
  /// no event stream was requested. Install/uninstall is the CLI's job; the
  /// installed sink must outlive every emitting solver call.
  static EventSink* Global();
  static void InstallGlobal(EventSink* sink);

 private:
  EventSink(std::ostream* stream, std::unique_ptr<std::ostream> owned,
            int progress_interval_ms);

  void EmitLocked(EventLevel level, std::string_view solver,
                  std::string_view event,
                  std::initializer_list<std::pair<std::string_view,
                                                  JsonValue>> fields,
                  std::string_view trace = {});

  std::ostream* stream_;                   // where lines go (never null)
  std::unique_ptr<std::ostream> owned_;    // owns file streams; null for stdout
  int progress_interval_ms_;
  mutable std::mutex mutex_;
  Stopwatch since_open_;
  /// Last ProgressDue-emit time per "solver/event" key, in ms since open.
  using ProgressTimes = std::map<std::string, double, std::less<>>;
  /// ProgressTimes per scope, scope first so ForgetProgressScope is one
  /// erase. Unscoped keys live under the empty scope, which is never forgotten.
  std::map<std::string, ProgressTimes, std::less<>> progress_last_ms_;
  std::atomic<std::int64_t> lines_written_{0};
};

/// True when a global sink is installed — the cheap gate for callers that
/// would otherwise compute event fields for nothing.
inline bool EventsEnabled() { return EventSink::Global() != nullptr; }

/// Emits an event into the global sink; no-op when none is installed.
void EmitEvent(EventLevel level, std::string_view solver,
               std::string_view event,
               std::initializer_list<std::pair<std::string_view, JsonValue>>
                   fields);

/// The trace id (16 hex digits) of the job trace open on this thread, or
/// empty outside any trace. Defined in obs/trace.cc; declared here so
/// ProgressHeartbeat can key its throttle per request without events.h
/// depending on the trace header.
std::string_view CurrentTraceToken();

/// Rate-limited progress reporter for long-running loops. `Due()` is cheap
/// enough to poll every loop iteration: an atomic load when no sink is
/// installed, one mutex-protected map probe when one is (and polls happen at
/// sweep/probe/1024-node granularity, never per inner-loop step). The very
/// first heartbeat for a given solver/event key is always due, so even a run
/// far shorter than the interval emits at least one progress line; after
/// that the sink enforces the interval across every object sharing the key.
/// Under the portfolio racer the throttle key also carries the active trace
/// id, so two jobs racing through the same solver each keep their own
/// heartbeat cadence instead of the first one silencing the rest.
class ProgressHeartbeat {
 public:
  explicit ProgressHeartbeat(std::string_view solver,
                             std::string_view event = "progress")
      : solver_(solver), event_(event) {}

  /// True when a heartbeat should be emitted now. Callers compute the fields
  /// only after a true return.
  bool Due() const {
    const EventSink* sink = EventSink::Global();
    return sink != nullptr &&
           sink->ProgressDue(solver_, event_, CurrentTraceToken());
  }

  /// Emits a progress event (the sink re-checks dueness atomically, so a
  /// stale Due() answer degrades to a dropped line, never a flood).
  void Emit(std::initializer_list<std::pair<std::string_view, JsonValue>>
                fields) {
    EventSink* sink = EventSink::Global();
    if (sink != nullptr) {
      sink->EmitProgress(solver_, event_, fields, CurrentTraceToken());
    }
  }

 private:
  std::string solver_;
  std::string event_;
};

}  // namespace qplex::obs

#endif  // QPLEX_OBS_EVENTS_H_
