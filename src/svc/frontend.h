#ifndef QPLEX_SVC_FRONTEND_H_
#define QPLEX_SVC_FRONTEND_H_

/// \file
/// The serve front-end: one admit -> submit -> drain -> journal path fed by
/// line sources. A job file (or stdin) is one source, loaded and validated up
/// front; each connection accepted by net::Server is another. All share the
/// skip rule, ParseRequestLine, completion routing and the admission-ordered
/// journal, so the same lines journal the same bytes whichever way they come.
/// Two policies follow from the kind of source, not from configuration:
///   - A job file can be re-read. Its lines are pulled only while the backlog
///     has room, so they are never shed; on stop its in-flight jobs are
///     cancelled and journaling stops, leaving the WAL a clean prefix.
///   - A connection cannot be re-read. Its requests can be shed, and on stop
///     its admitted jobs drain to completion and every response flushes.
/// Run() executes the whole event loop on the caller's thread.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "net/frame.h"
#include "net/server.h"
#include "resilience/health.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "svc/scheduler.h"

namespace qplex::svc {

/// Front-end configuration; every field is the qplex_serve flag it names.
struct FrontEndOptions {
  int queue_cap = 64;         ///< --queue-cap: backlog past the scheduler queue
  double shed_target_ms = 0;  ///< --shed-target-ms: 0 = hard backlog cap only
  int listen_port = -1;       ///< --listen: bound by Listen(), 0 = any port
  int max_connections = 64;   ///< --max-connections
  int idle_timeout_ms = 0;    ///< --idle-timeout-ms
  std::size_t max_line_bytes = net::FrameSplitter::kDefaultMaxLineBytes;
  std::string port_file;      ///< --port-file: the bound port, once listening
  std::string metrics_prom;   ///< --metrics-prom
  /// --metrics-prom-interval-ms: > 0 makes Run() write an OpenMetrics
  /// snapshot of the global registry every interval.
  int metrics_prom_interval_ms = 0;
};

/// What one Run() served, for the summary event and reports.
struct FrontEndOutcome {
  std::int64_t requests = 0;   ///< request lines read from connections
  std::int64_t responses = 0;  ///< answers routed back to connections
  std::int64_t failures = 0;   ///< non-OK jobs and per-request errors
  std::int64_t malformed = 0;  ///< unparseable lines and framing violations
  std::int64_t shed = 0;       ///< connection requests refused at admission
  bool interrupted = false;    ///< the stop predicate fired
};

/// The skip rule every source applies: blank lines and '#' comments are not
/// requests.
bool IsSkippedLine(std::string_view line);

/// Loads a job file. Every line the skip rule keeps must parse (line numbers
/// count file lines), must be a solve request (health probes are answered
/// from live load, which has no place in a re-readable journal), must name
/// registered backends, and must race no more backends than the admission
/// queue holds. The first bad line rejects the whole file, before any job
/// runs.
Result<std::vector<RequestSpec>> LoadJobFile(const std::string& text,
                                             const SolverRegistry& registry,
                                             int queue_cap);

/// Writes one OpenMetrics snapshot of the global metrics registry
/// atomically (tmp file + rename), so a scraper never reads a torn file.
Status WritePromSnapshot(const std::string& path);

class FrontEnd {
 public:
  /// `scheduler` and `journal` (nullable: no WAL) must outlive the
  /// front-end.
  FrontEnd(JobScheduler* scheduler, std::ostream* journal,
           FrontEndOptions options);
  /// The listener's callbacks hold `this`.
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds the loopback listener on options.listen_port, writes the port
  /// file and emits the "listening" event.
  Status Listen();
  /// The bound port; valid after Listen().
  int port() const { return server_->port(); }

  /// Adds a loaded job file (LoadJobFile) as a line source.
  void AddJobs(std::vector<RequestSpec> jobs);

  /// Serves until every source is finished: the job file once its last job
  /// has completed, the listener once `stop` returns true and its admitted
  /// work has drained. `stop` is polled once per loop tick.
  Result<FrontEndOutcome> Run(const std::function<bool()>& stop);

 private:
  /// Source id of the job file; net::Server numbers connections from 1.
  static constexpr std::uint64_t kJobFile = 0;

  struct Pending {
    std::uint64_t source = kJobFile;
    RequestSpec spec;
  };
  /// Everything tracked about one admitted request.
  struct Route {
    std::uint64_t source = kJobFile;
    std::string label;            ///< the client's request id
    std::uint64_t admission = 0;  ///< journal reorder position
  };

  bool Busy() const { return !outstanding_.empty() || !backlog_.empty(); }
  void OnLine(std::uint64_t conn, std::string line);
  void OnClose(std::uint64_t conn);
  void Stop();
  void SubmitBacklog();
  void DrainCompletions();
  std::string RenderHealthLine(const std::string& label) const;

  JobScheduler* scheduler_;
  std::ostream* journal_;
  const FrontEndOptions options_;
  resilience::OverloadController overload_;
  std::unique_ptr<net::Server> server_;
  std::vector<RequestSpec> jobs_;
  std::size_t next_job_ = 0;
  std::deque<Pending> backlog_;
  std::map<JobId, Route> outstanding_;
  std::unordered_map<std::uint64_t, int> conn_lines_;
  /// Admitted-but-unanswered jobs per connection; non-zero pins the
  /// connection against the idle timeout (net::Server::SetIdleExempt).
  std::unordered_map<std::uint64_t, int> conn_outstanding_;
  /// Journal reorder buffer: finished lines wait here until every earlier
  /// admission has been written.
  std::map<std::uint64_t, std::string> journal_lines_;
  std::uint64_t next_admission_ = 0;
  std::uint64_t journal_flushed_ = 0;
  bool stopping_ = false;
  Stopwatch since_snapshot_;
  FrontEndOutcome outcome_;
};

}  // namespace qplex::svc

#endif  // QPLEX_SVC_FRONTEND_H_
