#include "svc/frontend.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "net/io.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"

namespace qplex::svc {
namespace {

/// The per-request error line for malformed requests, per-request submit
/// failures and shed load. Shares the "label"/"status" keys with
/// RenderResponseLine so clients parse one schema; a shed line adds the
/// measured retry_after_ms hint.
std::string RenderErrorLine(const std::string& label, const Status& status,
                            double retry_after_ms = 0) {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(status.code())));
  line.Set("error", status.message());
  if (retry_after_ms > 0) {
    line.Set("retry_after_ms", retry_after_ms);
  }
  return line.Dump() + "\n";
}

obs::MetricsRegistry& Metrics() { return obs::MetricsRegistry::Global(); }

}  // namespace

bool IsSkippedLine(std::string_view line) {
  const auto first = line.find_first_not_of(" \t\r");
  return first == std::string_view::npos || line[first] == '#';
}

Result<std::vector<RequestSpec>> LoadJobFile(const std::string& text,
                                             const SolverRegistry& registry,
                                             int queue_cap) {
  std::vector<RequestSpec> jobs;
  std::istringstream in(text);
  std::string line;
  for (int line_number = 1; std::getline(in, line); ++line_number) {
    if (IsSkippedLine(line)) {
      continue;
    }
    QPLEX_ASSIGN_OR_RETURN(RequestSpec spec,
                           ParseRequestLine(line, line_number));
    const std::string at = " (line " + std::to_string(line_number) + ")";
    if (spec.kind == RequestKind::kHealth) {
      return Status::InvalidArgument("health requests are socket-mode only" +
                                     at);
    }
    std::vector<std::string> backends = spec.backends;
    if (backends.empty()) {
      backends.push_back(spec.request.backend);
    }
    for (const std::string& name : backends) {
      if (registry.Get(name) == nullptr) {
        return Status::InvalidArgument("unknown backend: " + name + at);
      }
    }
    if (static_cast<int>(backends.size()) > queue_cap) {
      return Status::InvalidArgument(
          "job races " + std::to_string(backends.size()) +
          " backends but the admission queue holds " +
          std::to_string(queue_cap) + at);
    }
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

Status WritePromSnapshot(const std::string& path) {
  const std::string text = obs::RenderOpenMetrics(Metrics().Snapshot());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot open metrics file: " + tmp);
    }
    out << text;
    if (!out) {
      return Status::Internal("failed writing metrics file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("failed to move metrics file into place: " + path);
  }
  return Status::Ok();
}

FrontEnd::FrontEnd(JobScheduler* scheduler, std::ostream* journal,
                   FrontEndOptions options)
    : scheduler_(scheduler),
      journal_(journal),
      options_(std::move(options)),
      overload_({.target_delay_ms = options_.shed_target_ms}) {}

Status FrontEnd::Listen() {
  net::ServerOptions server_options;
  server_options.port = options_.listen_port;
  server_options.max_connections = options_.max_connections;
  server_options.idle_timeout_ms = options_.idle_timeout_ms;
  server_options.max_line_bytes = options_.max_line_bytes;
  server_options.busy_response = RenderErrorLine(
      "", Status::ResourceExhausted("server at max connections"));
  net::ServerCallbacks callbacks;
  callbacks.on_line = [this](std::uint64_t conn, std::string line) {
    OnLine(conn, std::move(line));
  };
  callbacks.on_close = [this](std::uint64_t conn) { OnClose(conn); };
  callbacks.on_protocol_error = [this](std::uint64_t conn,
                                       const Status& violation) {
    ++outcome_.malformed;
    server_->Send(conn, RenderErrorLine("", violation));
  };
  QPLEX_ASSIGN_OR_RETURN(
      server_, net::Server::Create(server_options, std::move(callbacks)));

  if (!options_.port_file.empty()) {
    std::ofstream port_out(options_.port_file, std::ios::trunc);
    port_out << server_->port() << "\n";
    if (!port_out) {
      return Status::Internal("cannot write port file: " + options_.port_file);
    }
  }
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "net", "listening",
                   {{"port", server_->port()},
                    {"max_connections", options_.max_connections},
                    {"idle_timeout_ms", options_.idle_timeout_ms}});
  }
  return Status::Ok();
}

void FrontEnd::AddJobs(std::vector<RequestSpec> jobs) {
  jobs_.insert(jobs_.end(), std::make_move_iterator(jobs.begin()),
               std::make_move_iterator(jobs.end()));
}

Result<FrontEndOutcome> FrontEnd::Run(const std::function<bool()>& stop) {
  while (true) {
    if (!stopping_ && stop()) {
      Stop();
    }
    SubmitBacklog();
    const bool sources_done =
        next_job_ == jobs_.size() && (server_ == nullptr || stopping_);
    if (sources_done && !Busy()) {
      break;
    }
    // 2 ms keeps completion-drain latency negligible against solve times
    // while jobs are in flight; an idle server parks in poll() for long
    // slices (interrupted early by signals or traffic either way), but never
    // past the next OpenMetrics snapshot.
    int timeout_ms = Busy() ? 2 : (stopping_ ? 10 : 200);
    if (options_.metrics_prom_interval_ms > 0) {
      timeout_ms = std::clamp(
          options_.metrics_prom_interval_ms -
              static_cast<int>(since_snapshot_.ElapsedMillis()),
          0, timeout_ms);
    }
    if (server_ != nullptr) {
      QPLEX_RETURN_IF_ERROR(server_->Poll(timeout_ms));
    } else {
      net::PollFds(nullptr, 0, timeout_ms);
    }
    SubmitBacklog();
    DrainCompletions();
    if (server_ != nullptr) {
      server_->FlushWritable();
    }
    if (options_.metrics_prom_interval_ms > 0 &&
        since_snapshot_.ElapsedMillis() >= options_.metrics_prom_interval_ms) {
      (void)WritePromSnapshot(options_.metrics_prom);  // retried next interval
      since_snapshot_.Restart();
    }
  }
  if (server_ != nullptr) {
    server_->DrainWrites(/*timeout_ms=*/2000);
  }
  return outcome_;
}

void FrontEnd::Stop() {
  stopping_ = true;
  outcome_.interrupted = true;
  if (!jobs_.empty()) {
    // A job file can be re-read: cancel its in-flight jobs and stop
    // journaling, so the WAL stays a clean prefix and a resumed run
    // recomputes the rest with full budgets.
    next_job_ = jobs_.size();
    std::erase_if(backlog_, [](const Pending& pending) {
      return pending.source == kJobFile;
    });
    for (const auto& [id, route] : outstanding_) {
      if (route.source == kJobFile) {
        scheduler_->Cancel(id);
      }
    }
    journal_ = nullptr;
  }
  if (server_ != nullptr) {
    // A connection cannot be re-read: no new connections and no reads beyond
    // what is buffered, but its admitted jobs run to completion and every
    // response flushes before Run() returns.
    server_->StopAccepting();
    if (obs::EventsEnabled()) {
      obs::EmitEvent(
          obs::EventLevel::kInfo, "net", "draining",
          {{"outstanding", static_cast<std::int64_t>(outstanding_.size())},
           {"backlog", static_cast<std::int64_t>(backlog_.size())}});
    }
  }
}

void FrontEnd::OnLine(std::uint64_t conn, std::string line) {
  if (IsSkippedLine(line)) {
    return;
  }
  const int line_number = ++conn_lines_[conn];
  ++outcome_.requests;
  Metrics().GetCounter("net.requests.received").Increment();
  Result<RequestSpec> parsed = ParseRequestLine(line, line_number);
  if (!parsed.ok()) {
    ++outcome_.malformed;
    Metrics().GetCounter("net.requests.malformed").Increment();
    server_->Send(conn, RenderErrorLine("", parsed.status()));
    return;
  }
  const std::string& label = parsed.value().request.label;
  if (parsed.value().kind == RequestKind::kHealth) {
    // Health probes bypass admission entirely: they are how a client finds
    // out *why* it is being shed. Answered in place, never journaled.
    server_->Send(conn, RenderHealthLine(label));
    ++outcome_.responses;
    return;
  }
  // Scheduler backpressure composes outward: a full admission queue parks
  // requests in the backlog; once the backlog itself is a queue-capacity
  // deep, or the smoothed queue delay has run past the shed target, further
  // requests are shed with a ResourceExhausted carrying a retry_after_ms
  // hint instead of buffering without bound.
  const resilience::OverloadController::Decision admit =
      overload_.Admit(backlog_.size(),
                      static_cast<std::size_t>(options_.queue_cap),
                      scheduler_->OpenBreakerCount());
  if (!admit.admit) {
    ++outcome_.shed;
    Metrics().GetCounter("net.requests.shed").Increment();
    const std::string reason = admit.reason;
    const std::string message =
        reason == "backlog_full"
            ? "admission queue and backlog full"
            : "queue delay over shed target; retry later";
    server_->Send(conn,
                  RenderErrorLine(label, Status::ResourceExhausted(message),
                                  admit.retry_after_ms));
    if (obs::EventsEnabled()) {
      obs::EmitEvent(
          obs::EventLevel::kWarn, "svc", "admission_shed",
          {{"label", label},
           {"reason", reason},
           {"backlog", static_cast<std::int64_t>(backlog_.size())}});
    }
    return;
  }
  backlog_.push_back(Pending{conn, std::move(parsed).value()});
  SubmitBacklog();
}

void FrontEnd::OnClose(std::uint64_t conn) {
  conn_lines_.erase(conn);
  conn_outstanding_.erase(conn);  // the server forgot the pin with the fd
  // Jobs already admitted for this connection keep running and keep their
  // journal slot (the WAL narrates admitted work, not deliveries); their
  // responses are dropped by Send() and counted.
  if (obs::EventsEnabled()) {
    obs::EmitEvent(obs::EventLevel::kInfo, "net", "conn_close",
                   {{"conn", static_cast<std::int64_t>(conn)}});
  }
}

void FrontEnd::SubmitBacklog() {
  while (true) {
    // The job file is pulled, not pushed: a line enters the backlog only
    // while there is room, so a re-readable source is never shed.
    if (next_job_ < jobs_.size() &&
        backlog_.size() < static_cast<std::size_t>(options_.queue_cap)) {
      backlog_.push_back(Pending{kJobFile, std::move(jobs_[next_job_++])});
    }
    if (backlog_.empty()) {
      return;
    }
    Pending& next = backlog_.front();
    Result<JobId> submitted =
        next.spec.backends.empty()
            ? scheduler_->Submit(next.spec.request)
            : scheduler_->SubmitPortfolio(next.spec.request,
                                          next.spec.backends);
    if (!submitted.ok()) {
      if (submitted.status().code() == StatusCode::kResourceExhausted) {
        return;  // queue full: retry after the next completion drains
      }
      // Unknown backend and friends: a per-request error, not a server
      // fault.
      if (next.source != kJobFile) {
        server_->Send(next.source, RenderErrorLine(next.spec.request.label,
                                                   submitted.status()));
      }
      ++outcome_.failures;
      backlog_.pop_front();
      continue;
    }
    outstanding_.emplace(submitted.value(),
                         Route{next.source, next.spec.request.label,
                               next_admission_++});
    // Pin the connection against the idle timeout while it has admitted
    // work in the scheduler: its inbound side may go silent for the whole
    // solve, and idling it out would drop the response it is owed.
    if (next.source != kJobFile && ++conn_outstanding_[next.source] == 1) {
      server_->SetIdleExempt(next.source, true);
    }
    Metrics()
        .GetGauge("net.requests.outstanding_max")
        .SetMax(static_cast<double>(outstanding_.size()));
    backlog_.pop_front();
  }
}

void FrontEnd::DrainCompletions() {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    SolveResponse response;
    if (!scheduler_->TryWait(it->first, &response)) {
      ++it;
      continue;
    }
    const Route route = std::move(it->second);
    it = outstanding_.erase(it);
    if (auto pinned = conn_outstanding_.find(route.source);
        pinned != conn_outstanding_.end() && --pinned->second == 0) {
      conn_outstanding_.erase(pinned);
      server_->SetIdleExempt(route.source, false);
    }
    overload_.RecordQueueDelay(response.metrics.queue_seconds * 1e3);
    if (!response.status.ok()) {
      ++outcome_.failures;
    }
    const std::string line = RenderResponseLine(route.label, response) + "\n";
    if (route.source != kJobFile) {  // the job file has nobody to answer
      ++outcome_.responses;
      server_->Send(route.source, line);
    }
    if (journal_ != nullptr) {
      // Journal in admission order, not completion order: park the line in
      // the reorder buffer until every earlier admission has landed.
      journal_lines_.emplace(route.admission, line);
      while (!journal_lines_.empty() &&
             journal_lines_.begin()->first == journal_flushed_) {
        *journal_ << journal_lines_.begin()->second << std::flush;
        journal_lines_.erase(journal_lines_.begin());
        ++journal_flushed_;
      }
    }
  }
}

/// The in-band health response ({"type": "health"}): breaker states,
/// queue/backlog depths, shed counters and drain status, rendered from live
/// state at answer time. Schema documented in DESIGN.md section 15.
std::string FrontEnd::RenderHealthLine(const std::string& label) const {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(StatusCode::kOk)));
  line.Set("type", "health");
  line.Set("draining", stopping_);
  line.Set("backlog", static_cast<std::int64_t>(backlog_.size()));
  line.Set("outstanding", static_cast<std::int64_t>(outstanding_.size()));
  line.Set("queue_depth", static_cast<std::int64_t>(scheduler_->QueueDepth()));
  line.Set("requests", outcome_.requests);
  line.Set("responses", outcome_.responses);
  line.Set("shed", outcome_.shed);
  line.Set("delay_ewma_ms", overload_.delay_ewma_ms());
  line.Set("watchdog_kills", scheduler_->WatchdogKills());
  line.Set("breakers_enabled", scheduler_->breakers_enabled());
  line.Set("open_breakers", scheduler_->OpenBreakerCount());
  obs::JsonValue breakers = obs::JsonValue::Array();
  for (const resilience::BreakerSnapshot& snapshot :
       scheduler_->BreakerSnapshots()) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("backend", snapshot.backend);
    entry.Set("state",
              std::string(resilience::BreakerStateName(snapshot.state)));
    entry.Set("consecutive_failures", snapshot.consecutive_failures);
    entry.Set("cooldown_remaining", snapshot.cooldown_remaining);
    entry.Set("opened", snapshot.opened);
    entry.Set("closed", snapshot.closed);
    entry.Set("short_circuits", snapshot.short_circuits);
    entry.Set("probes", snapshot.probes);
    breakers.Append(std::move(entry));
  }
  line.Set("breakers", std::move(breakers));
  return line.Dump() + "\n";
}

}  // namespace qplex::svc
