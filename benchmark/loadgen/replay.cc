#include "loadgen/replay.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "net/frame.h"
#include "obs/json.h"
#include "svc/graph_hash.h"
#include "svc/request.h"

namespace qplex::bench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Appends a span covering its own lifetime to `spans`.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* spans, const char* name, std::uint64_t request)
      : spans_(spans) {
    span_.name = name;
    span_.request = request;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    span_.end_ns = NowNs();
    spans_->push_back(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* spans_;
  Span span_;
};

std::string Text(const obs::JsonValue& object, std::string_view key) {
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->AsString()
                                                : std::string();
}

double Number(const obs::JsonValue& object, std::string_view key) {
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->AsDouble() : 0;
}

bool Bool(const obs::JsonValue& object, std::string_view key) {
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr && value->is_bool() && value->AsBool();
}

/// The response the server rendered into `served`.
Result<svc::SolveResponse> ParseServedResponse(const std::string& served) {
  QPLEX_ASSIGN_OR_RETURN(const obs::JsonValue json,
                         obs::JsonValue::Parse(served));
  if (Text(json, "status") != "OK") {
    return Status::FailedPrecondition("the server answered " + served);
  }
  svc::SolveResponse response;
  response.backend = Text(json, "backend");
  response.solution.size = static_cast<int>(Number(json, "size"));
  std::istringstream members(Text(json, "members"));
  for (Vertex v = 0; members >> v;) {
    response.solution.members.push_back(v);
  }
  response.provably_optimal = Bool(json, "provably_optimal");
  response.attempts = static_cast<int>(Number(json, "attempts"));
  response.degraded_from = Text(json, "degraded_from");
  response.degradation_reason = Text(json, "degradation_reason");
  return response;
}

/// The layer a server span's self time is booked to (see ServedJob).
std::string LayerOf(const std::string& name, const std::string& path) {
  if (name == "qtkp.oracle_eval") {
    return "oracle.eval";
  }
  if (name == "qtkp.grover_search") {
    return "grover.sim";
  }
  if (name == "solve" && path.find("/racer@sa/") != std::string::npos) {
    return "qubo.build";
  }
  return name;
}

}  // namespace

Result<svc::SolveResponse> FrontReplay::Request(const Workload& workload,
                                                std::uint64_t index,
                                                const std::string& served) {
  QPLEX_ASSIGN_OR_RETURN(svc::SolveResponse response,
                         ParseServedResponse(served));
  const std::string wire = workload.Line(index) + "\n";
  std::string line;
  {
    ScopedSpan span(&spans_, "net.frame", index);
    net::FrameSplitter frames;
    QPLEX_RETURN_IF_ERROR(frames.Feed(wire));
    frames.Next(&line);
  }
  Result<svc::RequestSpec> parsed = Status::Internal("unparsed");
  {
    ScopedSpan span(&spans_, "svc.parse", index);
    parsed = svc::ParseRequestLine(line, 1);
  }
  QPLEX_RETURN_IF_ERROR(parsed.status());
  const svc::RequestSpec& spec = parsed.value();
  {
    // The scheduler keys each racer of a portfolio on its own.
    ScopedSpan span(&spans_, "svc.cache", index);
    const std::vector<std::string> backends =
        spec.backends.empty() ? std::vector<std::string>{spec.request.backend}
                              : spec.backends;
    for (const std::string& backend : backends) {
      const std::string key = svc::CacheKey(spec.request, backend);
      if (!cache_.Lookup(key).has_value()) {
        cache_.Insert(key, response);
      }
    }
  }
  std::string rendered;
  {
    ScopedSpan span(&spans_, "svc.render", index);
    rendered = svc::RenderResponseLine(spec.request.label, response);
  }
  if (rendered != served) {
    return Status::Internal("the replay renders\n  " + rendered +
                            "\nbut the server sent\n  " + served);
  }
  return response;
}

Result<ServerEvents> ReadServerEvents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read " + path);
  }
  struct SpanEvent {
    std::string parent;
    std::string name;
    std::string path;
    std::int64_t count = 0;
    double dur_ms = 0;
  };
  ServerEvents events;
  std::unordered_map<std::string, ServedJob> by_trace;
  std::unordered_map<std::string, std::string> label_of_trace;
  // trace -> span id -> the span; a span's lines are summed, as
  // obs::BuildTraceForest does for spans flushed more than once.
  std::unordered_map<std::string, std::map<std::string, SpanEvent>> spans;
  for (std::string line; std::getline(in, line);) {
    ++events.lines;
    events.bytes += static_cast<std::int64_t>(line.size()) + 1;
    Result<obs::JsonValue> parsed = obs::JsonValue::Parse(line);
    if (!parsed.ok()) {
      continue;
    }
    const obs::JsonValue& fields = parsed.value();
    const std::string event = Text(fields, "event");
    const std::string trace = Text(fields, "trace");
    if (event == "job_start") {
      label_of_trace[trace] = Text(fields, "label");
      by_trace[trace].num_vertices =
          static_cast<int>(Number(fields, "num_vertices"));
    } else if (event == "job_end") {
      by_trace[trace].queue_ms = Number(fields, "queue_seconds") * 1e3;
      by_trace[trace].attempt_ms = Number(fields, "wall_seconds") * 1e3;
    } else if (event == "span") {
      SpanEvent& span = spans[trace][Text(fields, "span")];
      span.parent = Text(fields, "parent");
      span.name = Text(fields, "name");
      span.path = Text(fields, "path");
      span.count += static_cast<std::int64_t>(Number(fields, "count"));
      span.dur_ms += Number(fields, "dur_ms");
    }
  }
  for (const auto& [trace, by_id] : spans) {
    ServedJob& job = by_trace[trace];
    std::unordered_map<std::string, double> children_ms;
    for (const auto& [id, span] : by_id) {
      children_ms[span.parent] += span.dur_ms;
    }
    for (const auto& [id, span] : by_id) {
      // Racers overlap, so a portfolio job's children can outlast it.
      const std::string layer = LayerOf(span.name, span.path);
      job.self_ms[layer] += std::max(0.0, span.dur_ms - children_ms[id]);
      job.calls[layer] += span.count;
      if (span.name == "job") {
        job.job_ms = span.dur_ms;
      } else if (span.name.rfind("racer@", 0) == 0) {
        job.racer_ms[span.name.substr(6)] = span.dur_ms;
      }
    }
  }
  for (auto& [trace, job] : by_trace) {
    events.jobs[label_of_trace[trace]] = std::move(job);
  }
  return events;
}

}  // namespace qplex::bench
