#include "obs/events.h"

#include <fstream>
#include <iostream>

namespace qplex::obs {
namespace {

std::atomic<EventSink*> g_global_sink{nullptr};

/// Process-wide sequence stamp. One counter across every sink instance, so a
/// merged multi-sink JSONL stream still sorts into the true emission order
/// even when ts_ms ties at millisecond resolution.
std::atomic<std::int64_t> g_seq{0};

}  // namespace

std::string_view EventLevelName(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarn:
      return "warn";
  }
  return "info";
}

EventSink::EventSink(std::ostream* stream, std::unique_ptr<std::ostream> owned,
                     int progress_interval_ms)
    : stream_(stream),
      owned_(std::move(owned)),
      progress_interval_ms_(progress_interval_ms) {}

EventSink::~EventSink() {
  std::lock_guard<std::mutex> lock(mutex_);
  stream_->flush();
}

Result<std::unique_ptr<EventSink>> EventSink::Open(const std::string& path,
                                                   int progress_interval_ms) {
  if (progress_interval_ms < 1) {
    return Status::InvalidArgument("progress interval must be >= 1 ms, got " +
                                   std::to_string(progress_interval_ms));
  }
  if (path == "-") {
    return std::unique_ptr<EventSink>(
        new EventSink(&std::cout, nullptr, progress_interval_ms));
  }
  auto file = std::make_unique<std::ofstream>(path,
                                              std::ios::out | std::ios::trunc);
  if (!*file) {
    return Status::InvalidArgument("cannot open event stream for writing: " +
                                   path);
  }
  std::ostream* stream = file.get();
  return std::unique_ptr<EventSink>(
      new EventSink(stream, std::move(file), progress_interval_ms));
}

void EventSink::EmitLocked(
    EventLevel level, std::string_view solver, std::string_view event,
    std::initializer_list<std::pair<std::string_view, JsonValue>> fields,
    std::string_view trace) {
  JsonValue line = JsonValue::Object();
  line.Set("ts_ms", since_open_.ElapsedMillis());
  line.Set("seq", g_seq.fetch_add(1, std::memory_order_relaxed));
  line.Set("level", std::string(EventLevelName(level)));
  line.Set("solver", std::string(solver));
  line.Set("event", std::string(event));
  if (!trace.empty()) {
    line.Set("trace", std::string(trace));
  }
  for (const auto& [key, value] : fields) {
    line.Set(std::string(key), value);
  }
  *stream_ << line.Dump() << "\n";
  stream_->flush();
  lines_written_.fetch_add(1, std::memory_order_relaxed);
}

void EventSink::Emit(
    EventLevel level, std::string_view solver, std::string_view event,
    std::initializer_list<std::pair<std::string_view, JsonValue>> fields) {
  std::lock_guard<std::mutex> lock(mutex_);
  EmitLocked(level, solver, event, fields);
}

namespace {

std::string ProgressKey(std::string_view solver, std::string_view event) {
  return std::string(solver) + "/" + std::string(event);
}

}  // namespace

bool EventSink::ProgressDue(std::string_view solver, std::string_view event,
                            std::string_view scope) const {
  const double now_ms = since_open_.ElapsedMillis();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto times = progress_last_ms_.find(scope);
  if (times == progress_last_ms_.end()) {
    return true;
  }
  const auto it = times->second.find(ProgressKey(solver, event));
  return it == times->second.end() ||
         now_ms - it->second >= progress_interval_ms_;
}

bool EventSink::EmitProgress(
    std::string_view solver, std::string_view event,
    std::initializer_list<std::pair<std::string_view, JsonValue>> fields,
    std::string_view scope) {
  const double now_ms = since_open_.ElapsedMillis();
  std::lock_guard<std::mutex> lock(mutex_);
  ProgressTimes& times = progress_last_ms_[std::string(scope)];
  std::string key = ProgressKey(solver, event);
  const auto it = times.find(key);
  if (it != times.end() && now_ms - it->second < progress_interval_ms_) {
    return false;
  }
  times[std::move(key)] = now_ms;
  EmitLocked(EventLevel::kInfo, solver, event, fields, scope);
  return true;
}

void EventSink::ForgetProgressScope(std::string_view scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto times = progress_last_ms_.find(scope);
  if (times != progress_last_ms_.end()) {
    progress_last_ms_.erase(times);
  }
}

std::size_t EventSink::progress_key_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [scope, times] : progress_last_ms_) {
    count += times.size();
  }
  return count;
}

EventSink* EventSink::Global() {
  return g_global_sink.load(std::memory_order_acquire);
}

void EventSink::InstallGlobal(EventSink* sink) {
  g_global_sink.store(sink, std::memory_order_release);
}

void EmitEvent(
    EventLevel level, std::string_view solver, std::string_view event,
    std::initializer_list<std::pair<std::string_view, JsonValue>> fields) {
  EventSink* sink = EventSink::Global();
  if (sink != nullptr) {
    sink->Emit(level, solver, event, fields);
  }
}

}  // namespace qplex::obs
