#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/events.h"

namespace qplex::obs {

namespace internal {

struct TraceNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_nanos = 0;
  std::vector<std::unique_ptr<TraceNode>> children;

  TraceNode* FindOrCreateChild(std::string_view child_name) {
    for (const auto& child : children) {
      if (child->name == child_name) {
        return child.get();
      }
    }
    children.push_back(std::make_unique<TraceNode>());
    children.back()->name = std::string(child_name);
    return children.back().get();
  }
};

/// The per-path aggregation of one job trace, owned by the trace's root span.
/// Not thread-safe by design: only the thread that opened the root reaches it.
struct JobTrace {
  struct PathTotal {
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::int64_t count = 0;
    double total_ms = 0;
  };

  void Record(const std::string& path, std::uint64_t span_id,
              std::uint64_t parent_id, double elapsed_ms) {
    PathTotal& total = paths[path];
    total = {span_id, parent_id, total.count + 1, total.total_ms + elapsed_ms};
  }

  std::string trace_hex;
  std::map<std::string, PathTotal> paths;  // path-sorted: a stable flush order
};

namespace {

/// Innermost open span on this thread; each span links to its enclosing one.
thread_local TraceSpan* tls_top = nullptr;

/// The root of every job trace; racers hang off it.
constexpr std::string_view kJobSpan = "job";

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t FnvExtend(std::uint64_t hash, std::string_view text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Hash of "<trace hex>:<path>", without building the joined string.
std::uint64_t SpanId(std::string_view trace_hex, std::string_view path) {
  return FnvExtend(FnvExtend(FnvExtend(kFnvOffset, trace_hex), ":"), path);
}

void AppendElement(std::string_view name, std::string_view qualifier,
                   std::string* path) {
  path->push_back('/');
  path->append(name);
  if (!qualifier.empty()) {
    path->push_back('@');
    path->append(qualifier);
  }
}

void EmitSpanEvent(const std::string& trace_hex, const std::string& path,
                   std::uint64_t span_id, std::uint64_t parent_id,
                   std::int64_t count, double total_ms) {
  const std::size_t slash = path.rfind('/');
  EmitEvent(EventLevel::kDebug, "trace", "span",
            {{"trace", JsonValue(trace_hex)},
             {"span", JsonValue(IdHex(span_id))},
             {"parent", JsonValue(IdHex(parent_id))},
             {"name", JsonValue(slash == std::string::npos
                                    ? path
                                    : path.substr(slash + 1))},
             {"path", JsonValue(path)},
             {"count", JsonValue(count)},
             {"dur_ms", JsonValue(total_ms)}});
}

TraceNodeSnapshot SnapshotNode(const TraceNode& node) {
  TraceNodeSnapshot snapshot;
  snapshot.name = node.name;
  snapshot.count = node.count;
  snapshot.total_nanos = node.total_nanos;
  snapshot.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    snapshot.children.push_back(SnapshotNode(*child));
  }
  return snapshot;
}

}  // namespace

}  // namespace internal

std::uint64_t Fnv1a64(std::string_view text) {
  return internal::FnvExtend(internal::kFnvOffset, text);
}

std::string IdHex(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return hex;
}

std::uint64_t DeriveTraceId(std::string_view label, std::int64_t job_id) {
  std::string key = "qplex-trace:";
  key.append(label);
  key.push_back('#');
  key.append(std::to_string(job_id));
  return Fnv1a64(key);
}

std::int64_t TraceNodeSnapshot::SelfNanos() const {
  std::int64_t children_nanos = 0;
  for (const TraceNodeSnapshot& child : children) {
    children_nanos += child.total_nanos;
  }
  return std::max<std::int64_t>(0, total_nanos - children_nanos);
}

Tracer::Tracer() : root_(std::make_unique<internal::TraceNode>()) {
  root_->name = "root";
}

Tracer::~Tracer() = default;

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  root_->children.clear();
  root_->count = 0;
  root_->total_nanos = 0;
}

TraceNodeSnapshot Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return internal::SnapshotNode(*root_);
}

internal::TraceNode* Tracer::OpenSpan(internal::TraceNode* parent,
                                      std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return (parent != nullptr ? parent : root_.get())->FindOrCreateChild(name);
}

void Tracer::CloseSpan(internal::TraceNode* node,
                       std::int64_t elapsed_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++node->count;
  node->total_nanos += elapsed_nanos;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

TraceSpan::TraceSpan(std::string_view name)
    : TraceSpan(kRequestOnly, name) {
  node_ = Tracer::Global().OpenSpan(tree_, name);
  tree_ = node_;
}

TraceSpan::TraceSpan(RequestOnlyTag, std::string_view name,
                     std::string_view qualifier)
    : parent_(internal::tls_top) {
  internal::tls_top = this;
  if (parent_ == nullptr) {
    return;
  }
  tree_ = parent_->tree_;
  if (parent_->trace_ != nullptr) {
    Join(parent_->trace_, parent_->path_, parent_->span_id_, name, qualifier);
  }
}

TraceSpan::TraceSpan(std::uint64_t trace_id, std::string_view name,
                     std::string_view qualifier)
    : TraceSpan(kRequestOnly, name) {
  if (EventsEnabled()) {
    owned_trace_ = std::make_unique<internal::JobTrace>();
    owned_trace_->trace_hex = IdHex(trace_id);
    Join(owned_trace_.get(), internal::kJobSpan,
         internal::SpanId(owned_trace_->trace_hex, internal::kJobSpan), name,
         qualifier);
  }
}

void TraceSpan::Join(internal::JobTrace* trace, std::string_view parent_path,
                     std::uint64_t parent_id, std::string_view name,
                     std::string_view qualifier) {
  trace_ = trace;
  parent_id_ = parent_id;
  path_ = parent_path;
  internal::AppendElement(name, qualifier, &path_);
  span_id_ = internal::SpanId(trace_->trace_hex, path_);
}

TraceSpan::~TraceSpan() {
  const std::int64_t elapsed_nanos = watch_.ElapsedNanos();
  if (node_ != nullptr) {
    Tracer::Global().CloseSpan(node_, elapsed_nanos);
  }
  if (trace_ != nullptr) {
    trace_->Record(path_, span_id_, parent_id_, elapsed_nanos * 1e-6);
  }
  internal::tls_top = parent_;
  if (owned_trace_ != nullptr) {
    for (const auto& [path, total] : owned_trace_->paths) {
      internal::EmitSpanEvent(owned_trace_->trace_hex, path, total.span_id,
                              total.parent_id, total.count, total.total_ms);
    }
  }
}

void RecordSpan(std::string_view name, std::string_view qualifier,
                double elapsed_ms) {
  const TraceSpan* current = internal::tls_top;
  if (current == nullptr || current->trace_ == nullptr) {
    return;
  }
  std::string path = current->path_;
  internal::AppendElement(name, qualifier, &path);
  current->trace_->Record(path,
                          internal::SpanId(current->trace_->trace_hex, path),
                          current->span_id_, elapsed_ms);
}

std::string_view CurrentTraceToken() {
  const TraceSpan* current = internal::tls_top;
  return current == nullptr || current->trace_ == nullptr
             ? std::string_view{}
             : std::string_view(current->trace_->trace_hex);
}

std::string_view CurrentSpanPath() {
  const TraceSpan* current = internal::tls_top;
  return current == nullptr ? std::string_view{}
                            : std::string_view(current->path_);
}

void EmitJobSpan(std::uint64_t trace_id, double total_ms) {
  const std::string trace_hex = IdHex(trace_id);
  const std::string path(internal::kJobSpan);
  internal::EmitSpanEvent(trace_hex, path, internal::SpanId(trace_hex, path),
                          0, 1, total_ms);
  if (EventSink* sink = EventSink::Global(); sink != nullptr) {
    sink->ForgetProgressScope(trace_hex);
  }
}

namespace {

void FormatNode(const TraceNodeSnapshot& node, int depth, std::string* out) {
  char line[160];
  std::snprintf(line, sizeof(line), "%*s%s  count=%lld  total=%.3fms",
                depth * 2, "", node.name.c_str(),
                static_cast<long long>(node.count),
                node.total_nanos * 1e-6);
  *out += line;
  if (!node.children.empty()) {
    std::snprintf(line, sizeof(line), "  self=%.3fms",
                  node.SelfNanos() * 1e-6);
    *out += line;
  }
  out->push_back('\n');
  for (const TraceNodeSnapshot& child : node.children) {
    FormatNode(child, depth + 1, out);
  }
}

}  // namespace

std::string FormatTraceTree(const TraceNodeSnapshot& root) {
  std::string out;
  for (const TraceNodeSnapshot& child : root.children) {
    FormatNode(child, 0, &out);
  }
  if (out.empty()) {
    out = "(no spans recorded)\n";
  }
  return out;
}

}  // namespace qplex::obs
