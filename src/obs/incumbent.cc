#include "obs/incumbent.h"

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex::obs {

IncumbentReporter::IncumbentReporter(std::string_view solver)
    : enabled_(EventsEnabled()) {
  if (!enabled_) {
    return;
  }
  solver_ = std::string(solver);
  trace_ = std::string(CurrentTraceToken());
  path_ = std::string(CurrentSpanPath());
  payload_counter_ =
      &MetricsRegistry::Global().GetCounter("obs.events.incumbent_payloads");
}

void IncumbentReporter::Report(int size, std::int64_t work) {
  if (size <= best_size_) {
    return;
  }
  best_size_ = size;
  ++improvements_;
  if (enabled_) {
    Emit(size, work, /*has_value=*/false, 0);
  }
}

void IncumbentReporter::Report(int size, std::int64_t work, double value) {
  if (size <= best_size_) {
    return;
  }
  best_size_ = size;
  ++improvements_;
  if (enabled_) {
    Emit(size, work, /*has_value=*/true, value);
  }
}

void IncumbentReporter::Emit(int size, std::int64_t work, bool has_value,
                             double value) {
  payload_counter_->Increment();
  const double elapsed_ms = watch_.ElapsedMillis();
  // A job trace yields both trace and path; outside any trace (plain CLI
  // solves) both are omitted. Branches keep Emit's initializer-list API.
  if (path_.empty()) {
    if (has_value) {
      EmitEvent(EventLevel::kInfo, solver_, "incumbent",
                {{"size", size},
                 {"work", work},
                 {"improvement", improvements_},
                 {"value", value},
                 {"elapsed_ms", elapsed_ms}});
    } else {
      EmitEvent(EventLevel::kInfo, solver_, "incumbent",
                {{"size", size},
                 {"work", work},
                 {"improvement", improvements_},
                 {"elapsed_ms", elapsed_ms}});
    }
    return;
  }
  if (has_value) {
    EmitEvent(EventLevel::kInfo, solver_, "incumbent",
              {{"trace", trace_},
               {"path", path_},
               {"size", size},
               {"work", work},
               {"improvement", improvements_},
               {"value", value},
               {"elapsed_ms", elapsed_ms}});
  } else {
    EmitEvent(EventLevel::kInfo, solver_, "incumbent",
              {{"trace", trace_},
               {"path", path_},
               {"size", size},
               {"work", work},
               {"improvement", improvements_},
               {"elapsed_ms", elapsed_ms}});
  }
}

void IncumbentReporter::ReportBound(double bound, std::int64_t work) {
  if (has_bound_ && bound == last_bound_) {
    return;
  }
  has_bound_ = true;
  last_bound_ = bound;
  ++bound_updates_;
  if (!enabled_) {
    return;
  }
  payload_counter_->Increment();
  const double elapsed_ms = watch_.ElapsedMillis();
  if (path_.empty()) {
    EmitEvent(EventLevel::kInfo, solver_, "bound",
              {{"bound", bound},
               {"work", work},
               {"update", bound_updates_},
               {"elapsed_ms", elapsed_ms}});
  } else {
    EmitEvent(EventLevel::kInfo, solver_, "bound",
              {{"trace", trace_},
               {"path", path_},
               {"bound", bound},
               {"work", work},
               {"update", bound_updates_},
               {"elapsed_ms", elapsed_ms}});
  }
}

}  // namespace qplex::obs
