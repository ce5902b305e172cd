// Tests for the observability layer: metric semantics, span nesting, JSON
// round-trips and thread-safety of concurrent recording.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/analysis.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "scratch_dir.h"

namespace qplex::obs {
namespace {

// --- Counter / Gauge ---------------------------------------------------------

TEST(CounterTest, AddIncrementReset) {
  Counter counter;
  EXPECT_EQ(counter.Get(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Get(), 42);
  counter.Reset();
  EXPECT_EQ(counter.Get(), 0);
}

TEST(GaugeTest, TracksLastValueAndMax) {
  Gauge gauge;
  gauge.Set(3.5);
  gauge.Set(-1.0);
  EXPECT_DOUBLE_EQ(gauge.Get(), -1.0);
  EXPECT_DOUBLE_EQ(gauge.Max(), 3.5);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Get(), 0.0);
  gauge.Set(-7.0);
  // After a reset the first Set seeds the max, even if negative.
  EXPECT_DOUBLE_EQ(gauge.Max(), -7.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(2.0);
  histogram.Record(9.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.sum, 12.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 9.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 4.0);
}

TEST(HistogramTest, LogScaleBucketing) {
  // Values in the same binary octave share a bucket; different octaves don't.
  EXPECT_EQ(Histogram::BucketIndex(2.0), Histogram::BucketIndex(3.9));
  EXPECT_NE(Histogram::BucketIndex(2.0), Histogram::BucketIndex(4.0));
  // The bucket's lower bound is at most the value it holds.
  for (double value : {0.001, 0.5, 1.0, 7.0, 1e6}) {
    const int index = Histogram::BucketIndex(value);
    EXPECT_LE(Histogram::BucketLowerBound(index), value) << value;
  }
  // Non-positive and tiny values are clamped into the first bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  // Huge values are clamped into the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, SnapshotListsOnlyNonEmptyBuckets) {
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(1.5);
  histogram.Record(1024.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.buckets.size(), 2u);
  EXPECT_EQ(snapshot.buckets[0].second, 2);
  EXPECT_EQ(snapshot.buckets[1].second, 1);
  EXPECT_DOUBLE_EQ(snapshot.buckets[0].first, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.buckets[1].first, 1024.0);
}

TEST(HistogramTest, PercentilesOfEmptyHistogramAreZero) {
  const HistogramSnapshot snapshot = Histogram().Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.P50(), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.P90(), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.P99(), 0.0);
}

TEST(HistogramTest, PercentilesOfSingleValueAreThatValue) {
  Histogram histogram;
  histogram.Record(42.0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.P50(), 42.0);
  EXPECT_DOUBLE_EQ(snapshot.P90(), 42.0);
  EXPECT_DOUBLE_EQ(snapshot.P99(), 42.0);
}

TEST(HistogramTest, PercentilesAreOrderedAndBracketedByMinMax) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  const double p50 = snapshot.P50();
  const double p90 = snapshot.P90();
  const double p99 = snapshot.P99();
  EXPECT_LE(snapshot.min, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, snapshot.max);
  // Log-bucket interpolation is coarse (one binary octave per bucket), so
  // only sanity-bound the estimates: within a factor of two of the truth.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 495.0);
}

// --- Series ------------------------------------------------------------------

TEST(SeriesTest, AppendAndValues) {
  Series series;
  series.Append(1);
  series.Append(2);
  series.Append(3);
  EXPECT_EQ(series.Values(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(series.TotalAppends(), 3);
  EXPECT_EQ(series.Stride(), 1);
}

TEST(SeriesTest, DecimatesAtCapacity) {
  Series series(/*capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    series.Append(i);
  }
  EXPECT_EQ(series.TotalAppends(), 100);
  EXPECT_GT(series.Stride(), 1);
  const std::vector<double> values = series.Values();
  ASSERT_LE(values.size(), 8u);
  ASSERT_GE(values.size(), 2u);
  // The sketch stays uniformly spaced and in order.
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

// --- Registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Get(), 5);
}

TEST(MetricsRegistryTest, ResetKeepsReferencesValid) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  Gauge& gauge = registry.GetGauge("g");
  counter.Add(3);
  gauge.Set(1.5);
  registry.Reset();
  EXPECT_EQ(counter.Get(), 0);
  EXPECT_DOUBLE_EQ(gauge.Get(), 0.0);
  counter.Increment();  // the pre-Reset reference still records
  EXPECT_EQ(registry.GetCounter("c").Get(), 1);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta").Add(1);
  registry.GetCounter("alpha").Add(2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "zeta");
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("shared.counter");
      Histogram& histogram = registry.GetHistogram("shared.histogram");
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Increment();
        histogram.Record(1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("shared.counter").Get(),
            kThreads * kOpsPerThread);
  const HistogramSnapshot snapshot =
      registry.GetHistogram("shared.histogram").Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kOpsPerThread);
  EXPECT_DOUBLE_EQ(snapshot.sum, kThreads * kOpsPerThread);
}

// --- Tracing -----------------------------------------------------------------

TEST(TraceTest, SpansNestAndMerge) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  for (int i = 0; i < 3; ++i) {
    TraceSpan outer("solve");
    {
      TraceSpan inner("probe");
    }
    {
      TraceSpan inner("probe");
    }
  }
  const TraceNodeSnapshot root = tracer.Snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  const TraceNodeSnapshot& solve = root.children[0];
  EXPECT_EQ(solve.name, "solve");
  EXPECT_EQ(solve.count, 3);
  ASSERT_EQ(solve.children.size(), 1u);  // same-name spans merged
  EXPECT_EQ(solve.children[0].name, "probe");
  EXPECT_EQ(solve.children[0].count, 6);
  // Inclusive time: parent covers its children.
  EXPECT_GE(solve.total_nanos, solve.children[0].total_nanos);
  EXPECT_GE(solve.SelfNanos(), 0);
}

TEST(TraceTest, SiblingSpansStaySiblings) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  {
    TraceSpan a("a");
  }
  {
    TraceSpan b("b");
  }
  const TraceNodeSnapshot root = tracer.Snapshot();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "a");
  EXPECT_EQ(root.children[1].name, "b");
}

TEST(TraceTest, ResetDropsSpans) {
  Tracer& tracer = Tracer::Global();
  {
    TraceSpan span("x");
  }
  tracer.Reset();
  EXPECT_TRUE(tracer.Snapshot().children.empty());
}

TEST(TraceTest, FormatTraceTreeMentionsEverySpan) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  const std::string text = FormatTraceTree(tracer.Snapshot());
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("inner"), std::string::npos);
}

TEST(TraceTest, ThreadsRecordIndependentStacks) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        TraceSpan outer("work");
        TraceSpan inner("step");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const TraceNodeSnapshot root = tracer.Snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].count, 400);
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].count, 400);
}

// --- JSON --------------------------------------------------------------------

TEST(JsonTest, DumpParsesBack) {
  JsonValue object = JsonValue::Object();
  object.Set("name", "qplex");
  object.Set("count", std::int64_t{9007199254740993});  // > 2^53: int-exact
  object.Set("ratio", 0.1);
  object.Set("flag", true);
  object.Set("nothing", JsonValue());
  JsonValue array = JsonValue::Array();
  array.Append(1);
  array.Append(2.5);
  array.Append("three");
  object.Set("list", std::move(array));

  for (int indent : {-1, 0, 2}) {
    const std::string text = object.Dump(indent);
    const Result<JsonValue> parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << text;
    const JsonValue& value = parsed.value();
    EXPECT_EQ(value.Find("name")->AsString(), "qplex");
    EXPECT_EQ(value.Find("count")->AsInt(), 9007199254740993);
    EXPECT_DOUBLE_EQ(value.Find("ratio")->AsDouble(), 0.1);
    EXPECT_TRUE(value.Find("flag")->AsBool());
    EXPECT_TRUE(value.Find("nothing")->is_null());
    ASSERT_EQ(value.Find("list")->size(), 3u);
    EXPECT_EQ(value.Find("list")->at(0).AsInt(), 1);
    EXPECT_DOUBLE_EQ(value.Find("list")->at(1).AsDouble(), 2.5);
    EXPECT_EQ(value.Find("list")->at(2).AsString(), "three");
  }
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  const std::string text = JsonValue("a\"b\\c\n\t\x01").Dump();
  const Result<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().AsString(), "a\"b\\c\n\t\x01");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("'single'").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue object = JsonValue::Object();
  object.Set("z", 1);
  object.Set("a", 2);
  object.Set("m", 3);
  object.Set("z", 4);  // replace keeps position
  ASSERT_EQ(object.members().size(), 3u);
  EXPECT_EQ(object.members()[0].first, "z");
  EXPECT_EQ(object.members()[0].second.AsInt(), 4);
  EXPECT_EQ(object.members()[1].first, "a");
  EXPECT_EQ(object.members()[2].first, "m");
}

TEST(JsonTest, Int64LimitsRoundTripExactly) {
  JsonValue object = JsonValue::Object();
  object.Set("min", std::numeric_limits<std::int64_t>::min());
  object.Set("max", std::numeric_limits<std::int64_t>::max());
  const Result<JsonValue> parsed = JsonValue::Parse(object.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().Find("min")->is_int());
  EXPECT_TRUE(parsed.value().Find("max")->is_int());
  EXPECT_EQ(parsed.value().Find("min")->AsInt(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parsed.value().Find("max")->AsInt(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(JsonTest, EscapeSequencesParse) {
  const Result<JsonValue> parsed =
      JsonValue::Parse("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().AsString(), "a\"b\\c/d\b\f\n\r\t");
  EXPECT_FALSE(JsonValue::Parse("\"\\x41\"").ok());  // unknown escape
  EXPECT_FALSE(JsonValue::Parse("\"dangling\\").ok());
}

TEST(JsonTest, DeepNestingRoundTripsBelowTheDepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 200; ++i) {
    deep += "]";
  }
  const Result<JsonValue> parsed = JsonValue::Parse(deep);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* cursor = &parsed.value();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(cursor->size(), 1u);
    cursor = &cursor->at(0);
  }
  EXPECT_EQ(cursor->AsInt(), 1);
}

TEST(JsonTest, RejectsNestingPastTheDepthLimit) {
  std::string deep;
  for (int i = 0; i < 400; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 400; ++i) {
    deep += "]";
  }
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, RejectsTrailingGarbageAfterAnyDocumentKind) {
  EXPECT_FALSE(JsonValue::Parse("42 7").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,2]]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1}{\"b\":2}").ok());
  EXPECT_FALSE(JsonValue::Parse("true false").ok());
  // Trailing whitespace is fine.
  EXPECT_TRUE(JsonValue::Parse("{\"a\": 1}  \n\t ").ok());
}

// --- Events ------------------------------------------------------------------

std::filesystem::path EventsTempPath(const std::string& name) {
  return ScratchDir() / name;
}

std::vector<JsonValue> ReadJsonlFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(in, line)) {
    Result<JsonValue> parsed = JsonValue::Parse(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    if (parsed.ok()) {
      lines.push_back(std::move(parsed).value());
    }
  }
  return lines;
}

TEST(EventSinkTest, EmitWritesParseableJsonlLines) {
  const std::filesystem::path path = EventsTempPath("emit.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  sink.value()->Emit(EventLevel::kInfo, "qmkp", "probe",
                     {{"threshold", 5}, {"feasible", true}});
  sink.value()->Emit(EventLevel::kWarn, "cli", "run_error",
                     {{"status", "boom"}});
  EXPECT_EQ(sink.value()->lines_written(), 2);
  sink.value().reset();

  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_GE(lines[0].Find("ts_ms")->AsDouble(), 0.0);
  EXPECT_EQ(lines[0].Find("level")->AsString(), "info");
  EXPECT_EQ(lines[0].Find("solver")->AsString(), "qmkp");
  EXPECT_EQ(lines[0].Find("event")->AsString(), "probe");
  EXPECT_EQ(lines[0].Find("threshold")->AsInt(), 5);
  EXPECT_TRUE(lines[0].Find("feasible")->AsBool());
  EXPECT_EQ(lines[1].Find("level")->AsString(), "warn");
  EXPECT_EQ(lines[1].Find("status")->AsString(), "boom");
}

TEST(EventSinkTest, OpenRejectsBadIntervalAndBadPath) {
  EXPECT_FALSE(EventSink::Open("-", 0).ok());
  EXPECT_FALSE(EventSink::Open("-", -3).ok());
  EXPECT_FALSE(EventSink::Open("/nonexistent_qplex_dir/events.jsonl").ok());
}

TEST(EventSinkTest, ProgressThrottlesPerKeyAcrossObjects) {
  const std::filesystem::path path = EventsTempPath("throttle.jsonl");
  // An hour-long interval: only the always-due first emission per key lands.
  Result<std::unique_ptr<EventSink>> sink =
      EventSink::Open(path.string(), 3'600'000);
  ASSERT_TRUE(sink.ok()) << sink.status();
  EXPECT_TRUE(sink.value()->ProgressDue("anneal.sa", "progress"));
  EXPECT_TRUE(sink.value()->EmitProgress("anneal.sa", "progress",
                                         {{"sweeps", 1}}));
  EXPECT_FALSE(sink.value()->ProgressDue("anneal.sa", "progress"));
  EXPECT_FALSE(sink.value()->EmitProgress("anneal.sa", "progress",
                                          {{"sweeps", 2}}));
  // Distinct keys throttle independently.
  EXPECT_TRUE(sink.value()->EmitProgress("anneal.pt", "progress",
                                         {{"sweeps", 3}}));
  EXPECT_EQ(sink.value()->lines_written(), 2);

  // Heartbeats delegate to the sink, so fresh objects with the same key
  // share the throttle (the hybrid solver makes many short-lived annealers).
  EventSink::InstallGlobal(sink.value().get());
  ProgressHeartbeat first("anneal.sa");
  ProgressHeartbeat second("anneal.sa");
  EXPECT_FALSE(first.Due());
  EXPECT_FALSE(second.Due());
  second.Emit({{"sweeps", 4}});  // dropped: not due
  EXPECT_EQ(sink.value()->lines_written(), 2);
  EventSink::InstallGlobal(nullptr);
}

TEST(EventSinkTest, GlobalInstallGatesEmitEvent) {
  EXPECT_FALSE(EventsEnabled());
  EmitEvent(EventLevel::kInfo, "nobody", "listening", {});  // no-op, no crash
  ProgressHeartbeat orphan("nobody");
  EXPECT_FALSE(orphan.Due());

  const std::filesystem::path path = EventsTempPath("global.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());
  EXPECT_TRUE(EventsEnabled());
  EmitEvent(EventLevel::kInfo, "cli", "run_start", {{"k", 2}});
  EventSink::InstallGlobal(nullptr);
  EXPECT_FALSE(EventsEnabled());
  EXPECT_EQ(sink.value()->lines_written(), 1);
}

// --- RunReport ---------------------------------------------------------------

TEST(RunReportTest, JsonRoundTripCarriesMetricsAndTrace) {
  MetricsRegistry registry;
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  registry.GetCounter("solver.calls").Add(7);
  registry.GetGauge("solver.best").Set(4.0);
  registry.GetHistogram("solver.cost").Record(100.0);
  registry.GetSeries("solver.trajectory").Append(1.0);
  registry.GetSeries("solver.trajectory").Append(2.0);
  {
    TraceSpan outer("solve");
    TraceSpan inner("probe");
  }

  RunReport report("unit_test");
  report.SetMeta("k", 2);
  report.SetMeta("dataset", "toy");
  report.Capture(registry, tracer);

  const Result<JsonValue> parsed = JsonValue::Parse(report.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& json = parsed.value();
  EXPECT_EQ(json.Find("report")->AsString(), "unit_test");
  EXPECT_EQ(json.Find("schema_version")->AsInt(), 1);
  EXPECT_EQ(json.Find("meta")->Find("k")->AsInt(), 2);
  EXPECT_EQ(json.Find("meta")->Find("dataset")->AsString(), "toy");
  EXPECT_EQ(json.Find("counters")->Find("solver.calls")->AsInt(), 7);
  EXPECT_DOUBLE_EQ(json.Find("gauges")->Find("solver.best")->AsDouble(), 4.0);
  const JsonValue* histogram = json.Find("histograms")->Find("solver.cost");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->Find("count")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(histogram->Find("mean")->AsDouble(), 100.0);
  // Percentiles of a one-value histogram clamp to that value.
  EXPECT_DOUBLE_EQ(histogram->Find("p50")->AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(histogram->Find("p90")->AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(histogram->Find("p99")->AsDouble(), 100.0);
  const JsonValue* series = json.Find("series")->Find("solver.trajectory");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_DOUBLE_EQ(series->at(1).AsDouble(), 2.0);
  const JsonValue* trace = json.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->Find("children")->size(), 1u);
  EXPECT_EQ(trace->Find("children")->at(0).Find("name")->AsString(), "solve");
}

// --- Request-scoped tracing --------------------------------------------------

TEST(ReqTraceTest, IdsAreStructuralAndDeterministic) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_EQ(IdHex(0), "0000000000000000");
  EXPECT_EQ(IdHex(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(IdHex(Fnv1a64("x")).size(), 16u);

  // Same (label, job) always derives the same trace id; either part matters.
  EXPECT_EQ(DeriveTraceId("g18", 7), DeriveTraceId("g18", 7));
  EXPECT_NE(DeriveTraceId("g18", 7), DeriveTraceId("g18", 8));
  EXPECT_NE(DeriveTraceId("g18", 7), DeriveTraceId("g19", 7));
}

TEST(ReqTraceTest, ChildSpansChainPathsAndParents) {
  const std::filesystem::path path = EventsTempPath("chain.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());

  const std::uint64_t trace = DeriveTraceId("job-a", 1);
  {
    TraceSpan racer(trace, "racer", "bs");
    TraceSpan attempt(kRequestOnly, "attempt", "1");
    EXPECT_EQ(CurrentSpanPath(), "job/racer@bs/attempt@1");
  }
  {
    // A second execution of the same racer, as after a retry.
    TraceSpan racer(trace, "racer", "bs");
    TraceSpan attempt(kRequestOnly, "attempt", "1");
  }
  {
    TraceSpan racer(DeriveTraceId("job-b", 2), "racer", "bs");
  }
  EmitJobSpan(trace, 5.0);
  EventSink::InstallGlobal(nullptr);

  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 6u);
  const std::string trace_hex = IdHex(trace);
  const std::string job_id = IdHex(Fnv1a64(trace_hex + ":job"));
  EXPECT_EQ(lines[0].Find("trace")->AsString(), trace_hex);
  EXPECT_EQ(lines[0].Find("name")->AsString(), "racer@bs");
  EXPECT_EQ(lines[0].Find("path")->AsString(), "job/racer@bs");
  EXPECT_EQ(lines[0].Find("parent")->AsString(), job_id);
  EXPECT_EQ(lines[0].Find("span")->AsString(),
            IdHex(Fnv1a64(trace_hex + ":job/racer@bs")));
  EXPECT_EQ(lines[1].Find("name")->AsString(), "attempt@1");
  EXPECT_EQ(lines[1].Find("path")->AsString(), "job/racer@bs/attempt@1");
  EXPECT_EQ(lines[1].Find("parent")->AsString(),
            lines[0].Find("span")->AsString());

  // Structural: recomputing the same path yields the same span id (this is
  // what merges retry attempts across worker threads).
  EXPECT_EQ(lines[2].Find("span")->AsString(),
            lines[0].Find("span")->AsString());
  EXPECT_EQ(lines[3].Find("span")->AsString(),
            lines[1].Find("span")->AsString());

  // Different traces never share span ids for the same path.
  EXPECT_EQ(lines[4].Find("path")->AsString(), "job/racer@bs");
  EXPECT_NE(lines[4].Find("span")->AsString(),
            lines[0].Find("span")->AsString());

  // The job root closes the trace.
  EXPECT_EQ(lines[5].Find("name")->AsString(), "job");
  EXPECT_EQ(lines[5].Find("path")->AsString(), "job");
  EXPECT_EQ(lines[5].Find("span")->AsString(), job_id);
  EXPECT_EQ(lines[5].Find("parent")->AsString(), "0000000000000000");
  EXPECT_EQ(lines[5].Find("count")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(lines[5].Find("dur_ms")->AsDouble(), 5.0);
}

TEST(ReqTraceTest, SpanStackIsPerThread) {
  const std::uint64_t trace = DeriveTraceId("scoped", 3);
  {
    // With events off no trace is opened.
    TraceSpan racer(trace, "racer", "bs");
    EXPECT_TRUE(CurrentTraceToken().empty());
    EXPECT_TRUE(CurrentSpanPath().empty());
  }

  const std::filesystem::path path = EventsTempPath("stack.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());
  {
    TraceSpan racer(trace, "racer", "bs");
    EXPECT_EQ(CurrentTraceToken(), IdHex(trace));
    EXPECT_EQ(CurrentSpanPath(), "job/racer@bs");
    {
      TraceSpan solve(kRequestOnly, "solve");
      EXPECT_EQ(CurrentSpanPath(), "job/racer@bs/solve");
    }
    EXPECT_EQ(CurrentSpanPath(), "job/racer@bs");

    // Another thread sees an empty stack: spans are thread-local, which is
    // why solver-internal worker threads never attach orphan spans.
    std::thread([] {
      EXPECT_TRUE(CurrentTraceToken().empty());
      TraceSpan solve(kRequestOnly, "solve");
      EXPECT_TRUE(CurrentSpanPath().empty());
    }).join();
  }
  EXPECT_TRUE(CurrentTraceToken().empty());
  EventSink::InstallGlobal(nullptr);

  // Both spans closed inside the trace were flushed, the other thread's not.
  EXPECT_EQ(ReadJsonlFile(path).size(), 2u);
}

TEST(ReqTraceTest, TraceRootAggregatesAndFlushesSortedSpanEvents) {
  const std::filesystem::path path = EventsTempPath("spans.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());

  {
    TraceSpan racer(DeriveTraceId("flush", 9), "racer", "bs");
    {
      TraceSpan solve(kRequestOnly, "solve");
    }
    {
      TraceSpan solve(kRequestOnly, "solve");  // merged: one line, count 2
    }
    RecordSpan("backoff", "1", 1.5);
    RecordSpan("backoff", "1", 2.5);
    EXPECT_EQ(sink.value()->lines_written(), 0);  // nothing until the root
  }                                               // closes
  EventSink::InstallGlobal(nullptr);

  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 3u);
  // Path-sorted: the root before its children, "backoff" before "solve".
  EXPECT_EQ(lines[0].Find("event")->AsString(), "span");
  EXPECT_EQ(lines[0].Find("solver")->AsString(), "trace");
  EXPECT_EQ(lines[0].Find("path")->AsString(), "job/racer@bs");
  EXPECT_EQ(lines[0].Find("count")->AsInt(), 1);
  EXPECT_EQ(lines[1].Find("path")->AsString(), "job/racer@bs/backoff@1");
  EXPECT_EQ(lines[1].Find("name")->AsString(), "backoff@1");
  EXPECT_EQ(lines[1].Find("parent")->AsString(),
            lines[0].Find("span")->AsString());
  EXPECT_EQ(lines[1].Find("count")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(lines[1].Find("dur_ms")->AsDouble(), 4.0);
  EXPECT_EQ(lines[2].Find("path")->AsString(), "job/racer@bs/solve");
  EXPECT_EQ(lines[2].Find("count")->AsInt(), 2);
}

TEST(ReqTraceTest, TraceSpanFeedsTheTreeAndTheTrace) {
  const std::filesystem::path path = EventsTempPath("sinks.jsonl");
  Result<std::unique_ptr<EventSink>> sink = EventSink::Open(path.string());
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());

  Tracer::Global().Reset();
  {
    TraceSpan racer(DeriveTraceId("sinks", 4), "racer", "bs");
    TraceSpan job("svc.job");
    TraceSpan solve(kRequestOnly, "solve");
    TraceSpan solver_span("solver.work");
  }
  EventSink::InstallGlobal(nullptr);

  // Request-only spans get no tree node: solver.work nests under svc.job.
  const TraceNodeSnapshot root = Tracer::Global().Snapshot();
  Tracer::Global().Reset();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "svc.job");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "solver.work");
  EXPECT_EQ(root.children[0].children[0].count, 1);

  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[3].Find("path")->AsString(),
            "job/racer@bs/svc.job/solve/solver.work");
  EXPECT_EQ(lines[3].Find("parent")->AsString(),
            lines[2].Find("span")->AsString());
}

TEST(EventSinkTest, ProgressScopeSeparatesConcurrentRequests) {
  const std::filesystem::path path = EventsTempPath("scoped_progress.jsonl");
  // Hour-long interval: within one key only the first heartbeat lands.
  Result<std::unique_ptr<EventSink>> sink =
      EventSink::Open(path.string(), 3'600'000);
  ASSERT_TRUE(sink.ok()) << sink.status();

  // Two jobs racing through the same solver: distinct scopes, so the second
  // job's first heartbeat is NOT silenced by the first job's.
  EXPECT_TRUE(sink.value()->EmitProgress("bs", "progress", {{"nodes", 1}},
                                         "aaaaaaaaaaaaaaaa"));
  EXPECT_FALSE(sink.value()->ProgressDue("bs", "progress",
                                         "aaaaaaaaaaaaaaaa"));
  EXPECT_TRUE(sink.value()->ProgressDue("bs", "progress",
                                        "bbbbbbbbbbbbbbbb"));
  EXPECT_TRUE(sink.value()->EmitProgress("bs", "progress", {{"nodes", 2}},
                                         "bbbbbbbbbbbbbbbb"));
  EXPECT_FALSE(sink.value()->EmitProgress("bs", "progress", {{"nodes", 3}},
                                          "bbbbbbbbbbbbbbbb"));
  sink.value().reset();

  // The scope rides each line as the "trace" envelope field.
  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].Find("trace")->AsString(), "aaaaaaaaaaaaaaaa");
  EXPECT_EQ(lines[0].Find("nodes")->AsInt(), 1);
  EXPECT_EQ(lines[1].Find("trace")->AsString(), "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(lines[1].Find("nodes")->AsInt(), 2);
}

TEST(EventSinkTest, HeartbeatPicksUpActiveTrace) {
  const std::filesystem::path path = EventsTempPath("scoped_heartbeat.jsonl");
  Result<std::unique_ptr<EventSink>> sink =
      EventSink::Open(path.string(), 3'600'000);
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());

  ProgressHeartbeat heartbeat("bs");
  const std::uint64_t job_a = DeriveTraceId("job-a", 1);
  const std::uint64_t job_b = DeriveTraceId("job-b", 2);
  {
    TraceSpan racer(job_a, "racer", "bs");
    EXPECT_TRUE(heartbeat.Due());
    heartbeat.Emit({{"nodes", 10}});
    EXPECT_FALSE(heartbeat.Due());
  }
  {
    // A different request: its first heartbeat through the same solver site
    // is due despite job A having just emitted (the regression this guards:
    // un-scoped keys let one racing job starve the other's heartbeats).
    TraceSpan racer(job_b, "racer", "bs");
    EXPECT_TRUE(heartbeat.Due());
    heartbeat.Emit({{"nodes", 20}});
  }
  EventSink::InstallGlobal(nullptr);

  // Each trace root flushes its span line after the heartbeat.
  const std::vector<JsonValue> lines = ReadJsonlFile(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].Find("event")->AsString(), "progress");
  EXPECT_EQ(lines[0].Find("trace")->AsString(), IdHex(job_a));
  EXPECT_EQ(lines[2].Find("event")->AsString(), "progress");
  EXPECT_EQ(lines[2].Find("trace")->AsString(), IdHex(job_b));
}

TEST(EventSinkTest, EndingAJobTraceForgetsItsHeartbeatThrottle) {
  // Regression: scoped throttle keys were never erased, so a server tracing
  // every job grew one key per job for its whole lifetime.
  const std::filesystem::path path = EventsTempPath("forget_scope.jsonl");
  Result<std::unique_ptr<EventSink>> sink =
      EventSink::Open(path.string(), 3'600'000);
  ASSERT_TRUE(sink.ok()) << sink.status();
  EventSink::InstallGlobal(sink.value().get());

  ProgressHeartbeat heartbeat("bs");
  const std::uint64_t job_a = DeriveTraceId("job-a", 1);
  {
    TraceSpan racer(job_a, "racer", "bs");
    heartbeat.Emit({{"nodes", 10}});
    EXPECT_FALSE(heartbeat.Due());
    EXPECT_EQ(sink.value()->progress_key_count(), 1u);
  }
  {
    // A racer closing does not end the job: a racer still running on the
    // same trace (here: a retry of it) keeps the throttle.
    TraceSpan racer(job_a, "racer", "bs");
    EXPECT_FALSE(heartbeat.Due());
  }
  EXPECT_EQ(sink.value()->progress_key_count(), 1u);
  EmitJobSpan(job_a, 5.0);
  EXPECT_EQ(sink.value()->progress_key_count(), 0u);
  {
    // A fresh span on the ended trace id starts with a clean throttle.
    TraceSpan racer(job_a, "racer", "bs");
    EXPECT_TRUE(heartbeat.Due());
  }
  // Unscoped keys (no trace open) are not tied to any trace and stay.
  heartbeat.Emit({{"nodes", 30}});
  EmitJobSpan(job_a, 5.0);
  EXPECT_FALSE(heartbeat.Due());
  EXPECT_EQ(sink.value()->progress_key_count(), 1u);
  EventSink::InstallGlobal(nullptr);
}

// --- OpenMetrics -------------------------------------------------------------

TEST(OpenMetricsTest, NameSanitisation) {
  EXPECT_EQ(OpenMetricsName("svc.jobs.completed"), "qplex_svc_jobs_completed");
  EXPECT_EQ(OpenMetricsName("a-b c"), "qplex_a_b_c");
  EXPECT_EQ(OpenMetricsName("ok_name:x9"), "qplex_ok_name:x9");
}

TEST(OpenMetricsTest, RenderParsesBackAndRoundTripsEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("svc.jobs.completed").Add(42);
  registry.GetGauge("svc.slo.objective_ms").Set(250.5);
  Histogram& histogram = registry.GetHistogram("svc.job_latency_wall_ms");
  histogram.Record(0.5);
  histogram.Record(3.0);
  histogram.Record(3.5);
  registry.GetSeries("anneal.energy").Append(1.0);
  registry.GetSeries("anneal.energy").Append(2.0);

  const std::string text = RenderOpenMetrics(registry.Snapshot());
  const Result<OpenMetricsDoc> parsed = ParseOpenMetrics(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const OpenMetricsDoc& doc = parsed.value();

  // Counter: TYPE declared, _total sample carries the exact value.
  EXPECT_EQ(doc.types.at("qplex_svc_jobs_completed"), "counter");
  const OpenMetricsSample* counter =
      doc.FindSample("qplex_svc_jobs_completed_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->value, 42.0);

  // Gauge: %.17g keeps the double exact through the round trip.
  const OpenMetricsSample* gauge =
      doc.FindSample("qplex_svc_slo_objective_ms");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 250.5);

  // Histogram: _count and _sum round-trip; +Inf bucket equals the count.
  const OpenMetricsSample* count =
      doc.FindSample("qplex_svc_job_latency_wall_ms_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 3.0);
  const OpenMetricsSample* sum =
      doc.FindSample("qplex_svc_job_latency_wall_ms_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 7.0);
  double inf_bucket = -1;
  for (const OpenMetricsSample& sample : doc.samples) {
    if (sample.name == "qplex_svc_job_latency_wall_ms_bucket") {
      const std::string* le = sample.FindLabel("le");
      ASSERT_NE(le, nullptr);
      if (*le == "+Inf") {
        inf_bucket = sample.value;
      }
    }
  }
  EXPECT_DOUBLE_EQ(inf_bucket, 3.0);

  // Series: exposed as a labeled point-count gauge.
  bool series_seen = false;
  for (const OpenMetricsSample& sample : doc.samples) {
    if (sample.name == "qplex_series_points" &&
        sample.FindLabel("series") != nullptr &&
        *sample.FindLabel("series") == "anneal.energy") {
      series_seen = true;
      EXPECT_DOUBLE_EQ(sample.value, 2.0);
    }
  }
  EXPECT_TRUE(series_seen);

  // And the whole exposition passes the CI checker.
  EXPECT_TRUE(CheckOpenMetrics(text).ok()) << CheckOpenMetrics(text);
}

TEST(OpenMetricsTest, CheckerRejectsStructuralViolations) {
  // Valid baseline the mutations below are diffs of.
  const std::string valid =
      "# TYPE qplex_jobs counter\n"
      "qplex_jobs_total 3\n"
      "# EOF\n";
  EXPECT_TRUE(CheckOpenMetrics(valid).ok());

  // Missing the EOF terminator.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE qplex_jobs counter\n"
                                "qplex_jobs_total 3\n")
                   .ok());
  // Content after EOF.
  EXPECT_FALSE(CheckOpenMetrics(valid + "qplex_late 1\n").ok());
  // Sample without a TYPE declaration.
  EXPECT_FALSE(CheckOpenMetrics("qplex_jobs_total 3\n# EOF\n").ok());
  // Counter sample missing the _total suffix.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE qplex_jobs counter\n"
                                "qplex_jobs 3\n# EOF\n")
                   .ok());
  // Negative counter.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE qplex_jobs counter\n"
                                "qplex_jobs_total -1\n# EOF\n")
                   .ok());
  // Histogram buckets must be cumulative.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE qplex_lat histogram\n"
                                "qplex_lat_bucket{le=\"1\"} 5\n"
                                "qplex_lat_bucket{le=\"2\"} 3\n"
                                "qplex_lat_bucket{le=\"+Inf\"} 5\n"
                                "qplex_lat_sum 4\n"
                                "qplex_lat_count 5\n# EOF\n")
                   .ok());
  // +Inf bucket must equal _count.
  EXPECT_FALSE(CheckOpenMetrics("# TYPE qplex_lat histogram\n"
                                "qplex_lat_bucket{le=\"1\"} 2\n"
                                "qplex_lat_bucket{le=\"+Inf\"} 2\n"
                                "qplex_lat_sum 4\n"
                                "qplex_lat_count 5\n# EOF\n")
                   .ok());
  // An le bound is a whole finite number or "+Inf"; "1.5abc" used to read
  // as 1.5.
  const auto histogram = [](const std::string& le) {
    return "# TYPE qplex_lat histogram\n"
           "qplex_lat_bucket{le=\"" +
           le +
           "\"} 2\n"
           "qplex_lat_bucket{le=\"+Inf\"} 5\n"
           "qplex_lat_sum 4\n"
           "qplex_lat_count 5\n# EOF\n";
  };
  EXPECT_TRUE(CheckOpenMetrics(histogram("1.5")).ok());
  EXPECT_TRUE(CheckOpenMetrics(histogram("2.5e-05")).ok());
  for (const char* le : {"1.5abc", "1.5 ", " 1.5", "", "nan", "inf", "-Inf"}) {
    EXPECT_FALSE(CheckOpenMetrics(histogram(le)).ok()) << "le=" << le;
  }
}

// --- Event-log analysis ------------------------------------------------------

std::filesystem::path WriteEventsFile(const std::string& name,
                                      const std::string& contents) {
  const std::filesystem::path path = EventsTempPath(name);
  std::ofstream out(path, std::ios::trunc);
  out << contents;
  return path;
}

/// A synthetic two-line trace: job -> solve, plus one job_end.
std::string TinyEventStream() {
  return R"({"ts_ms":1,"level":"debug","solver":"trace","event":"span","trace":"00000000000000aa","span":"0000000000000001","parent":"0000000000000000","name":"job","path":"job","count":1,"dur_ms":5.0})"
         "\n"
         R"({"ts_ms":2,"level":"debug","solver":"trace","event":"span","trace":"00000000000000aa","span":"0000000000000002","parent":"0000000000000001","name":"solve","path":"job/solve","count":3,"dur_ms":4.0})"
         "\n"
         R"({"ts_ms":3,"level":"info","solver":"svc","event":"job_end","trace":"00000000000000aa","job":7,"label":"tiny","backend":"bs","status":"ok","queue_seconds":0.001,"wall_seconds":0.004,"attempts":1,"size":5,"cache_hit":false})"
         "\n";
}

TEST(AnalysisTest, LoadEventLogExtractsSpansAndJobs) {
  const std::filesystem::path path =
      WriteEventsFile("tiny.jsonl", TinyEventStream() + "not json\n");
  const Result<EventLog> loaded = LoadEventLog(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const EventLog& log = loaded.value();
  EXPECT_EQ(log.lines, 4);
  EXPECT_EQ(log.malformed, 1);
  ASSERT_EQ(log.spans.size(), 2u);
  EXPECT_EQ(log.spans[1].path, "job/solve");
  EXPECT_EQ(log.spans[1].count, 3);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(log.jobs[0].label, "tiny");
  EXPECT_EQ(log.jobs[0].job, 7);
  EXPECT_DOUBLE_EQ(log.jobs[0].wall_seconds, 0.004);

  EXPECT_FALSE(LoadEventLog("/nonexistent_qplex_dir/x.jsonl").ok());
}

TEST(AnalysisTest, BuildTraceForestConnectsAndCountsOrphans) {
  const std::filesystem::path path =
      WriteEventsFile("forest.jsonl", TinyEventStream());
  const Result<EventLog> loaded = LoadEventLog(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::vector<TraceSummary> forest = BuildTraceForest(loaded.value());
  ASSERT_EQ(forest.size(), 1u);
  EXPECT_EQ(forest[0].label, "tiny");
  EXPECT_EQ(forest[0].job, 7);
  ASSERT_EQ(forest[0].roots.size(), 1u);
  EXPECT_EQ(forest[0].roots[0].record.path, "job");
  ASSERT_EQ(forest[0].roots[0].children.size(), 1u);
  EXPECT_EQ(forest[0].roots[0].children[0].record.path, "job/solve");
  EXPECT_EQ(CountOrphans(forest), 0u);

  // An orphan: parent id that never appears in the trace.
  EventLog broken = loaded.value();
  SpanRecord stray = broken.spans[1];
  stray.span = "0000000000000009";
  stray.parent = "00000000000000ff";
  stray.path = "job/stray";
  broken.spans.push_back(stray);
  const std::vector<TraceSummary> with_orphan = BuildTraceForest(broken);
  EXPECT_EQ(CountOrphans(with_orphan), 1u);
  EXPECT_NE(FormatTraceForest(with_orphan).find("ORPHAN"), std::string::npos);
}

TEST(AnalysisTest, FormattersAreDeterministicAndDurationFree) {
  const std::filesystem::path path =
      WriteEventsFile("fmt.jsonl", TinyEventStream());
  const Result<EventLog> loaded = LoadEventLog(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::vector<TraceSummary> forest = BuildTraceForest(loaded.value());

  const std::string tree = FormatTraceForest(forest);
  EXPECT_EQ(tree, FormatTraceForest(BuildTraceForest(loaded.value())));
  EXPECT_NE(tree.find("label=tiny"), std::string::npos);
  EXPECT_NE(tree.find("solve  count=3"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("dur"), std::string::npos);  // no durations
  EXPECT_EQ(tree.find("ms"), std::string::npos);

  const std::string folded = FormatFoldedStacks(forest);
  EXPECT_NE(folded.find("job;solve 3"), std::string::npos) << folded;

  const std::string latency = FormatLatencyReport(loaded.value());
  EXPECT_NE(latency.find("bs"), std::string::npos);

  const std::string slo = FormatSloReport(loaded.value(), 100.0);
  EXPECT_NE(slo.find("bs"), std::string::npos);
}

TEST(RunReportTest, PrettyStringMentionsMetrics) {
  MetricsRegistry registry;
  Tracer tracer;
  registry.GetCounter("alpha.count").Add(3);
  RunReport report("pretty");
  report.Capture(registry, tracer);
  const std::string text = report.ToPrettyString();
  EXPECT_NE(text.find("pretty"), std::string::npos);
  EXPECT_NE(text.find("alpha.count"), std::string::npos);
}

}  // namespace
}  // namespace qplex::obs
