// qplex_benchdiff: compares two bench run reports (or two directories of
// BENCH_*.json reports) metric by metric and fails on regressions.
//
//   qplex_benchdiff --baseline <file|dir> --candidate <file|dir>
//                   [--config rules.json] [--format markdown|ascii] [--all]
//
// Reports are flattened to scalar metrics (counters, gauges, histogram
// count/sum/mean/min/max/p50/p90/p99, series points/first/last, trace span
// count/total_seconds, numeric meta) and aligned by name. Each metric is
// judged by the first matching rule ('*' globs, first match wins):
//
//   --config rules first, e.g. {"rules": [{"match": "*.oracle_calls",
//                                          "action": "near",
//                                          "rel_tolerance": 0.01}]}
//   then the built-in timing rule (*seconds* / *wall* / *micros* / *nanos* /
//     *elapsed* / *_time* -> warn at 25% relative drift, never fails),
//   then the fallback: integer metrics must match exactly, float metrics
//     within 1e-6 relative.
//
// Actions: "exact" (bit-equal), "near" (fail past rel_tolerance), "warn"
// (report past rel_tolerance but keep exit 0), "ignore" (skip entirely). A
// metric present on only one side fails unless its rule is warn/ignore. A
// config rule whose "<stem>/" prefix names a report being compared must
// match at least one of its metrics on either side.
//
// Exit status: 0 clean (warnings allowed), 1 regression, 2 usage/IO error or
// a dead config rule.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/table.h"
#include "obs/json.h"

namespace qplex {
namespace {

using obs::JsonValue;

struct DiffOptions {
  std::string baseline;
  std::string candidate;
  std::string config;  // optional rules file
  std::string format = "markdown";
  bool show_all = false;
};

/// One flattened scalar metric. Integer-ness is tracked so the fallback rule
/// can demand exactness for counts while tolerating float rounding.
struct MetricValue {
  double value = 0;
  std::int64_t int_value = 0;
  bool is_int = false;

  static MetricValue FromJson(const JsonValue& json) {
    MetricValue metric;
    if (json.is_int()) {
      metric.is_int = true;
      metric.int_value = json.AsInt();
    }
    metric.value = json.AsDouble();
    return metric;
  }
};

using MetricMap = std::map<std::string, MetricValue>;

enum class RuleAction : std::uint8_t { kExact, kNear, kWarn, kIgnore };

struct Rule {
  std::string match;
  RuleAction action = RuleAction::kNear;
  double rel_tolerance = 1e-6;
};

/// Glob match supporting '*' (any run, including empty); everything else is
/// literal. Iterative star-backtracking, no recursion.
bool GlobMatch(std::string_view pattern, std::string_view text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Flattens one trace node into "trace.<path>.count" / ".total_seconds",
/// recursing through children. The synthetic root span itself is skipped.
void FlattenTrace(const JsonValue& node, const std::string& prefix,
                  MetricMap* out) {
  const JsonValue* name = node.Find("name");
  const bool is_root = prefix.empty();
  std::string path = prefix;
  if (!is_root && name != nullptr && name->is_string()) {
    path += name->AsString();
    const JsonValue* count = node.Find("count");
    if (count != nullptr && count->is_number()) {
      (*out)[path + ".count"] = MetricValue::FromJson(*count);
    }
    const JsonValue* seconds = node.Find("total_seconds");
    if (seconds != nullptr && seconds->is_number()) {
      (*out)[path + ".total_seconds"] = MetricValue::FromJson(*seconds);
    }
    path += ".";
  } else if (is_root) {
    path = "trace.";
  }
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (std::size_t i = 0; i < children->size(); ++i) {
      FlattenTrace(children->at(i), path, out);
    }
  }
}

/// Flattens a run-report JSON document into name -> scalar metrics. `stem`
/// prefixes every name ("Fig_8/...") so directory diffs stay unambiguous.
Result<MetricMap> FlattenReport(const JsonValue& report,
                                const std::string& stem) {
  if (!report.is_object()) {
    return Status::InvalidArgument("report is not a JSON object");
  }
  const std::string prefix = stem.empty() ? "" : stem + "/";
  MetricMap metrics;
  if (const JsonValue* meta = report.Find("meta");
      meta != nullptr && meta->is_object()) {
    for (const auto& [key, value] : meta->members()) {
      if (value.is_number()) {
        metrics[prefix + "meta." + key] = MetricValue::FromJson(value);
      }
    }
  }
  if (const JsonValue* counters = report.Find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [key, value] : counters->members()) {
      metrics[prefix + key] = MetricValue::FromJson(value);
    }
  }
  if (const JsonValue* gauges = report.Find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [key, value] : gauges->members()) {
      metrics[prefix + key] = MetricValue::FromJson(value);
    }
  }
  if (const JsonValue* histograms = report.Find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [key, histogram] : histograms->members()) {
      for (const char* field :
           {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}) {
        const JsonValue* value = histogram.Find(field);
        if (value != nullptr && value->is_number()) {
          metrics[prefix + key + "." + field] = MetricValue::FromJson(*value);
        }
      }
    }
  }
  if (const JsonValue* series = report.Find("series");
      series != nullptr && series->is_object()) {
    for (const auto& [key, points] : series->members()) {
      if (!points.is_array()) {
        continue;
      }
      metrics[prefix + key + ".points"] =
          MetricValue::FromJson(static_cast<std::int64_t>(points.size()));
      if (points.size() > 0) {
        metrics[prefix + key + ".first"] = MetricValue::FromJson(points.at(0));
        metrics[prefix + key + ".last"] =
            MetricValue::FromJson(points.at(points.size() - 1));
      }
    }
  }
  if (const JsonValue* trace = report.Find("trace");
      trace != nullptr && trace->is_object()) {
    MetricMap trace_metrics;
    FlattenTrace(*trace, "", &trace_metrics);
    for (auto& [key, value] : trace_metrics) {
      metrics[prefix + key] = value;
    }
  }
  return metrics;
}

Result<MetricMap> LoadReportFile(const std::string& path,
                                 const std::string& stem) {
  QPLEX_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("cannot parse " + path + ": " +
                                   parsed.status().message());
  }
  return FlattenReport(parsed.value(), stem);
}

/// Loads one side of the diff: a single report file (unprefixed metrics) or
/// a directory of BENCH_*.json reports (metrics prefixed by file stem).
Result<MetricMap> LoadSide(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("BENCH_") && name.ends_with(".json")) {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      return Status::Internal("cannot list directory " + path + ": " +
                              ec.message());
    }
    if (files.empty()) {
      return Status::NotFound("no BENCH_*.json reports in " + path);
    }
    std::sort(files.begin(), files.end());
    MetricMap merged;
    for (const std::string& file : files) {
      const std::string stem =
          std::filesystem::path(file).stem().string().substr(6);
      QPLEX_ASSIGN_OR_RETURN(MetricMap metrics, LoadReportFile(file, stem));
      merged.insert(metrics.begin(), metrics.end());
    }
    return merged;
  }
  return LoadReportFile(path, "");
}

Result<RuleAction> ParseAction(const std::string& name) {
  if (name == "exact") return RuleAction::kExact;
  if (name == "near") return RuleAction::kNear;
  if (name == "warn") return RuleAction::kWarn;
  if (name == "ignore") return RuleAction::kIgnore;
  return Status::InvalidArgument("unknown rule action: " + name);
}

Result<std::vector<Rule>> LoadRules(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("cannot parse " + path + ": " +
                                   parsed.status().message());
  }
  const JsonValue* rules_json = parsed.value().Find("rules");
  if (rules_json == nullptr || !rules_json->is_array()) {
    return Status::InvalidArgument(path + ": expected {\"rules\": [...]}");
  }
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < rules_json->size(); ++i) {
    const JsonValue& entry = rules_json->at(i);
    const JsonValue* match = entry.Find("match");
    const JsonValue* action = entry.Find("action");
    if (match == nullptr || !match->is_string() || action == nullptr ||
        !action->is_string()) {
      return Status::InvalidArgument(
          path + ": each rule needs string \"match\" and \"action\"");
    }
    Rule rule;
    rule.match = match->AsString();
    QPLEX_ASSIGN_OR_RETURN(rule.action, ParseAction(action->AsString()));
    rule.rel_tolerance = rule.action == RuleAction::kWarn ? 0.25 : 1e-6;
    if (const JsonValue* tolerance = entry.Find("rel_tolerance");
        tolerance != nullptr && tolerance->is_number()) {
      rule.rel_tolerance = tolerance->AsDouble();
    }
    rules.push_back(rule);
  }
  return rules;
}

/// Timing metrics drift with the machine, so their built-in rule warns
/// instead of failing.
const std::vector<Rule>& TimingRules() {
  static const std::vector<Rule> rules = {
      {"*seconds*", RuleAction::kWarn, 0.25},
      {"*wall*", RuleAction::kWarn, 0.25},
      {"*micros*", RuleAction::kWarn, 0.25},
      {"*nanos*", RuleAction::kWarn, 0.25},
      {"*elapsed*", RuleAction::kWarn, 0.25},
      {"*_time*", RuleAction::kWarn, 0.25},
  };
  return rules;
}

/// Resolves the rule for `name`: config rules, then timing rules, then the
/// exact-int / near-float fallback.
Rule ResolveRule(const std::vector<Rule>& config_rules, const std::string& name,
                 bool is_int) {
  for (const Rule& rule : config_rules) {
    if (GlobMatch(rule.match, name)) {
      return rule;
    }
  }
  for (const Rule& rule : TimingRules()) {
    if (GlobMatch(rule.match, name)) {
      return rule;
    }
  }
  Rule fallback;
  fallback.match = "*";
  fallback.action = is_int ? RuleAction::kExact : RuleAction::kNear;
  return fallback;
}

/// A config rule scoped to a compared report ("<stem>/...") that matches none
/// of its metrics is dead: the metrics it was written for would silently fall
/// through to the default rule.
Status CheckRulesMatch(const std::vector<Rule>& config_rules,
                       const MetricMap& baseline, const MetricMap& candidate) {
  for (const Rule& rule : config_rules) {
    const std::size_t slash = rule.match.find('/');
    if (slash == std::string::npos) {
      continue;
    }
    const std::string_view prefix(rule.match.data(), slash + 1);
    bool compared = false;
    bool matched = false;
    for (const MetricMap* side : {&baseline, &candidate}) {
      for (const auto& [name, value] : *side) {
        compared = compared || name.starts_with(prefix);
        matched = matched || GlobMatch(rule.match, name);
      }
    }
    if (compared && !matched) {
      return Status::InvalidArgument("config rule \"" + rule.match +
                                     "\" matches no metric of report " +
                                     rule.match.substr(0, slash));
    }
  }
  return Status::Ok();
}

enum class RowStatus : std::uint8_t { kOk, kWarn, kFail, kMissing };

struct DiffRow {
  std::string name;
  std::string baseline;
  std::string candidate;
  std::string delta;
  std::string rel;
  RowStatus status = RowStatus::kOk;
};

std::string FormatMetric(const MetricValue& metric) {
  if (metric.is_int) {
    return std::to_string(metric.int_value);
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", metric.value);
  return buffer;
}

std::string StatusName(RowStatus status) {
  switch (status) {
    case RowStatus::kOk:
      return "ok";
    case RowStatus::kWarn:
      return "warn";
    case RowStatus::kFail:
      return "FAIL";
    case RowStatus::kMissing:
      return "MISSING";
  }
  return "?";
}

/// Compares one aligned metric pair under `rule`.
DiffRow CompareMetric(const std::string& name, const MetricValue& baseline,
                      const MetricValue& candidate, const Rule& rule) {
  DiffRow row;
  row.name = name;
  row.baseline = FormatMetric(baseline);
  row.candidate = FormatMetric(candidate);
  const double delta = candidate.value - baseline.value;
  const double denom =
      std::max(std::abs(baseline.value), std::abs(candidate.value));
  const double rel = denom > 0 ? std::abs(delta) / denom : 0;
  if (baseline.is_int && candidate.is_int) {
    row.delta = std::to_string(candidate.int_value - baseline.int_value);
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.6g", delta);
    row.delta = buffer;
  }
  {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.2f%%",
                  100 * (candidate.value >= baseline.value ? rel : -rel));
    row.rel = buffer;
  }
  bool within = true;
  switch (rule.action) {
    case RuleAction::kExact:
      within = baseline.is_int && candidate.is_int
                   ? baseline.int_value == candidate.int_value
                   : baseline.value == candidate.value;
      break;
    case RuleAction::kNear:
    case RuleAction::kWarn:
      within = rel <= rule.rel_tolerance;
      break;
    case RuleAction::kIgnore:
      break;
  }
  if (!within) {
    row.status =
        rule.action == RuleAction::kWarn ? RowStatus::kWarn : RowStatus::kFail;
  }
  return row;
}

struct DiffResult {
  std::vector<DiffRow> rows;
  int compared = 0;
  int ok = 0;
  int warnings = 0;
  int failures = 0;
  int missing = 0;
  int ignored = 0;
};

DiffResult Diff(const MetricMap& baseline, const MetricMap& candidate,
                const std::vector<Rule>& config_rules) {
  DiffResult result;
  auto record_missing = [&](const std::string& name, const MetricValue& value,
                            bool in_baseline) {
    const Rule rule = ResolveRule(config_rules, name, value.is_int);
    if (rule.action == RuleAction::kIgnore) {
      ++result.ignored;
      return;
    }
    DiffRow row;
    row.name = name;
    row.baseline = in_baseline ? FormatMetric(value) : "-";
    row.candidate = in_baseline ? "-" : FormatMetric(value);
    row.delta = "-";
    row.rel = "-";
    row.status = rule.action == RuleAction::kWarn ? RowStatus::kWarn
                                                  : RowStatus::kMissing;
    if (row.status == RowStatus::kMissing) {
      ++result.missing;
    } else {
      ++result.warnings;
    }
    result.rows.push_back(row);
  };

  for (const auto& [name, base_value] : baseline) {
    const auto it = candidate.find(name);
    if (it == candidate.end()) {
      record_missing(name, base_value, /*in_baseline=*/true);
      continue;
    }
    const Rule rule = ResolveRule(config_rules, name, base_value.is_int);
    if (rule.action == RuleAction::kIgnore) {
      ++result.ignored;
      continue;
    }
    ++result.compared;
    DiffRow row = CompareMetric(name, base_value, it->second, rule);
    switch (row.status) {
      case RowStatus::kOk:
        ++result.ok;
        break;
      case RowStatus::kWarn:
        ++result.warnings;
        break;
      default:
        ++result.failures;
        break;
    }
    result.rows.push_back(row);
  }
  for (const auto& [name, cand_value] : candidate) {
    if (baseline.find(name) == baseline.end()) {
      record_missing(name, cand_value, /*in_baseline=*/false);
    }
  }
  return result;
}

std::string RenderMarkdown(const DiffResult& result, bool show_all) {
  std::ostringstream out;
  out << "| metric | baseline | candidate | delta | rel | status |\n"
      << "|---|---|---|---|---|---|\n";
  int shown = 0;
  for (const DiffRow& row : result.rows) {
    if (!show_all && row.status == RowStatus::kOk) {
      continue;
    }
    out << "| " << row.name << " | " << row.baseline << " | " << row.candidate
        << " | " << row.delta << " | " << row.rel << " | "
        << StatusName(row.status) << " |\n";
    ++shown;
  }
  if (shown == 0) {
    out << "| (all " << result.compared << " metrics within tolerance) | | | "
        << "| | ok |\n";
  }
  return out.str();
}

std::string RenderAscii(const DiffResult& result, bool show_all) {
  AsciiTable table({"metric", "baseline", "candidate", "delta", "rel",
                    "status"});
  for (const DiffRow& row : result.rows) {
    if (!show_all && row.status == RowStatus::kOk) {
      continue;
    }
    table.AddRow({row.name, row.baseline, row.candidate, row.delta, row.rel,
                  StatusName(row.status)});
  }
  if (table.num_rows() == 0) {
    table.AddRow({"(all " + std::to_string(result.compared) +
                      " metrics within tolerance)",
                  "", "", "", "", "ok"});
  }
  return table.ToString();
}

void PrintUsage() {
  std::cerr << "usage: qplex_benchdiff --baseline <file|dir> "
               "--candidate <file|dir>\n"
               "                       [--config rules.json] "
               "[--format markdown|ascii] [--all]\n";
}

Result<DiffOptions> ParseArgs(int argc, char** argv) {
  DiffOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--baseline") {
      QPLEX_ASSIGN_OR_RETURN(options.baseline, next());
    } else if (arg == "--candidate") {
      QPLEX_ASSIGN_OR_RETURN(options.candidate, next());
    } else if (arg == "--config") {
      QPLEX_ASSIGN_OR_RETURN(options.config, next());
    } else if (arg == "--format") {
      QPLEX_ASSIGN_OR_RETURN(options.format, next());
    } else if (arg == "--all") {
      options.show_all = true;
    } else if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.baseline.empty() || options.candidate.empty()) {
    return Status::InvalidArgument("--baseline and --candidate are required");
  }
  if (options.format != "markdown" && options.format != "ascii") {
    return Status::InvalidArgument("--format must be markdown or ascii");
  }
  return options;
}

int Main(int argc, char** argv) {
  const Result<DiffOptions> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    PrintUsage();
    return 2;
  }
  std::vector<Rule> config_rules;
  if (!options.value().config.empty()) {
    Result<std::vector<Rule>> loaded = LoadRules(options.value().config);
    if (!loaded.ok()) {
      std::cerr << loaded.status() << "\n";
      return 2;
    }
    config_rules = std::move(loaded).value();
  }
  const Result<MetricMap> baseline = LoadSide(options.value().baseline);
  if (!baseline.ok()) {
    std::cerr << "baseline: " << baseline.status() << "\n";
    return 2;
  }
  const Result<MetricMap> candidate = LoadSide(options.value().candidate);
  if (!candidate.ok()) {
    std::cerr << "candidate: " << candidate.status() << "\n";
    return 2;
  }

  if (const Status rules = CheckRulesMatch(config_rules, baseline.value(),
                                          candidate.value());
      !rules.ok()) {
    std::cerr << rules << "\n";
    return 2;
  }
  const DiffResult result =
      Diff(baseline.value(), candidate.value(), config_rules);
  std::cout << "benchdiff: " << options.value().baseline << " vs "
            << options.value().candidate << "\n\n";
  std::cout << (options.value().format == "markdown"
                    ? RenderMarkdown(result, options.value().show_all)
                    : RenderAscii(result, options.value().show_all));
  std::cout << "\nsummary: " << result.compared << " compared, " << result.ok
            << " ok, " << result.warnings << " warned, " << result.failures
            << " failed, " << result.missing << " missing, " << result.ignored
            << " ignored\n";
  return result.failures > 0 || result.missing > 0 ? 1 : 0;
}

}  // namespace
}  // namespace qplex

int main(int argc, char** argv) { return qplex::Main(argc, argv); }
