#include "obs/openmetrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/parse.h"

namespace qplex::obs {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

std::string FormatDouble(double value) {
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string FormatInt(std::int64_t value) { return std::to_string(value); }

/// Strips the family name out of a sample name: `_total`, `_bucket`, `_sum`,
/// `_count` suffixes belong to the family, everything else IS the family.
std::string FamilyOf(const std::string& sample_name) {
  static constexpr std::string_view kSuffixes[] = {"_total", "_bucket", "_sum",
                                                   "_count"};
  for (std::string_view suffix : kSuffixes) {
    if (sample_name.size() > suffix.size() &&
        sample_name.compare(sample_name.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
      return sample_name.substr(0, sample_name.size() - suffix.size());
    }
  }
  return sample_name;
}

Result<double> ParseValue(std::string_view text) {
  if (text == "+Inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (text == "-Inf") {
    return -std::numeric_limits<double>::infinity();
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(std::string(text), &consumed);
    if (consumed != text.size()) {
      return Status::InvalidArgument("trailing junk in sample value: " +
                                     std::string(text));
    }
    return value;
  } catch (const std::exception&) {
    return Status::InvalidArgument("unparseable sample value: " +
                                   std::string(text));
  }
}

}  // namespace

std::string OpenMetricsName(std::string_view name) {
  std::string out = "qplex_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    out.push_back(IsNameChar(c) ? c : '_');
  }
  return out;
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = OpenMetricsName(name);
    out += "# TYPE " + family + " counter\n";
    out += family + "_total " + FormatInt(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = OpenMetricsName(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string family = OpenMetricsName(name);
    out += "# TYPE " + family + " histogram\n";
    std::int64_t cumulative = 0;
    for (const auto& [lower_bound, count] : hist.buckets) {
      cumulative += count;
      // The exposition "le" is the bucket's exclusive upper bound; buckets
      // span [lower, 2*lower), so the boundary is lower*2.
      out += family + "_bucket{le=\"" + FormatDouble(lower_bound * 2) + "\"} " +
             FormatInt(cumulative) + "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " + FormatInt(hist.count) + "\n";
    out += family + "_sum " + FormatDouble(hist.sum) + "\n";
    out += family + "_count " + FormatInt(hist.count) + "\n";
  }
  if (!snapshot.series.empty()) {
    out += "# TYPE qplex_series_points gauge\n";
    for (const auto& [name, values] : snapshot.series) {
      out += "qplex_series_points{series=\"" + std::string(name) + "\"} " +
             FormatInt(static_cast<std::int64_t>(values.size())) + "\n";
    }
  }
  out += "# EOF\n";
  return out;
}

const std::string* OpenMetricsSample::FindLabel(std::string_view key) const {
  for (const auto& [label_key, label_value] : labels) {
    if (label_key == key) {
      return &label_value;
    }
  }
  return nullptr;
}

const OpenMetricsSample* OpenMetricsDoc::FindSample(
    std::string_view name) const {
  for (const OpenMetricsSample& sample : samples) {
    if (sample.name == name && sample.labels.empty()) {
      return &sample;
    }
  }
  return nullptr;
}

Result<OpenMetricsDoc> ParseOpenMetrics(std::string_view text) {
  OpenMetricsDoc doc;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  bool saw_eof = false;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    const std::string where = " (line " + std::to_string(line_number) + ")";
    if (line.empty()) {
      continue;
    }
    if (saw_eof) {
      return Status::InvalidArgument("content after # EOF" + where);
    }
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          return Status::InvalidArgument("malformed TYPE line" + where);
        }
        doc.types[std::string(rest.substr(0, space))] =
            std::string(rest.substr(space + 1));
        continue;
      }
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# UNIT ", 0) == 0) {
        continue;
      }
      return Status::InvalidArgument("unrecognised comment line" + where);
    }
    // Sample: name[{labels}] value
    OpenMetricsSample sample;
    std::size_t i = 0;
    while (i < line.size() && IsNameChar(line[i])) {
      ++i;
    }
    if (i == 0) {
      return Status::InvalidArgument("sample line without metric name" +
                                     where);
    }
    sample.name = std::string(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t key_start = i;
        while (i < line.size() && IsNameChar(line[i])) {
          ++i;
        }
        if (i >= line.size() || line[i] != '=' || i + 1 >= line.size() ||
            line[i + 1] != '"') {
          return Status::InvalidArgument("malformed label" + where);
        }
        std::string key(line.substr(key_start, i - key_start));
        i += 2;  // skip ="
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;  // the subset we emit only escapes \" \\ and \n
            value.push_back(line[i] == 'n' ? '\n' : line[i]);
          } else {
            value.push_back(line[i]);
          }
          ++i;
        }
        if (i >= line.size()) {
          return Status::InvalidArgument("unterminated label value" + where);
        }
        ++i;  // closing quote
        sample.labels.emplace_back(std::move(key), std::move(value));
        if (i < line.size() && line[i] == ',') {
          ++i;
        }
      }
      if (i >= line.size() || line[i] != '}') {
        return Status::InvalidArgument("unterminated label set" + where);
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      return Status::InvalidArgument("missing value separator" + where);
    }
    ++i;
    auto value = ParseValue(line.substr(i));
    if (!value.ok()) {
      return Status::InvalidArgument(value.status().message() + where);
    }
    sample.value = value.value();
    doc.samples.push_back(std::move(sample));
  }
  if (!saw_eof) {
    return Status::InvalidArgument("missing # EOF terminator");
  }
  return doc;
}

Status CheckOpenMetrics(std::string_view text) {
  auto parsed = ParseOpenMetrics(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const OpenMetricsDoc& doc = parsed.value();
  for (const auto& [family, type] : doc.types) {
    for (const char c : family) {
      if (!IsNameChar(c)) {
        return Status::InvalidArgument("family name outside charset: " +
                                       family);
      }
    }
    if (type != "counter" && type != "gauge" && type != "histogram" &&
        type != "summary" && type != "unknown") {
      return Status::InvalidArgument("unknown metric type '" + type +
                                     "' for family " + family);
    }
  }
  // Every sample must belong to a declared family, counters must expose
  // `_total`, and histogram buckets must be cumulative with ascending `le`
  // ending at `+Inf` == `_count`.
  struct HistogramCheck {
    double last_le = -std::numeric_limits<double>::infinity();
    std::int64_t last_cumulative = -1;
    double inf_value = -1;
    double count_value = -1;
  };
  std::map<std::string, HistogramCheck> histograms;
  for (const OpenMetricsSample& sample : doc.samples) {
    const std::string family = FamilyOf(sample.name);
    const auto type_it = doc.types.find(family);
    if (type_it == doc.types.end()) {
      return Status::InvalidArgument("sample without TYPE declaration: " +
                                     sample.name);
    }
    const std::string& type = type_it->second;
    if (type == "counter") {
      if (sample.name != family + "_total") {
        return Status::InvalidArgument("counter sample must end in _total: " +
                                       sample.name);
      }
      if (sample.value < 0) {
        return Status::InvalidArgument("negative counter: " + sample.name);
      }
    } else if (type == "histogram") {
      HistogramCheck& check = histograms[family];
      if (sample.name == family + "_bucket") {
        const std::string* le = sample.FindLabel("le");
        if (le == nullptr) {
          return Status::InvalidArgument("bucket sample without le label: " +
                                         family);
        }
        double boundary = std::numeric_limits<double>::infinity();
        if (*le != "+Inf") {
          const Result<double> parsed = ParseNumber<double>("le", *le);
          if (!parsed.ok()) {
            return Status::InvalidArgument("unparseable le boundary '" + *le +
                                           "' in " + family);
          }
          boundary = parsed.value();
        }
        if (boundary <= check.last_le) {
          return Status::InvalidArgument(
              "histogram le boundaries not ascending: " + family);
        }
        const auto cumulative = static_cast<std::int64_t>(sample.value);
        if (cumulative < check.last_cumulative) {
          return Status::InvalidArgument(
              "histogram bucket counts not cumulative: " + family);
        }
        check.last_le = boundary;
        check.last_cumulative = cumulative;
        if (std::isinf(boundary)) {
          check.inf_value = sample.value;
        }
      } else if (sample.name == family + "_count") {
        check.count_value = sample.value;
      }
    }
  }
  for (const auto& [family, check] : histograms) {
    if (check.inf_value < 0) {
      return Status::InvalidArgument("histogram missing +Inf bucket: " +
                                     family);
    }
    if (check.count_value < 0) {
      return Status::InvalidArgument("histogram missing _count: " + family);
    }
    if (check.inf_value != check.count_value) {
      return Status::InvalidArgument("histogram +Inf bucket != _count: " +
                                     family);
    }
  }
  return Status::Ok();
}

}  // namespace qplex::obs
