#include "svc/request.h"

#include <sstream>
#include <utility>

#include "graph/graph.h"
#include "graph/io.h"
#include "obs/json.h"

namespace qplex::svc {
namespace {

Status MustBe(const std::string& field, const char* what, int line_number) {
  return Status::InvalidArgument(field + " must be " + what + " at line " +
                                 std::to_string(line_number));
}

Result<Graph> ParseInlineGraph(const obs::JsonValue& spec, int line_number) {
  const obs::JsonValue* n = spec.Find("n");
  if (n == nullptr || !n->is_int()) {
    return Status::InvalidArgument("graph.n missing at line " +
                                   std::to_string(line_number));
  }
  std::vector<std::pair<Vertex, Vertex>> edges;
  if (const obs::JsonValue* list = spec.Find("edges"); list != nullptr) {
    if (!list->is_array()) {
      return MustBe("graph.edges", "an array", line_number);
    }
    for (std::size_t i = 0; i < list->size(); ++i) {
      const obs::JsonValue& edge = list->at(i);
      if (!edge.is_array() || edge.size() != 2 || !edge.at(0).is_int() ||
          !edge.at(1).is_int()) {
        return MustBe("graph.edges[" + std::to_string(i) + "]", "[u, v]",
                      line_number);
      }
      edges.emplace_back(static_cast<Vertex>(edge.at(0).AsInt()),
                         static_cast<Vertex>(edge.at(1).AsInt()));
    }
  }
  return MakeGraph(static_cast<int>(n->AsInt()), edges);
}

Result<Graph> LoadRequestGraph(const obs::JsonValue& line, int line_number) {
  if (const obs::JsonValue* inline_graph = line.Find("graph");
      inline_graph != nullptr) {
    return ParseInlineGraph(*inline_graph, line_number);
  }
  const obs::JsonValue* input = line.Find("input");
  if (input == nullptr || !input->is_string()) {
    return Status::InvalidArgument(
        "request needs \"graph\" or \"input\" at line " +
        std::to_string(line_number));
  }
  std::string format = "dimacs";
  if (const obs::JsonValue* f = line.Find("format"); f != nullptr) {
    if (!f->is_string()) {
      return MustBe("format", "a string", line_number);
    }
    format = f->AsString();
  }
  if (format == "dimacs") {
    return LoadDimacsFile(input->AsString());
  }
  if (format == "edgelist") {
    return LoadEdgeListFile(input->AsString());
  }
  return Status::InvalidArgument("unknown format '" + format + "' at line " +
                                 std::to_string(line_number));
}

}  // namespace

Result<RequestSpec> ParseRequestLine(const std::string& text,
                                     int line_number) {
  QPLEX_ASSIGN_OR_RETURN(obs::JsonValue line, obs::JsonValue::Parse(text));
  if (!line.is_object()) {
    return MustBe("request", "a JSON object", line_number);
  }
  RequestSpec spec;
  spec.request.label = "line-" + std::to_string(line_number);
  if (const obs::JsonValue* id = line.Find("id"); id != nullptr) {
    if (!id->is_string() && !id->is_int()) {
      return MustBe("id", "a string or an integer", line_number);
    }
    spec.request.label =
        id->is_string() ? id->AsString() : std::to_string(id->AsInt());
  }
  if (const obs::JsonValue* type = line.Find("type"); type != nullptr) {
    if (!type->is_string()) {
      return MustBe("type", "a string", line_number);
    }
    const std::string& name = type->AsString();
    if (name == "health") {
      // Health probes carry no instance; everything else on the line is
      // ignored so clients can tag them freely.
      spec.kind = RequestKind::kHealth;
      return spec;
    }
    if (name != "solve") {
      return Status::InvalidArgument("unknown request type '" + name +
                                     "' at line " +
                                     std::to_string(line_number));
    }
  }
  QPLEX_ASSIGN_OR_RETURN(spec.request.graph,
                         LoadRequestGraph(line, line_number));
  if (const obs::JsonValue* k = line.Find("k"); k != nullptr) {
    if (!k->is_int()) {
      return MustBe("k", "an integer", line_number);
    }
    spec.request.k = static_cast<int>(k->AsInt());
  }
  if (const obs::JsonValue* seed = line.Find("seed"); seed != nullptr) {
    if (!seed->is_int()) {
      return MustBe("seed", "an integer", line_number);
    }
    spec.request.seed = static_cast<std::uint64_t>(seed->AsInt());
  }
  if (const obs::JsonValue* deadline = line.Find("deadline_ms");
      deadline != nullptr) {
    if (!deadline->is_number()) {
      return MustBe("deadline_ms", "a number", line_number);
    }
    spec.request.deadline_seconds = deadline->AsDouble() / 1e3;
  }
  if (const obs::JsonValue* backend = line.Find("backend");
      backend != nullptr) {
    if (!backend->is_string()) {
      return MustBe("backend", "a string", line_number);
    }
    spec.request.backend = backend->AsString();
  }
  if (const obs::JsonValue* backends = line.Find("backends");
      backends != nullptr) {
    if (!backends->is_array() || backends->size() == 0) {
      return MustBe("backends", "a non-empty array", line_number);
    }
    for (std::size_t i = 0; i < backends->size(); ++i) {
      if (!backends->at(i).is_string()) {
        return MustBe("backends[" + std::to_string(i) + "]", "a string",
                      line_number);
      }
      spec.backends.push_back(backends->at(i).AsString());
    }
  }
  if (const obs::JsonValue* options = line.Find("options");
      options != nullptr) {
    if (!options->is_object()) {
      return MustBe("options", "an object", line_number);
    }
    for (const auto& [key, value] : options->members()) {
      if (value.is_string()) {
        spec.request.options[key] = value.AsString();
      } else if (value.is_int()) {
        spec.request.options[key] = std::to_string(value.AsInt());
      } else if (value.is_number()) {
        std::ostringstream formatted;
        formatted << value.AsDouble();
        spec.request.options[key] = formatted.str();
      } else {
        return MustBe("option '" + key + "'", "a string or number",
                      line_number);
      }
    }
  }
  return spec;
}

std::string MembersToString(const VertexList& members) {
  std::string joined;
  for (Vertex v : members) {
    if (!joined.empty()) {
      joined += " ";
    }
    joined += std::to_string(v);
  }
  return joined;
}

std::string RenderResponseLine(const std::string& label,
                               const SolveResponse& response) {
  obs::JsonValue line = obs::JsonValue::Object();
  line.Set("label", label);
  line.Set("status", std::string(StatusCodeName(response.status.code())));
  line.Set("backend", response.backend);
  line.Set("size", response.solution.size);
  line.Set("members", MembersToString(response.solution.members));
  line.Set("provably_optimal", response.provably_optimal);
  line.Set("attempts", response.attempts);
  line.Set("degraded_from", response.degraded_from);
  line.Set("degradation_reason", response.degradation_reason);
  return line.Dump();
}

}  // namespace qplex::svc
