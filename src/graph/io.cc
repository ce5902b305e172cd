#include "graph/io.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "resilience/fault_injection.h"

namespace qplex {
namespace {

Result<std::string> ReadFile(const std::string& path) {
  if (resilience::FaultFires(resilience::FaultSite::kIoRead)) {
    return Status::Internal("injected fault: io_read on " + path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Shared edge validation for the text loaders: self-loops are rejected with
/// the offending line number (they would otherwise silently vanish inside
/// Graph::AddEdge), out-of-range endpoints are rejected before graph
/// construction, and repeated edges (in either orientation) are dropped so a
/// noisy file cannot inflate the declared edge count.
Status AppendEdge(Vertex u, Vertex v, int num_vertices, int line_number,
                  std::set<std::pair<Vertex, Vertex>>* seen,
                  std::vector<std::pair<Vertex, Vertex>>* edges) {
  if (u == v) {
    return Status::InvalidArgument("self-loop " + std::to_string(u) + "-" +
                                   std::to_string(v) + " at line " +
                                   std::to_string(line_number));
  }
  if (u < 0 || u >= num_vertices || v < 0 || v >= num_vertices) {
    return Status::InvalidArgument(
        "edge endpoint out of range at line " + std::to_string(line_number) +
        " (vertices: " + std::to_string(num_vertices) + ")");
  }
  const auto key = std::minmax(u, v);
  if (!seen->insert(key).second) {
    return Status::Ok();  // duplicate: keep the first occurrence
  }
  edges->emplace_back(u, v);
  return Status::Ok();
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int num_vertices = -1;
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::set<std::pair<Vertex, Vertex>> seen;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    if (num_vertices < 0) {
      if (!(fields >> num_vertices) || num_vertices < 0) {
        return Status::InvalidArgument("bad vertex count at line " +
                                       std::to_string(line_number));
      }
      continue;
    }
    Vertex u = 0;
    Vertex v = 0;
    if (!(fields >> u >> v)) {
      return Status::InvalidArgument("bad edge at line " +
                                     std::to_string(line_number));
    }
    QPLEX_RETURN_IF_ERROR(
        AppendEdge(u, v, num_vertices, line_number, &seen, &edges));
  }
  if (num_vertices < 0) {
    return Status::InvalidArgument("missing vertex count header");
  }
  return MakeGraph(num_vertices, edges);
}

Result<Graph> ParseDimacs(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int num_vertices = -1;
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::set<std::pair<Vertex, Vertex>> seen;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == 'c') {
      continue;
    }
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'p') {
      std::string kind;
      int declared_edges = 0;
      if (!(fields >> kind >> num_vertices >> declared_edges) ||
          kind != "edge" || num_vertices < 0) {
        return Status::InvalidArgument("bad problem line at line " +
                                       std::to_string(line_number));
      }
    } else if (tag == 'e') {
      if (num_vertices < 0) {
        return Status::InvalidArgument("edge before problem line");
      }
      Vertex u = 0;
      Vertex v = 0;
      if (!(fields >> u >> v) || u < 1 || v < 1) {
        return Status::InvalidArgument("bad edge at line " +
                                       std::to_string(line_number));
      }
      QPLEX_RETURN_IF_ERROR(
          AppendEdge(u - 1, v - 1, num_vertices, line_number, &seen, &edges));
    } else {
      return Status::InvalidArgument("unknown record '" + std::string(1, tag) +
                                     "' at line " + std::to_string(line_number));
    }
  }
  if (num_vertices < 0) {
    return Status::InvalidArgument("missing problem line");
  }
  return MakeGraph(num_vertices, edges);
}

Result<Graph> LoadEdgeListFile(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseEdgeList(text);
}

Result<Graph> LoadDimacsFile(const std::string& path) {
  QPLEX_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseDimacs(text);
}

}  // namespace qplex
