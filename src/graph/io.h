#ifndef QPLEX_GRAPH_IO_H_
#define QPLEX_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// Parses a plain edge-list document:
///   # comment lines start with '#'
///   <num_vertices>
///   <u> <v>        (one edge per line, 0-based)
Result<Graph> ParseEdgeList(const std::string& text);

/// Parses the DIMACS clique benchmark format:
///   c <comment>
///   p edge <n> <m>
///   e <u> <v>      (1-based)
Result<Graph> ParseDimacs(const std::string& text);

/// Reads a whole file; convenience over the string parsers.
Result<Graph> LoadEdgeListFile(const std::string& path);
Result<Graph> LoadDimacsFile(const std::string& path);

}  // namespace qplex

#endif  // QPLEX_GRAPH_IO_H_
