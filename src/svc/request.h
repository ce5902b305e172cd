#ifndef QPLEX_SVC_REQUEST_H_
#define QPLEX_SVC_REQUEST_H_

/// \file
/// The JSONL request wire format shared by every qplex_serve ingress path.
/// ParseRequestLine is the single entry point: svc::FrontEnd hands it every
/// line from a job file, stdin or a connection, so a malformed line produces
/// the identical error text no matter how it arrived.
///
/// One JSON object per line:
///
///   {"id": "j1", "k": 2, "backend": "bs", "seed": 7, "deadline_ms": 500,
///    "graph": {"n": 8, "edges": [[0,1],[1,2]]},      // inline instance, or
///    "input": "graph.col", "format": "dimacs",       // a graph file
///    "backends": ["bs", "sa"],                       // portfolio race
///    "options": {"shots": 50}}                       // backend knobs

#include <string>
#include <vector>

#include "common/status.h"
#include "svc/solver.h"

namespace qplex::svc {

/// What a request line asks for. Solve lines carry a graph and run through
/// the scheduler; health lines ({"type": "health", "id": ...}) are answered
/// in place on a connection with breaker/queue/shed state and are rejected
/// in job files, whose journal byte-identity contract (--resume) has no room
/// for load-dependent lines.
enum class RequestKind { kSolve, kHealth };

/// One parsed request line: the scheduler request plus the racer list.
struct RequestSpec {
  RequestKind kind = RequestKind::kSolve;
  SolveRequest request;
  std::vector<std::string> backends;  ///< empty = single request.backend
};

/// Parses one request line. `line_number` is woven into every error message
/// (batch mode counts file lines; socket mode counts lines per connection),
/// so both modes reject a malformed line with the same text for the same
/// position. Blank lines and '#' comments are the *caller's* concern — this
/// function expects a non-empty candidate request.
Result<RequestSpec> ParseRequestLine(const std::string& text, int line_number);

/// Solution members as the space-joined vertex list used by journal lines,
/// job_end events, and socket responses.
std::string MembersToString(const VertexList& members);

/// Serializes a response for the wire/journal: a single timestamp-free JSON
/// object (no trailing newline). `label` is the client's request id. The
/// same renderer feeds the WAL journal and the socket responses so a
/// replayed connection script journals byte-identically.
std::string RenderResponseLine(const std::string& label,
                               const SolveResponse& response);

}  // namespace qplex::svc

#endif  // QPLEX_SVC_REQUEST_H_
