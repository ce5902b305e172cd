#ifndef QPLEX_BENCHMARK_WORKLOAD_H_
#define QPLEX_BENCHMARK_WORKLOAD_H_

/// \file
/// The benchmark's four workloads. A workload is an endless, deterministic
/// stream of qplex_serve request lines: line i is a pure function of
/// (workload, seed, i), so every run with the same seed sends the same lines
/// in the same order however many it manages to send. Every line carries the
/// reference optimum of its (graph, k), computed untimed when the workload is
/// built, so each answer can be verified as it arrives.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "obs/json.h"

namespace qplex::bench {

/// How the load generator drives a workload.
enum class LoopKind {
  /// `connections` clients, each waiting for its answer before sending the
  /// next request (lockstep callers).
  kClosed,
  /// flood_small: one connection in lockstep, then the same connection with
  /// a fixed number of requests pipelined.
  kFlood,
};

/// One (graph, k) with its reference maximum k-plex size.
struct Instance {
  Graph graph;
  int k = 0;
  int optimum = 0;
  /// Pre-rendered `"k":..,"graph":{..}` members of a request line.
  std::string json;
};

/// What a request asks the server to run.
struct Backend {
  /// Pre-rendered `"backend":..` or `"backends":[..]` members (plus options).
  std::string json;
  /// True when the answer must equal the reference optimum: exact backends,
  /// and portfolios containing one (the merge prefers a proven answer).
  bool proving = false;
};

/// One request of the stream.
struct Slot {
  int instance = 0;
  int backend = 0;
  std::uint64_t seed = 0;
};

/// How one response compares with the reference.
enum class Verdict {
  kOptimal,     ///< valid k-plex of the reference optimum size
  kSuboptimal,  ///< valid k-plex below the optimum from a heuristic backend
  kRefused,     ///< non-OK status (shed, error, deadline)
  kWrong,       ///< invalid plex, size != |members|, or a wrong exact answer
};

struct Check {
  Verdict verdict = Verdict::kWrong;
  std::string error;  ///< why, for kRefused and kWrong
  int size = 0;
};

class Workload {
 public:
  /// Builds `name` for `seed`, computing every reference optimum. Fails for
  /// an unknown name.
  static Result<Workload> Make(std::string_view name, std::uint64_t seed);

  const std::string& name() const { return name_; }
  LoopKind loop() const { return loop_; }
  /// Client connections of the end-to-end run (flood_small uses one).
  int connections() const { return connections_; }
  /// Requests the traced run sends from the head of the stream.
  int trace_requests() const { return trace_requests_; }

  /// The request line for `index` (no trailing newline); its id is
  /// "r<index>".
  std::string Line(std::uint64_t index) const;

  /// SHA-256 (hex) of the first kDigestLines lines joined by '\n'. Equal
  /// digests mean two runs sent the same stream.
  std::string Digest() const;
  static constexpr std::uint64_t kDigestLines = 4096;

  /// Verifies a parsed response to request `index`.
  Check Verify(std::uint64_t index, const obs::JsonValue& response) const;

 private:
  Slot SlotAt(std::uint64_t index) const;

  std::string name_;
  std::uint64_t seed_ = 0;
  LoopKind loop_ = LoopKind::kClosed;
  int connections_ = 1;
  int trace_requests_ = 40;
  /// kClosedPool graphs per configuration, configuration index fastest:
  /// instance c + configs * g is graph g of configuration c. Closed-loop
  /// request i uses c = i % configs, g = (i / configs) % pool.
  std::vector<Instance> instances_;
  std::vector<Backend> backends_;
  int configs_ = 1;
  int pool_ = 1;
};

/// Parses the request index back out of a response label "r<index>".
bool ParseLabel(std::string_view label, std::uint64_t* index);

}  // namespace qplex::bench

#endif  // QPLEX_BENCHMARK_WORKLOAD_H_
