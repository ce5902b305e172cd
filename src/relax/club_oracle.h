#ifndef QPLEX_RELAX_CLUB_ORACLE_H_
#define QPLEX_RELAX_CLUB_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "quantum/circuit.h"

namespace qplex {

/// The paper's "Adaptability" claim made concrete (Section III-G): the same
/// encoding / counting / comparison machinery behind the k-plex oracle
/// builds a decision oracle for the 2-club model — is the selected subset a
/// 2-club (induced diameter <= 2) of size >= T?
///
/// Per non-adjacent pair (u, v) the circuit computes
///   no_witness_uv = AND over common neighbours w of NOT x_w
///   violation_uv  = x_u AND x_v AND no_witness_uv
/// and the club flag is the AND of all negated violations; the size stage is
/// shared with the k-plex oracle (popcount + comparator). All gates are
/// classical reversible, so the same bit-sliced evaluator executes it.
class Club2Oracle {
 public:
  static Result<Club2Oracle> Build(const Graph& graph, int threshold);

  int num_vertices() const { return num_vertices_; }
  int threshold() const { return threshold_; }
  const Circuit& circuit() const { return circuit_; }
  int num_qubits() const { return circuit_.num_qubits(); }
  int oracle_wire() const { return oracle_wire_; }

  /// Executes the literal circuit on one subset (one bit-sliced lane).
  bool Evaluate(std::uint64_t vertex_mask) const;

  /// Evaluate + verify the uncompute contract.
  Result<bool> EvaluateChecked(std::uint64_t vertex_mask) const;

  /// All marked subsets in increasing order (exhaustive, bit-sliced; n <=
  /// 30).
  std::vector<std::uint64_t> MarkedStates() const;

 private:
  Club2Oracle() = default;

  int num_vertices_ = 0;
  int threshold_ = 0;
  Circuit circuit_;
  int oracle_wire_ = 0;
};

/// Result of the Grover-based maximum 2-club search.
struct Max2ClubResult {
  VertexList members;
  int size = 0;
  std::uint64_t mask = 0;
  std::int64_t oracle_calls = 0;
  int probes = 0;
};

/// Maximum 2-club via binary search over T driving Grover searches, the
/// direct analogue of qMKP. Requires n <= StateVectorSimulator limits.
Result<Max2ClubResult> RunQMax2Club(const Graph& graph, std::uint64_t seed);

}  // namespace qplex

#endif  // QPLEX_RELAX_CLUB_ORACLE_H_
