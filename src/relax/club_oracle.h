#ifndef QPLEX_RELAX_CLUB_ORACLE_H_
#define QPLEX_RELAX_CLUB_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "oracle/threshold_oracle.h"

namespace qplex {

/// The paper's "Adaptability" claim made concrete (Section III-G): the same
/// encoding / counting / comparison machinery behind the k-plex oracle
/// builds a decision oracle for the 2-club model — is the selected subset a
/// 2-club (induced diameter <= 2) of size >= T?
///
/// Per non-adjacent pair (u, v) the circuit computes
///   no_witness_uv = AND over common neighbours w of NOT x_w
///   violation_uv  = x_u AND x_v AND no_witness_uv
/// and the club flag is the AND of all negated violations. That pair check is
/// the only stage built here: the size check, flip and uncompute are the
/// ThresholdOracle tail the k-plex oracle uses too. All gates are classical
/// reversible, so the same bit-sliced evaluator executes it.
class Club2Oracle : public ThresholdOracle {
 public:
  static Result<Club2Oracle> Build(const Graph& graph, int threshold);

 private:
  using ThresholdOracle::ThresholdOracle;
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
