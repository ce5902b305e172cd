#ifndef QPLEX_ORACLE_MKP_ORACLE_H_
#define QPLEX_ORACLE_MKP_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "oracle/threshold_oracle.h"

namespace qplex {

/// Per-stage gate/cost statistics of a built oracle.
struct OracleCostReport {
  std::int64_t encoding = 0;
  std::int64_t degree_count = 0;
  std::int64_t degree_compare = 0;
  std::int64_t size_check = 0;
  std::int64_t oracle_flip = 0;
  std::int64_t uncompute = 0;

  std::int64_t ComputeTotal() const {
    return encoding + degree_count + degree_compare + size_check;
  }
};

/// How the degree-count stage accumulates each vertex's activated edges.
enum class DegreeCountMode {
  /// The paper's construction (Figs. 7-8): one full multi-bit ripple-carry
  /// addition per incident edge. Costs O(log n) full adders per edge, which
  /// is why degree counting dominates the oracle runtime (Table V).
  kRippleAdder,
  /// A compact MCX controlled-increment counter — ablation variant showing
  /// how much of the oracle cost the paper's adder chains account for.
  kIncrement,
};

/// Build-time options for the oracle.
struct MkpOracleOptions {
  DegreeCountMode degree_count_mode = DegreeCountMode::kRippleAdder;
};

/// The qTKP decision oracle of the paper (Sections III-B..III-E): given a
/// subset of vertices (one qubit per vertex), decide whether it is a k-plex
/// of the input graph with size >= threshold T. Internally the circuit works
/// on the complement graph, checking the k-cplex condition deg <= k-1:
///
///   vertex reg --+--[A encoding: CCX per complement edge]--
///                +--[B degree count: popcount into c_i]--
///                +--[degree compare: d_i = (c_i <= k-1); cplex = AND d_i]--
///                +--[size check: popcount(v) >= T; O ^= cplex AND size_ok]--
///                +--[U_check^dagger uncompute]--
///
/// The first three stages are the feasibility check built here; the size
/// check, flip and uncompute are the ThresholdOracle tail. All gates are
/// classical-reversible (X with controls), so the circuit can be evaluated
/// exactly on computational-basis states however many ancillas it uses —
/// bit-sliced, 64 basis states per word operation (see quantum/basis_sim.h).
/// This is the trick that lets qplex execute the literal paper construction,
/// whose width is O(n^2 log n) qubits.
class MkpOracle : public ThresholdOracle {
 public:
  /// Builds the oracle for `graph`, plex parameter `k` (>= 1) and size
  /// threshold `threshold` in [0, n]. Requires n <= 64 (mask-indexed search
  /// space); the Grover driver further restricts n by state-vector size.
  static Result<MkpOracle> Build(const Graph& graph, int k, int threshold,
                                 const MkpOracleOptions& options = {});

  int k() const { return k_; }

  /// Per-stage cost report (Gate::Cost sums — a hardware-time proxy where a
  /// C^kNOT costs k+1).
  OracleCostReport CostReport() const;

 private:
  MkpOracle(int num_vertices, int k, int threshold)
      : ThresholdOracle(num_vertices, threshold), k_(k) {}

  int k_ = 0;
};

/// The semantic reference the circuit must agree with: subset `mask` is a
/// k-plex of `graph` with at least `threshold` vertices. Used for
/// cross-validation and as the fast oracle backend for large shot counts.
bool MkpPredicate(const Graph& graph, int k, int threshold,
                  std::uint64_t mask);

}  // namespace qplex

#endif  // QPLEX_ORACLE_MKP_ORACLE_H_
