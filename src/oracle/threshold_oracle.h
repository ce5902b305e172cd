#ifndef QPLEX_ORACLE_THRESHOLD_ORACLE_H_
#define QPLEX_ORACLE_THRESHOLD_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "quantum/circuit.h"

namespace qplex {

/// Names of the oracle's cost-accounted stages, in circuit order. The paper's
/// Table V reports the runtime share of the middle three.
struct OracleStages {
  static constexpr const char* kEncoding = "encoding";
  static constexpr const char* kDegreeCount = "degree_count";
  static constexpr const char* kDegreeCompare = "degree_compare";
  static constexpr const char* kSizeCheck = "size_check";
  static constexpr const char* kOracleFlip = "oracle_flip";
  static constexpr const char* kUncompute = "uncompute";
};

/// A decision oracle "is the selected vertex subset feasible, with at least
/// `threshold` vertices?" as a literal classical-reversible circuit. The
/// paper's qTKP oracle (Figs. 6-12) has two parts, and so does this type:
///
///   - a feasibility check that a subclass appends (the k-plex encoding,
///     degree count and degree compare; the 2-club pair check), ending on
///     one feasibility wire;
///   - the threshold tail, written once here: size determination
///     (popcount(v) >= T, Fig. 11 boxes A-B), the flip
///     O ^= feasible AND size_ok (box C) and U_check^dagger (Fig. 12).
///
/// The vertex register occupies wires [0, n), so a basis input is a vertex
/// mask, and the evaluation calls run the bit-sliced evaluator of
/// quantum/basis_sim.h over the circuit.
class ThresholdOracle {
 public:
  int num_vertices() const { return num_vertices_; }
  int threshold() const { return threshold_; }

  /// The full oracle circuit: U_check, oracle flip, U_check^dagger.
  const Circuit& circuit() const { return circuit_; }

  /// Total width (vertex + ancilla qubits) — the paper's O(n^2 log n) space
  /// for the k-plex oracle.
  int num_qubits() const { return circuit_.num_qubits(); }

  /// Wire index of the oracle output qubit (for tests).
  int oracle_wire() const { return oracle_wire_; }

  /// Evaluates the oracle on a vertex subset by executing the literal gate
  /// list on one lane of the bit-sliced evaluator; returns the oracle bit.
  /// Cost: one compile pass over the circuit, then one word op per gate up to
  /// the oracle flip (U_check^dagger cannot change the verdict and is skipped).
  bool Evaluate(std::uint64_t vertex_mask) const;

  /// Like Evaluate, but also verifies that every ancilla wire is restored to
  /// |0> and the vertex register is unchanged (the uncompute contract).
  /// Returns InternalError if the contract is violated.
  Result<bool> EvaluateChecked(std::uint64_t vertex_mask) const;

  /// All marked subsets in increasing order, by exhaustive bit-sliced
  /// evaluation over the 2^n masks (64 per word op).
  std::vector<std::uint64_t> MarkedStates() const;

 protected:
  /// Rejects a graph outside 1 <= n <= 64 (mask-indexed search space) and a
  /// threshold outside [0, n].
  static Status CheckShape(int num_vertices, int threshold);

  /// Allocates the vertex register "v" on wires [0, num_vertices).
  ThresholdOracle(int num_vertices, int threshold);

  QubitRange vertices() const { return QubitRange{0, num_vertices_}; }

  /// Appends the threshold tail behind `feasible_wire`: stage size_check
  /// (register "size", wire "size_ok"), stage oracle_flip (wire "O"), then
  /// stage uncompute, which inverts every gate before the flip.
  void AppendThresholdTail(int feasible_wire);

  Circuit circuit_;

 private:
  int num_vertices_ = 0;
  int threshold_ = 0;
  int oracle_wire_ = 0;
};

}  // namespace qplex

#endif  // QPLEX_ORACLE_THRESHOLD_ORACLE_H_
