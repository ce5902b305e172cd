#ifndef QPLEX_QUANTUM_BASIS_SIM_H_
#define QPLEX_QUANTUM_BASIS_SIM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "quantum/bitstring.h"
#include "quantum/circuit.h"

namespace qplex {

/// Executes classical reversible circuits (X with arbitrary controls; Z gates
/// are phase-only and tracked separately) on a single computational-basis
/// state, bit by bit. It is the scalar reference the bit-sliced oracle
/// evaluator below is checked against: EvaluateOracleCircuitChecked runs the
/// full literal oracle circuit through it, uncompute included.
class BasisStateSimulator {
 public:
  /// Creates a simulator over `circuit.num_qubits()` wires, all |0>.
  explicit BasisStateSimulator(int num_qubits) : state_(num_qubits) {}

  /// Read/write access to the classical state between runs.
  const BitString& state() const { return state_; }
  BitString* mutable_state() { return &state_; }

  /// Accumulated phase parity from Z-type gates: the state has amplitude
  /// (-1)^phase_parity. Grover oracles built as MCZ gates surface here.
  bool phase_parity() const { return phase_parity_; }
  void reset_phase() { phase_parity_ = false; }

  /// Applies one gate. Returns FailedPrecondition for H gates — a Hadamard
  /// takes a basis state out of the computational basis.
  Status Apply(const Gate& gate);

  /// Runs every gate of `circuit` in order.
  Status Run(const Circuit& circuit);

  /// Convenience: zeroes the state, stores `input` into wires
  /// [0, input.size()), runs the circuit, and returns the final state.
  static Result<BitString> Execute(const Circuit& circuit,
                                   const BitString& input);

  /// True when every control of `gate` matches its polarity in `state`.
  static bool ControlsFire(const Gate& gate, const BitString& state);

 private:
  BitString state_;
  bool phase_parity_ = false;
};

/// Oracle evaluation shared by the k-plex and 2-club oracle circuits: a vertex
/// subset enters in wires [0, num_vertices), the verdict leaves on
/// `oracle_wire`. The oracle circuits are O(n^2 log n) wires wide — far
/// beyond dense state-vector simulation — but purely classical, so they are
/// executed bit-sliced: the gate list is compiled once per call into flat ops
/// (target, positive controls, negative controls; Z gates are phase-only and
/// dropped), and wire w of one uint64_t word holds bit w of 64 basis states.
/// A gate then costs one AND/ANDN per control and one XOR for all 64 states.
/// Evaluation stops after the last gate that targets `oracle_wire`: later
/// gates (U_check^dagger) only touch other wires, so they cannot change the
/// verdict. A circuit containing an H gate, or a wire outside the circuit,
/// is a programmer error and aborts.

/// Evaluates one vertex subset (a single lane of the bit-sliced evaluator).
bool EvaluateOracleCircuit(const Circuit& circuit, int num_vertices,
                           int oracle_wire, std::uint64_t vertex_mask);

/// Every vertex mask the oracle marks, in increasing order, by exhaustive
/// evaluation over the 2^n masks (n <= 30), 64 masks per word operation.
std::vector<std::uint64_t> OracleCircuitMarkedStates(const Circuit& circuit,
                                                     int num_vertices,
                                                     int oracle_wire);

/// Like EvaluateOracleCircuit, but runs the full circuit on the scalar
/// BasisStateSimulator and checks the uncompute contract: every wire except
/// the oracle wire ends as it started (ancillas back to |0>, the vertex
/// register unchanged). Returns Internal if it is violated.
Result<bool> EvaluateOracleCircuitChecked(const Circuit& circuit,
                                          int num_vertices, int oracle_wire,
                                          std::uint64_t vertex_mask);

}  // namespace qplex

#endif  // QPLEX_QUANTUM_BASIS_SIM_H_
