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
/// state. This is how qplex runs the paper's literal oracle circuits, whose
/// width is O(n^2 log n) qubits — far beyond dense state-vector simulation
/// but trivial one basis state at a time.
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
/// `oracle_wire`. Each call executes the literal gate list once.
bool EvaluateOracleCircuit(const Circuit& circuit, int num_vertices,
                           int oracle_wire, std::uint64_t vertex_mask);

/// Like EvaluateOracleCircuit, but also checks the uncompute contract: every
/// wire except the oracle wire ends as it started (ancillas back to |0>, the
/// vertex register unchanged). Returns Internal if it is violated.
Result<bool> EvaluateOracleCircuitChecked(const Circuit& circuit,
                                          int num_vertices, int oracle_wire,
                                          std::uint64_t vertex_mask);

/// Every vertex mask the oracle marks, by exhaustive evaluation over the 2^n
/// masks in increasing order (n <= 30).
std::vector<std::uint64_t> OracleCircuitMarkedStates(const Circuit& circuit,
                                                     int num_vertices,
                                                     int oracle_wire);

}  // namespace qplex

#endif  // QPLEX_QUANTUM_BASIS_SIM_H_
