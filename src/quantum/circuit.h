#ifndef QPLEX_QUANTUM_CIRCUIT_H_
#define QPLEX_QUANTUM_CIRCUIT_H_

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/status.h"
#include "quantum/gate.h"

namespace qplex {

/// A contiguous range of qubit wires [start, start + width).
struct QubitRange {
  int start = 0;
  int width = 0;

  int operator[](int i) const {
    QPLEX_CHECK(i >= 0 && i < width) << "register index " << i << " of " << width;
    return start + i;
  }
  int end() const { return start + width; }
  /// The wire indices start, start + 1, ..., end() - 1.
  std::vector<int> wires() const {
    std::vector<int> out(static_cast<std::size_t>(width));
    std::iota(out.begin(), out.end(), start);
    return out;
  }
};

/// A gate list over named qubit registers. Circuits are built once by the
/// oracle/arithmetic builders and then executed many times by the simulators.
/// Every supported gate is an involution, so Inverted() is just the reversed
/// gate list — exactly the U_check / U_check^dagger structure of the paper's
/// Fig. 12.
class Circuit {
 public:
  Circuit() = default;

  /// Allocates `width` fresh wires under `name` (names must be unique).
  QubitRange AllocateRegister(const std::string& name, int width);
  /// Allocates a single fresh wire.
  int AllocateQubit(const std::string& name);

  /// Allocates a register under an auto-uniquified name "<hint>.<counter>".
  /// Circuit builders use this for ancillas so callers never clash on names.
  QubitRange AllocateAncilla(const std::string& hint, int width);

  int num_qubits() const { return num_qubits_; }
  int num_gates() const { return static_cast<int>(gates_.size()); }
  const std::vector<Gate>& gates() const { return gates_; }

  /// Registers a cost-accounting stage and makes it current; subsequent
  /// Append() calls are tagged with it. Stage 0 ("default") always exists.
  int BeginStage(const std::string& name);
  const std::vector<std::string>& stage_names() const { return stage_names_; }

  /// Appends a gate (tagged with the current stage). Wire indices are
  /// validated against the allocated qubit count.
  void Append(Gate gate);

  /// Appends the inverse of gates [first_gate, last_gate); lets the oracle
  /// builder uncompute U_check while leaving the oracle flip in place.
  void AppendInverseOfRange(int first_gate, int last_gate);

  /// Inserts gates at the FRONT of the circuit (tagged stage 0). Used to
  /// prepend state-preparation layers when composing a full algorithm
  /// circuit around an already-built oracle.
  void PrependGates(const std::vector<Gate>& gates);

  /// Cost (Gate::Cost sum) per stage (indexed like stage_names()).
  std::vector<std::int64_t> CostsByStage() const;
  /// Total cost across all gates.
  std::int64_t TotalCost() const;

  /// Multi-line listing for debugging / golden tests.
  std::string ToString() const;

 private:
  int num_qubits_ = 0;
  int current_stage_ = 0;
  int ancilla_counter_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::string> stage_names_{"default"};
  std::map<std::string, QubitRange> registers_;
};

}  // namespace qplex

#endif  // QPLEX_QUANTUM_CIRCUIT_H_
