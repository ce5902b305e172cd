#include "quantum/basis_sim.h"

#include <string>

namespace qplex {

bool BasisStateSimulator::ControlsFire(const Gate& gate,
                                       const BitString& state) {
  for (const Control& control : gate.controls) {
    if (state.Get(control.qubit) != control.positive) {
      return false;
    }
  }
  return true;
}

Status BasisStateSimulator::Apply(const Gate& gate) {
  switch (gate.kind) {
    case GateKind::kX:
      if (ControlsFire(gate, state_)) {
        state_.Flip(gate.target);
      }
      return Status::Ok();
    case GateKind::kZ:
      // Z contributes a -1 phase when the target is |1> and controls fire.
      if (state_.Get(gate.target) && ControlsFire(gate, state_)) {
        phase_parity_ = !phase_parity_;
      }
      return Status::Ok();
    case GateKind::kH:
      return Status::FailedPrecondition(
          "H gate leaves the computational basis; use StateVectorSimulator");
  }
  return Status::Internal("unknown gate kind");
}

Status BasisStateSimulator::Run(const Circuit& circuit) {
  QPLEX_CHECK(state_.size() >= circuit.num_qubits())
      << "simulator narrower than circuit";
  for (const Gate& gate : circuit.gates()) {
    QPLEX_RETURN_IF_ERROR(Apply(gate));
  }
  return Status::Ok();
}

Result<BitString> BasisStateSimulator::Execute(const Circuit& circuit,
                                               const BitString& input) {
  if (input.size() > circuit.num_qubits()) {
    return Status::InvalidArgument("input wider than circuit");
  }
  BasisStateSimulator sim(circuit.num_qubits());
  for (int i = 0; i < input.size(); ++i) {
    sim.mutable_state()->Set(i, input.Get(i));
  }
  QPLEX_RETURN_IF_ERROR(sim.Run(circuit));
  return sim.state();
}

bool EvaluateOracleCircuit(const Circuit& circuit, int num_vertices,
                           int oracle_wire, std::uint64_t vertex_mask) {
  BitString input(circuit.num_qubits());
  input.StoreInt(0, num_vertices, vertex_mask);
  Result<BitString> final_state = BasisStateSimulator::Execute(circuit, input);
  QPLEX_CHECK(final_state.ok()) << final_state.status().ToString();
  return final_state.value().Get(oracle_wire);
}

Result<bool> EvaluateOracleCircuitChecked(const Circuit& circuit,
                                          int num_vertices, int oracle_wire,
                                          std::uint64_t vertex_mask) {
  BitString input(circuit.num_qubits());
  input.StoreInt(0, num_vertices, vertex_mask);
  QPLEX_ASSIGN_OR_RETURN(BitString final_state,
                         BasisStateSimulator::Execute(circuit, input));
  for (int wire = 0; wire < circuit.num_qubits(); ++wire) {
    if (wire != oracle_wire && final_state.Get(wire) != input.Get(wire)) {
      return Status::Internal("ancilla wire " + std::to_string(wire) +
                              " not restored by uncompute");
    }
  }
  return final_state.Get(oracle_wire);
}

std::vector<std::uint64_t> OracleCircuitMarkedStates(const Circuit& circuit,
                                                     int num_vertices,
                                                     int oracle_wire) {
  QPLEX_CHECK(num_vertices <= 30) << "exhaustive evaluation needs n <= 30";
  std::vector<std::uint64_t> marked;
  const std::uint64_t space = std::uint64_t{1} << num_vertices;
  for (std::uint64_t mask = 0; mask < space; ++mask) {
    if (EvaluateOracleCircuit(circuit, num_vertices, oracle_wire, mask)) {
      marked.push_back(mask);
    }
  }
  return marked;
}

}  // namespace qplex
