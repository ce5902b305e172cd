#include "quantum/basis_sim.h"

#include <algorithm>
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

namespace {

/// One compiled X gate: target ^= AND(positive controls) AND NOT(negative
/// controls). Its controls are BitSlicedProgram::controls[begin, negative)
/// (positive) and [negative, end) (negative).
struct BitSlicedOp {
  std::uint32_t target;
  std::uint32_t begin;
  std::uint32_t negative;
  std::uint32_t end;
};

/// The oracle circuit up to its last gate on the oracle wire, as flat ops
/// over one contiguous control-wire array.
struct BitSlicedProgram {
  std::vector<BitSlicedOp> ops;
  std::vector<std::uint32_t> controls;
  int num_wires = 0;
};

/// Compiles the oracle circuit. The circuits the library builds always
/// compile; a bad wire or an H gate is a programmer error and aborts.
BitSlicedProgram CompileOracle(const Circuit& circuit, int num_vertices,
                               int oracle_wire) {
  QPLEX_CHECK(num_vertices >= 1 && num_vertices <= 64 &&
              num_vertices <= circuit.num_qubits())
      << "vertex register outside the circuit";
  QPLEX_CHECK(oracle_wire >= 0 && oracle_wire < circuit.num_qubits())
      << "oracle wire outside the circuit";
  const std::vector<Gate>& gates = circuit.gates();
  std::size_t stop = 0;  // one past the last X gate targeting the oracle wire
  for (std::size_t i = 0; i < gates.size(); ++i) {
    QPLEX_CHECK(gates[i].kind != GateKind::kH)
        << "H gate leaves the computational basis; use StateVectorSimulator";
    if (gates[i].kind == GateKind::kX && gates[i].target == oracle_wire) {
      stop = i + 1;
    }
  }
  BitSlicedProgram program;
  program.num_wires = circuit.num_qubits();
  program.ops.reserve(stop);
  for (std::size_t i = 0; i < stop; ++i) {
    const Gate& gate = gates[i];
    if (gate.kind != GateKind::kX) {
      continue;  // Z only adds a phase
    }
    BitSlicedOp op;
    op.target = static_cast<std::uint32_t>(gate.target);
    op.begin = static_cast<std::uint32_t>(program.controls.size());
    for (const Control& control : gate.controls) {
      if (control.positive) {
        program.controls.push_back(static_cast<std::uint32_t>(control.qubit));
      }
    }
    op.negative = static_cast<std::uint32_t>(program.controls.size());
    for (const Control& control : gate.controls) {
      if (!control.positive) {
        program.controls.push_back(static_cast<std::uint32_t>(control.qubit));
      }
    }
    op.end = static_cast<std::uint32_t>(program.controls.size());
    program.ops.push_back(op);
  }
  return program;
}

/// Runs `program` on 64 lanes at once: `state` holds one word per wire.
void RunBitSliced(const BitSlicedProgram& program, std::uint64_t* state) {
  const std::uint32_t* controls = program.controls.data();
  for (const BitSlicedOp& op : program.ops) {
    std::uint64_t fire = ~std::uint64_t{0};
    for (std::uint32_t i = op.begin; i < op.negative; ++i) {
      fire &= state[controls[i]];
    }
    for (std::uint32_t i = op.negative; i < op.end; ++i) {
      fire &= ~state[controls[i]];
    }
    state[op.target] ^= fire;
  }
}

/// Bit v of the lane index l in 0..63, as a word over the 64 lanes.
constexpr std::uint64_t kLaneBits[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

}  // namespace

bool EvaluateOracleCircuit(const Circuit& circuit, int num_vertices,
                           int oracle_wire, std::uint64_t vertex_mask) {
  const BitSlicedProgram program =
      CompileOracle(circuit, num_vertices, oracle_wire);
  std::vector<std::uint64_t> state(program.num_wires, 0);
  for (int v = 0; v < num_vertices; ++v) {
    state[v] = (vertex_mask >> v) & 1;
  }
  RunBitSliced(program, state.data());
  return (state[oracle_wire] & 1) != 0;
}

std::vector<std::uint64_t> OracleCircuitMarkedStates(const Circuit& circuit,
                                                     int num_vertices,
                                                     int oracle_wire) {
  QPLEX_CHECK(num_vertices <= 30) << "exhaustive evaluation needs n <= 30";
  const BitSlicedProgram program =
      CompileOracle(circuit, num_vertices, oracle_wire);
  const std::uint64_t space = std::uint64_t{1} << num_vertices;
  // Lanes past 2^n (n < 6) repeat lower masks; they are never reported.
  const std::uint64_t live_lanes =
      space >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << space) - 1;
  const int lane_vertices = std::min(num_vertices, 6);
  std::vector<std::uint64_t> marked;
  std::vector<std::uint64_t> state(program.num_wires);
  for (std::uint64_t base = 0; base < space; base += 64) {
    std::fill(state.begin(), state.end(), 0);
    for (int v = 0; v < lane_vertices; ++v) {
      state[v] = kLaneBits[v];
    }
    for (int v = 6; v < num_vertices; ++v) {
      state[v] = ((base >> v) & 1) != 0 ? ~std::uint64_t{0} : 0;
    }
    RunBitSliced(program, state.data());
    for (std::uint64_t word = state[oracle_wire] & live_lanes; word != 0;
         word &= word - 1) {
      marked.push_back(base + __builtin_ctzll(word));
    }
  }
  return marked;
}

}  // namespace qplex
