#include "quantum/circuit.h"

#include <sstream>

namespace qplex {

QubitRange Circuit::AllocateRegister(const std::string& name, int width) {
  QPLEX_CHECK(width >= 0) << "negative register width";
  QPLEX_CHECK(registers_.find(name) == registers_.end())
      << "duplicate register name: " << name;
  const QubitRange range{num_qubits_, width};
  num_qubits_ += width;
  registers_.emplace(name, range);
  return range;
}

int Circuit::AllocateQubit(const std::string& name) {
  return AllocateRegister(name, 1).start;
}

QubitRange Circuit::AllocateAncilla(const std::string& hint, int width) {
  return AllocateRegister(hint + "." + std::to_string(ancilla_counter_++),
                          width);
}

int Circuit::BeginStage(const std::string& name) {
  for (std::size_t i = 0; i < stage_names_.size(); ++i) {
    if (stage_names_[i] == name) {
      current_stage_ = static_cast<int>(i);
      return current_stage_;
    }
  }
  stage_names_.push_back(name);
  current_stage_ = static_cast<int>(stage_names_.size()) - 1;
  return current_stage_;
}

void Circuit::Append(Gate gate) {
  QPLEX_CHECK(gate.target >= 0 && gate.target < num_qubits_)
      << "gate target " << gate.target << " outside " << num_qubits_
      << " wires";
  for (const Control& control : gate.controls) {
    QPLEX_CHECK(control.qubit >= 0 && control.qubit < num_qubits_)
        << "control " << control.qubit << " outside " << num_qubits_
        << " wires";
    QPLEX_CHECK(control.qubit != gate.target)
        << "control and target coincide on qubit " << control.qubit;
  }
  gate.stage = current_stage_;
  gates_.push_back(std::move(gate));
}

void Circuit::AppendInverseOfRange(int first_gate, int last_gate) {
  QPLEX_CHECK(first_gate >= 0 && first_gate <= last_gate &&
              last_gate <= num_gates())
      << "bad gate range [" << first_gate << ", " << last_gate << ")";
  // All gate kinds are involutions, so the inverse of g1 g2 ... gk is
  // gk ... g2 g1.
  for (int i = last_gate - 1; i >= first_gate; --i) {
    Append(gates_[i]);
  }
}

void Circuit::PrependGates(const std::vector<Gate>& gates) {
  std::vector<Gate> validated;
  validated.reserve(gates.size());
  for (Gate gate : gates) {
    QPLEX_CHECK(gate.target >= 0 && gate.target < num_qubits_)
        << "prepended gate target " << gate.target << " outside wires";
    gate.stage = 0;
    validated.push_back(std::move(gate));
  }
  gates_.insert(gates_.begin(), validated.begin(), validated.end());
}

std::vector<std::int64_t> Circuit::CostsByStage() const {
  std::vector<std::int64_t> costs(stage_names_.size(), 0);
  for (const Gate& gate : gates_) {
    costs[gate.stage] += gate.Cost();
  }
  return costs;
}

std::int64_t Circuit::TotalCost() const {
  std::int64_t total = 0;
  for (const Gate& gate : gates_) {
    total += gate.Cost();
  }
  return total;
}

std::string Circuit::ToString() const {
  std::ostringstream out;
  out << "Circuit(" << num_qubits_ << " qubits, " << num_gates()
      << " gates)\n";
  for (const auto& [name, range] : registers_) {
    out << "  reg " << name << ": [" << range.start << ", " << range.end()
        << ")\n";
  }
  for (const Gate& gate : gates_) {
    out << "  " << gate.ToString() << "  #" << stage_names_[gate.stage]
        << "\n";
  }
  return out.str();
}

}  // namespace qplex
