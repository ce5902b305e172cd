#include "oracle/threshold_oracle.h"

#include <algorithm>

#include "arith/adder.h"
#include "arith/comparator.h"
#include "arith/popcount.h"
#include "quantum/basis_sim.h"

namespace qplex {

Status ThresholdOracle::CheckShape(int num_vertices, int threshold) {
  if (num_vertices < 1 || num_vertices > 64) {
    return Status::InvalidArgument("oracle requires 1 <= n <= 64");
  }
  if (threshold < 0 || threshold > num_vertices) {
    return Status::InvalidArgument("threshold outside [0, n]");
  }
  return Status::Ok();
}

ThresholdOracle::ThresholdOracle(int num_vertices, int threshold)
    : num_vertices_(num_vertices), threshold_(threshold) {
  circuit_.AllocateRegister("v", num_vertices);
}

void ThresholdOracle::AppendThresholdTail(int feasible_wire) {
  // --- Size determination: popcount(v) >= T (paper Fig. 11 boxes A-B). ------
  circuit_.BeginStage(OracleStages::kSizeCheck);
  const QubitRange size_reg = circuit_.AllocateRegister(
      "size",
      std::max(BitWidthFor(static_cast<std::uint64_t>(num_vertices_)),
               BitWidthFor(static_cast<std::uint64_t>(threshold_))));
  AppendPopCount(&circuit_, vertices().wires(), size_reg);
  const int size_ok = circuit_.AllocateQubit("size_ok");
  AppendGreaterEqualConst(&circuit_, size_reg.wires(),
                          static_cast<std::uint64_t>(threshold_), size_ok);

  const int compute_end = circuit_.num_gates();

  // --- Oracle flip (paper Fig. 11 box C): O ^= feasible AND size_ok. --------
  circuit_.BeginStage(OracleStages::kOracleFlip);
  oracle_wire_ = circuit_.AllocateQubit("O");
  circuit_.Append(MakeCCX(feasible_wire, size_ok, oracle_wire_));

  // --- U_check^dagger: restore every ancilla (paper Fig. 12). ---------------
  circuit_.BeginStage(OracleStages::kUncompute);
  circuit_.AppendInverseOfRange(0, compute_end);
}

bool ThresholdOracle::Evaluate(std::uint64_t vertex_mask) const {
  return EvaluateOracleCircuit(circuit_, num_vertices_, oracle_wire_,
                               vertex_mask);
}

Result<bool> ThresholdOracle::EvaluateChecked(std::uint64_t vertex_mask) const {
  return EvaluateOracleCircuitChecked(circuit_, num_vertices_, oracle_wire_,
                                      vertex_mask);
}

std::vector<std::uint64_t> ThresholdOracle::MarkedStates() const {
  return OracleCircuitMarkedStates(circuit_, num_vertices_, oracle_wire_);
}

}  // namespace qplex
