#include "relax/club_oracle.h"

#include <string>

#include "arith/adder.h"
#include "arith/comparator.h"
#include "arith/popcount.h"
#include "graph/kplex.h"
#include "grover/engine.h"
#include "quantum/basis_sim.h"
#include "quantum/statevector.h"
#include "relax/club.h"

namespace qplex {

Result<Club2Oracle> Club2Oracle::Build(const Graph& graph, int threshold) {
  const int n = graph.num_vertices();
  if (n < 1 || n > 64) {
    return Status::InvalidArgument("oracle requires 1 <= n <= 64");
  }
  if (threshold < 0 || threshold > n) {
    return Status::InvalidArgument("threshold outside [0, n]");
  }

  Club2Oracle oracle;
  oracle.num_vertices_ = n;
  oracle.threshold_ = threshold;
  Circuit& circuit = oracle.circuit_;

  const QubitRange vertices = circuit.AllocateRegister("v", n);

  // --- Pair reachability: one violation flag per non-adjacent pair. --------
  circuit.BeginStage("pair_check");
  std::vector<int> violation_wires;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (graph.HasEdge(u, v)) {
        continue;  // adjacent pairs can never violate the diameter bound
      }
      // Common neighbours of u and v.
      std::vector<Vertex> witnesses;
      for (Vertex w : graph.Neighbors(u)) {
        if (graph.HasEdge(w, v)) {
          witnesses.push_back(w);
        }
      }
      const std::string tag =
          std::to_string(u) + "_" + std::to_string(v);
      // no_witness = AND over witnesses of NOT x_w (constant 1 if none).
      const int no_witness = circuit.AllocateQubit("nw" + tag);
      if (witnesses.empty()) {
        circuit.Append(MakeX(no_witness));
      } else {
        std::vector<Control> controls;
        for (Vertex w : witnesses) {
          controls.push_back(Control{vertices[w], false});
        }
        circuit.Append(MakeMCX(std::move(controls), no_witness));
      }
      // violation = x_u AND x_v AND no_witness.
      const int violation = circuit.AllocateQubit("viol" + tag);
      circuit.Append(MakeMCX(
          std::vector<int>{vertices[u], vertices[v], no_witness}, violation));
      violation_wires.push_back(violation);
    }
  }
  // club flag = AND of negated violations.
  const int club = circuit.AllocateQubit("club");
  {
    std::vector<Control> controls;
    for (int wire : violation_wires) {
      controls.push_back(Control{wire, false});
    }
    circuit.Append(MakeMCX(std::move(controls), club));
  }

  // --- Size determination (shared machinery with the k-plex oracle). -------
  circuit.BeginStage("size_check");
  const QubitRange size_reg = circuit.AllocateRegister(
      "size", std::max(BitWidthFor(static_cast<std::uint64_t>(n)),
                       BitWidthFor(static_cast<std::uint64_t>(threshold))));
  {
    std::vector<int> vertex_wires;
    for (Vertex v = 0; v < n; ++v) {
      vertex_wires.push_back(vertices[v]);
    }
    AppendPopCount(&circuit, vertex_wires, size_reg);
  }
  const int size_ok = circuit.AllocateQubit("size_ok");
  {
    std::vector<int> size_wires;
    for (int i = 0; i < size_reg.width; ++i) {
      size_wires.push_back(size_reg[i]);
    }
    AppendGreaterEqualConst(&circuit, size_wires,
                            static_cast<std::uint64_t>(threshold), size_ok);
  }

  const int compute_end = circuit.num_gates();
  circuit.BeginStage("oracle_flip");
  oracle.oracle_wire_ = circuit.AllocateQubit("O");
  circuit.Append(MakeCCX(club, size_ok, oracle.oracle_wire_));
  circuit.BeginStage("uncompute");
  circuit.AppendInverseOfRange(0, compute_end);
  return oracle;
}

bool Club2Oracle::Evaluate(std::uint64_t vertex_mask) const {
  return EvaluateOracleCircuit(circuit_, num_vertices_, oracle_wire_,
                               vertex_mask);
}

Result<bool> Club2Oracle::EvaluateChecked(std::uint64_t vertex_mask) const {
  return EvaluateOracleCircuitChecked(circuit_, num_vertices_, oracle_wire_,
                                      vertex_mask);
}

std::vector<std::uint64_t> Club2Oracle::MarkedStates() const {
  return OracleCircuitMarkedStates(circuit_, num_vertices_, oracle_wire_);
}

Result<Max2ClubResult> RunQMax2Club(const Graph& graph, std::uint64_t seed) {
  const int n = graph.num_vertices();
  if (n < 1 || n > StateVectorSimulator::kMaxQubits) {
    return Status::InvalidArgument("simulation requires 1 <= n <= " +
                                   std::to_string(
                                       StateVectorSimulator::kMaxQubits));
  }
  QPLEX_RETURN_IF_ERROR(CheckSimulationBudget(n));
  Rng rng(seed);
  Max2ClubResult result;
  int low = 1;
  int high = n;
  while (low <= high) {
    const int mid = low + (high - low) / 2;
    QPLEX_ASSIGN_OR_RETURN(Club2Oracle oracle, Club2Oracle::Build(graph, mid));
    const auto marked = oracle.MarkedStates();
    ++result.probes;
    bool found = false;
    if (!marked.empty()) {
      GroverSimulation grover(n, marked);
      const int iterations = OptimalGroverIterations(
          n, static_cast<std::int64_t>(marked.size()));
      // Up to three verified attempts per probe, as in qTKP.
      for (int attempt = 0; attempt < 3 && !found; ++attempt) {
        grover.Reset();
        grover.Run(iterations);
        result.oracle_calls += iterations;
        const std::uint64_t sample = grover.Measure(rng);
        if (IsSClubMask(graph, sample, 2) &&
            __builtin_popcountll(sample) >= mid) {
          found = true;
          const int size = __builtin_popcountll(sample);
          if (size > result.size) {
            result.size = size;
            result.mask = sample;
            result.members = MaskToBitset(n, sample).ToList();
          }
        }
      }
    }
    if (found) {
      low = std::max(mid, result.size) + 1;
    } else {
      high = mid - 1;
    }
  }
  return result;
}

}  // namespace qplex
