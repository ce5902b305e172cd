#include "relax/club_oracle.h"

#include <string>

#include "graph/kplex.h"
#include "grover/engine.h"
#include "quantum/statevector.h"
#include "relax/club.h"

namespace qplex {

Result<Club2Oracle> Club2Oracle::Build(const Graph& graph, int threshold) {
  const int n = graph.num_vertices();
  QPLEX_RETURN_IF_ERROR(CheckShape(n, threshold));

  Club2Oracle oracle(n, threshold);
  Circuit& circuit = oracle.circuit_;
  const QubitRange vertices = oracle.vertices();

  // --- Pair reachability: one violation flag per non-adjacent pair. --------
  circuit.BeginStage("pair_check");
  std::vector<Control> no_violation;  // one negated control per violation
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
      no_violation.push_back(Control{violation, false});
    }
  }
  // club flag = AND of negated violations.
  const int club = circuit.AllocateQubit("club");
  circuit.Append(MakeMCX(std::move(no_violation), club));

  oracle.AppendThresholdTail(club);
  return oracle;
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
    VerifiedAttempts run;  // not found when nothing is marked
    if (!marked.empty()) {
      GroverSimulation grover(n, marked);
      const int iterations = OptimalGroverIterations(
          n, static_cast<std::int64_t>(marked.size()));
      // Up to three verified attempts per probe, as in qTKP.
      run = grover.RunAttempts(
          rng, 3, [iterations] { return iterations; },
          [&](std::uint64_t sample) {
            return IsSClubMask(graph, sample, 2) &&
                   __builtin_popcountll(sample) >= mid;
          });
    }
    result.oracle_calls += run.oracle_calls;
    const int size = __builtin_popcountll(run.sample);
    if (run.found && size > result.size) {
      result.size = size;
      result.mask = run.sample;
      result.members = MaskToBitset(n, run.sample).ToList();
    }
    if (run.found) {
      low = std::max(mid, result.size) + 1;
    } else {
      high = mid - 1;
    }
  }
  return result;
}

}  // namespace qplex
