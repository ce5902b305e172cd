#include "oracle/mkp_oracle.h"

#include <algorithm>
#include <string>

#include "arith/adder.h"
#include "arith/comparator.h"
#include "arith/popcount.h"
#include "graph/kplex.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qplex {

bool MkpPredicate(const Graph& graph, int k, int threshold,
                  std::uint64_t mask) {
  if (__builtin_popcountll(mask) < threshold) {
    return false;
  }
  return IsKPlexMask(AdjacencyMasks(graph), mask, k);
}

Result<MkpOracle> MkpOracle::Build(const Graph& graph, int k, int threshold,
                                   const MkpOracleOptions& options) {
  const int n = graph.num_vertices();
  QPLEX_RETURN_IF_ERROR(CheckShape(n, threshold));
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }

  obs::TraceSpan span("oracle.build");
  MkpOracle oracle(n, k, threshold);
  const Graph complement = graph.Complement();
  Circuit& circuit = oracle.circuit_;
  const QubitRange vertices = oracle.vertices();

  // --- Stage A: complement-graph encoding (paper Fig. 6 box A). -------------
  circuit.BeginStage(OracleStages::kEncoding);
  const auto complement_edges = complement.Edges();
  const QubitRange edges =
      circuit.AllocateRegister("e", static_cast<int>(complement_edges.size()));
  for (std::size_t idx = 0; idx < complement_edges.size(); ++idx) {
    const auto& [u, v] = complement_edges[idx];
    circuit.Append(
        MakeCCX(vertices[u], vertices[v], edges[static_cast<int>(idx)]));
  }

  // --- Stage B: per-vertex degree counting (paper Fig. 6 box B). ------------
  circuit.BeginStage(OracleStages::kDegreeCount);
  // Incident complement-edge wires per vertex.
  std::vector<std::vector<int>> incident(n);
  for (std::size_t idx = 0; idx < complement_edges.size(); ++idx) {
    const auto& [u, v] = complement_edges[idx];
    incident[u].push_back(edges[static_cast<int>(idx)]);
    incident[v].push_back(edges[static_cast<int>(idx)]);
  }
  // Counter for vertex i must hold values up to its complement degree and be
  // wide enough to compare against k-1. `counter_wires[v]` ends up holding
  // the little-endian degree of v.
  std::vector<std::vector<int>> counter_wires(n);
  for (Vertex v = 0; v < n; ++v) {
    const int width = std::max(
        BitWidthFor(static_cast<std::uint64_t>(complement.Degree(v))),
        BitWidthFor(static_cast<std::uint64_t>(k - 1)));
    const QubitRange counter =
        circuit.AllocateRegister("c" + std::to_string(v), width);
    counter_wires[v] = counter.wires();
    switch (options.degree_count_mode) {
      case DegreeCountMode::kIncrement:
        AppendPopCount(&circuit, incident[v], counter);
        break;
      case DegreeCountMode::kRippleAdder:
        // The paper's construction: degree = Sum over incident edges, each
        // realised as a full multi-bit addition count <- count + (edge
        // zero-extended to counter width). The edge wire is the preserved `x`
        // operand; the running count is the dirtied `y`; the sum lands on
        // fresh wires which become the new running count.
        for (int edge_wire : incident[v]) {
          std::vector<int> operand{edge_wire};
          if (width > 1) {
            const std::vector<int> pad =
                circuit.AllocateAncilla("deg.pad", width - 1).wires();
            operand.insert(operand.end(), pad.begin(), pad.end());
          }
          const AdderResult sum =
              AppendRippleCarryAdder(&circuit, operand, counter_wires[v]);
          // The top carry cannot fire (the counter is sized for the maximum
          // possible degree), so the counter keeps `width` bits.
          counter_wires[v].assign(sum.sum_wires.begin(),
                                  sum.sum_wires.begin() + width);
        }
        break;
    }
  }

  // --- Degree comparison: d_i = [c_i <= k-1] (paper Fig. 9 box A). ----------
  circuit.BeginStage(OracleStages::kDegreeCompare);
  const QubitRange degree_ok = circuit.AllocateRegister("d", n);
  for (Vertex v = 0; v < n; ++v) {
    AppendLessEqualConst(&circuit, counter_wires[v],
                         static_cast<std::uint64_t>(k - 1), degree_ok[v]);
  }
  // cplex flag: AND over all d_i (paper Fig. 9 box B).
  const int cplex = circuit.AllocateQubit("cplex");
  circuit.Append(MakeMCX(degree_ok.wires(), cplex));

  oracle.AppendThresholdTail(cplex);

  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("oracle.builds").Increment();
  registry.GetGauge("oracle.num_qubits").Set(oracle.num_qubits());
  const OracleCostReport report = oracle.CostReport();
  registry.GetCounter("oracle.stage_cost.encoding").Add(report.encoding);
  registry.GetCounter("oracle.stage_cost.degree_count")
      .Add(report.degree_count);
  registry.GetCounter("oracle.stage_cost.degree_compare")
      .Add(report.degree_compare);
  registry.GetCounter("oracle.stage_cost.size_check").Add(report.size_check);
  registry.GetCounter("oracle.stage_cost.oracle_flip").Add(report.oracle_flip);
  registry.GetCounter("oracle.stage_cost.uncompute").Add(report.uncompute);
  registry.GetHistogram("oracle.total_cost")
      .Record(static_cast<double>(report.ComputeTotal()));

  return oracle;
}

OracleCostReport MkpOracle::CostReport() const {
  OracleCostReport report;
  const auto costs = circuit_.CostsByStage();
  const auto& names = circuit_.stage_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == OracleStages::kEncoding) {
      report.encoding = costs[i];
    } else if (names[i] == OracleStages::kDegreeCount) {
      report.degree_count = costs[i];
    } else if (names[i] == OracleStages::kDegreeCompare) {
      report.degree_compare = costs[i];
    } else if (names[i] == OracleStages::kSizeCheck) {
      report.size_check = costs[i];
    } else if (names[i] == OracleStages::kOracleFlip) {
      report.oracle_flip = costs[i];
    } else if (names[i] == OracleStages::kUncompute) {
      report.uncompute = costs[i];
    }
  }
  return report;
}

}  // namespace qplex
