#include "qubo/mkp_qubo.h"

#include <algorithm>
#include <cstdint>

#include "graph/kplex.h"

namespace qplex {
namespace {

/// Bits needed to represent 0..max_value (>= 0 bits; 0 when max_value == 0).
int SlackBitsFor(int max_value) {
  int bits = 0;
  while ((max_value >> bits) != 0) {
    ++bits;
  }
  return bits;
}

}  // namespace

VertexList MkpQubo::DecodeVertices(const QuboSample& sample) const {
  QPLEX_CHECK(static_cast<int>(sample.size()) == num_variables())
      << "sample arity mismatch";
  VertexList vertices;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (sample[v]) {
      vertices.push_back(v);
    }
  }
  return vertices;
}

bool MkpQubo::IsFeasible(const QuboSample& sample) const {
  const VertexList vertices = DecodeVertices(sample);
  return IsKPlex(graph,
                 VertexBitset::FromList(graph.num_vertices(), vertices), k);
}

VertexList MkpQubo::RepairToPlex(const QuboSample& sample) const {
  QPLEX_CHECK(static_cast<int>(sample.size()) == num_variables())
      << "sample arity mismatch";
  const int n = graph.num_vertices();
  VertexBitset members(n);
  for (Vertex v = 0; v < n; ++v) {
    if (sample[v]) {
      members.Set(v);
    }
  }
  // Repeatedly drop the member with the largest degree deficit.
  for (;;) {
    const int size = members.Count();
    Vertex worst = -1;
    int worst_deficit = 0;
    for (Vertex v : members.ToList()) {
      const int deficit = (size - k) - graph.DegreeIn(v, members);
      if (deficit > worst_deficit) {
        worst_deficit = deficit;
        worst = v;
      }
    }
    if (worst < 0) {
      break;  // already a k-plex
    }
    members.Reset(worst);
  }
  return members.ToList();
}

void MkpQubo::OptimizeSlacks(QuboSample* sample) const {
  QPLEX_CHECK(sample != nullptr && static_cast<int>(sample->size()) ==
                                        num_variables())
      << "sample arity mismatch";
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const int big_m_v = big_m[v];
    // Residual the slack has to absorb:
    //   s = (k-1) + M(1-x_v) - sum_{j in N-bar(v)} x_j.
    int selected_neighbors = 0;
    for (Vertex j : complement.Neighbors(v)) {
      selected_neighbors += (*sample)[j];
    }
    int residual =
        (k - 1) + (((*sample)[v]) ? 0 : big_m_v) - selected_neighbors;
    const int bits = slack_bits[v];
    const int max_slack = (1 << bits) - 1;
    residual = std::clamp(residual, 0, max_slack);
    for (int r = 0; r < bits; ++r) {
      (*sample)[slack_offset[v] + r] =
          static_cast<std::uint8_t>((residual >> r) & 1);
    }
  }
}

void MkpQubo::ImproveSample(QuboSample* sample) const {
  QPLEX_CHECK(sample != nullptr && static_cast<int>(sample->size()) ==
                                        num_variables())
      << "sample arity mismatch";
  const int n = graph.num_vertices();
  VertexBitset members(n);
  for (Vertex v : RepairToPlex(*sample)) {
    members.Set(v);
  }
  // Greedy extension: repeatedly add any vertex that keeps the set a k-plex
  // (highest-degree candidates first, mirroring the BS greedy bound). The
  // member check uses deg_{P+v}(u) = deg_P(u) + [u ~ v], so no temporary
  // subset is built per candidate.
  bool grew = true;
  while (grew) {
    grew = false;
    const int size = members.Count();
    Vertex pick = -1;
    int pick_degree = -1;
    for (Vertex v = 0; v < n; ++v) {
      if (members.Test(v)) {
        continue;
      }
      if (graph.DegreeIn(v, members) < size + 1 - k) {
        continue;
      }
      const bool feasible = members.ForEachBitWhile([&](Vertex u) {
        return graph.DegreeIn(u, members) + (graph.HasEdge(u, v) ? 1 : 0) >=
               size + 1 - k;
      });
      if (feasible && graph.Degree(v) > pick_degree) {
        pick = v;
        pick_degree = graph.Degree(v);
      }
    }
    if (pick >= 0) {
      members.Set(pick);
      grew = true;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    (*sample)[v] = members.Test(v) ? 1 : 0;
  }
  OptimizeSlacks(sample);
}

Result<MkpQubo> BuildMkpQubo(const Graph& graph, int k,
                             const MkpQuboOptions& options) {
  const int n = graph.num_vertices();
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.penalty <= 1.0) {
    return Status::InvalidArgument(
        "penalty R must exceed 1 (correctness bound, Section IV-B)");
  }

  MkpQubo qubo;
  qubo.graph = graph;
  qubo.complement = graph.Complement();
  qubo.k = k;
  qubo.penalty = options.penalty;

  const Graph& complement = qubo.complement;

  // Variable layout: vertices first, then each vertex's slack bits. The
  // paper's L_i = ceil(log2 max{d-bar(v_i), k-1}); we use the bit count that
  // exactly covers the slack's true maximum max{d-bar(v_i), k-1} (identical
  // except when that maximum is a power of two, where the paper's formula
  // under-allocates by one bit and would penalize valid assignments).
  qubo.slack_offset.assign(n, 0);
  qubo.slack_bits.assign(n, 0);
  qubo.big_m.assign(n, 0);
  const int max_degree_bar = complement.MaxDegree();
  int next_variable = n;
  for (Vertex v = 0; v < n; ++v) {
    const int degree_for_m =
        options.use_global_big_m ? max_degree_bar : complement.Degree(v);
    qubo.big_m[v] = degree_for_m - k + 1;
    // Slack maximum: (k-1) + M_v when x_v = 0 and no complement neighbour is
    // selected, or k-1 when x_v = 1 — whichever is larger.
    const int max_slack = std::max((k - 1) + qubo.big_m[v], k - 1);
    qubo.slack_offset[v] = next_variable;
    qubo.slack_bits[v] = SlackBitsFor(max_slack);
    next_variable += qubo.slack_bits[v];
  }

  QuboBuilder builder(next_variable);
  // Objective: maximize the plex size.
  for (Vertex v = 0; v < n; ++v) {
    builder.AddLinear(v, -1.0);
  }

  // Penalty per vertex: R * (sum_{j in N-bar(v)} x_j + s_v - (k-1)
  //                          - M_v (1 - x_v))^2
  // expanded as R * (sum_t c_t z_t + constant)^2 over binary z_t.
  const double R = options.penalty;
  for (Vertex v = 0; v < n; ++v) {
    if (StopRequested(options.cancel)) {
      return Status::DeadlineExceeded(
          "qaMKP QUBO build stopped early (deadline or cancellation)");
    }
    const double big_m = static_cast<double>(qubo.big_m[v]);
    std::vector<std::pair<int, double>> terms;  // (variable, coefficient)
    for (Vertex j : complement.Neighbors(v)) {
      terms.emplace_back(j, 1.0);
    }
    for (int r = 0; r < qubo.slack_bits[v]; ++r) {
      terms.emplace_back(qubo.slack_offset[v] + r,
                         static_cast<double>(1 << r));
    }
    terms.emplace_back(v, big_m);
    const double constant = -(static_cast<double>(k - 1) + big_m);

    builder.AddOffset(R * constant * constant);
    for (std::size_t a = 0; a < terms.size(); ++a) {
      const auto& [var_a, coeff_a] = terms[a];
      // Diagonal: (c_a z_a)^2 = c_a^2 z_a, plus the cross term with the
      // constant.
      builder.AddLinear(var_a,
                        R * (coeff_a * coeff_a + 2.0 * coeff_a * constant));
      for (std::size_t b = a + 1; b < terms.size(); ++b) {
        const auto& [var_b, coeff_b] = terms[b];
        builder.AddQuadratic(var_a, var_b, R * 2.0 * coeff_a * coeff_b);
      }
    }
  }

  qubo.model = builder.Build();
  return qubo;
}

}  // namespace qplex
