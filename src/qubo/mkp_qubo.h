#ifndef QPLEX_QUBO_MKP_QUBO_H_
#define QPLEX_QUBO_MKP_QUBO_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "qubo/qubo_model.h"

namespace qplex {

/// The qaMKP QUBO of the paper (Eq. 13):
///
///   F = -sum_i x_i
///       + R * sum_i ( sum_{j in N-bar(i)} x_j + s_i - (k-1) - M_i(1-x_i) )^2
///
/// built on the complement graph N-bar, with per-vertex big-M
/// M_i = d-bar(v_i) - k + 1 and slack s_i expanded over L_i binary bits.
/// Minimizing F over {x, s} solves MKP: at the optimum, the x bits select a
/// maximum k-plex and the penalty vanishes.
struct MkpQubo {
  QuboModel model = QuboModel(0);
  /// The original input graph (the plex is reported against it).
  Graph graph;
  /// Cached complement N-bar, computed once in BuildMkpQubo; every penalty
  /// and slack computation walks complement neighborhoods, and rebuilding it
  /// per OptimizeSlacks call is O(n^2) wasted on the hybrid solver hot path.
  Graph complement;
  int k = 0;
  double penalty = 0;  ///< R

  /// Variable layout: x_i is variable i for i in [0, n); slack bit r of
  /// vertex i is slack_offset[i] + r with slack_bits[i] bits total.
  std::vector<int> slack_offset;
  std::vector<int> slack_bits;
  /// The big-M used for each vertex's constraint.
  std::vector<int> big_m;

  int num_vertices() const { return graph.num_vertices(); }
  int num_variables() const { return model.num_variables(); }
  int num_slack_variables() const {
    return model.num_variables() - graph.num_vertices();
  }

  /// Extracts the selected vertex set from a sample (slacks ignored).
  VertexList DecodeVertices(const QuboSample& sample) const;

  /// True when the decoded vertex set is a k-plex (i.e. the sample is
  /// feasible regardless of slack configuration).
  bool IsFeasible(const QuboSample& sample) const;

  /// Energy of a sample (convenience for model.Evaluate).
  double Cost(const QuboSample& sample) const { return model.Evaluate(sample); }

  /// The best achievable cost for a k-plex of size `size` (penalty 0):
  /// -size. Used to recognise optimal samples in the harnesses.
  static double CostOfPlexSize(int size) { return -static_cast<double>(size); }

  /// Greedily repairs an infeasible sample by removing the most-violating
  /// vertices until the decoded set is a k-plex; returns the repaired size.
  /// (The hybrid solver's classical post-processing step.)
  VertexList RepairToPlex(const QuboSample& sample) const;

  /// Sets the slack bits of `sample` to the values that minimize each
  /// vertex's penalty given the current x bits (slacks are auxiliary; this is
  /// the "slack variables need not be optimal" note of Section IV-C).
  void OptimizeSlacks(QuboSample* sample) const;

  /// Domain-aware polish: decodes the sample, repairs it to a k-plex,
  /// greedily extends the plex while the k-plex invariant holds, and writes
  /// the result back with optimally configured slacks. Always leaves the
  /// sample feasible with energy -|plex|. This is the classical refinement
  /// half a hybrid annealing service applies between quantum samples.
  void ImproveSample(QuboSample* sample) const;
};

/// Options for BuildMkpQubo.
struct MkpQuboOptions {
  /// Penalty strength R; the paper proves R > 1 is required and finds R = 2
  /// best in practice (Table VII).
  double penalty = 2.0;
  /// Ablation switch: use one worst-case big-M (max complement degree) for
  /// every vertex instead of the paper's per-vertex M_i = d-bar(v_i) - k + 1.
  /// Demonstrates how much the per-vertex choice saves in slack bits
  /// (Section IV-B1 argues for the smallest safe M).
  bool use_global_big_m = false;
  /// Wall-clock budget; <= 0 is unlimited. Checked once per vertex penalty.
  double time_limit_seconds = 0;
  /// Optional cooperative cancellation (service portfolio races); polled
  /// together with the deadline. May be null.
  const CancelToken* cancel = nullptr;
};

/// Builds the qaMKP QUBO for `graph` and `k`. Fails for k < 1 or
/// penalty <= 1 (the correctness bound of Section IV-B3), and with
/// kDeadlineExceeded when the deadline or the cancel token stops the build
/// before its last vertex penalty.
Result<MkpQubo> BuildMkpQubo(const Graph& graph, int k,
                             const MkpQuboOptions& options = {});

}  // namespace qplex

#endif  // QPLEX_QUBO_MKP_QUBO_H_
