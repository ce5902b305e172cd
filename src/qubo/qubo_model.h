#ifndef QPLEX_QUBO_QUBO_MODEL_H_
#define QPLEX_QUBO_QUBO_MODEL_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace qplex {

/// An assignment of the binary variables (one byte per variable, 0 or 1).
using QuboSample = std::vector<std::uint8_t>;

/// Ising form of a QUBO: E(s) = offset + sum h_i s_i + sum J_ij s_i s_j with
/// spins s in {-1, +1}. Used by the path-integral (quantum) annealer.
struct IsingModel {
  double offset = 0;
  std::vector<double> fields;                            // h_i
  std::vector<std::pair<std::pair<int, int>, double>> couplings;  // J_ij, i<j
};

/// One folded quadratic term b_ij x_i x_j with i < j.
struct QuboTerm {
  int i;
  int j;
  double weight;
};

/// A quadratic unconstrained binary optimization problem
///   E(x) = offset + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j,  x_i in {0,1},
/// to be minimized. Built once by QuboBuilder and immutable afterwards.
///
/// The terms live in two flat arrays:
///   - quadratic_terms(): every distinct (i, j), i < j, in ascending (i, j)
///     order, row i contiguous. Evaluate, ToIsing and InteractionGraph walk
///     this order.
///   - Neighbors(i): the (j, b_ij) pairs touching i, in the order their keys
///     were first added. FlipDelta sums in this order.
/// Each coefficient is the sum of its Add calls in call order, so the same
/// call stream always yields bit-identical coefficients and energies.
class QuboModel {
 public:
  /// A model with `num_variables` variables and no terms.
  explicit QuboModel(int num_variables);

  int num_variables() const { return num_variables_; }
  double offset() const { return offset_; }

  double linear(int i) const;
  /// Quadratic coefficient (0 when absent). O(log #terms).
  double quadratic(int i, int j) const;
  /// All quadratic terms ever added (including any that folded to 0), i < j,
  /// in ascending (i, j) order.
  const std::vector<QuboTerm>& quadratic_terms() const { return terms_; }
  std::int64_t num_quadratic_terms() const {
    return static_cast<std::int64_t>(terms_.size());
  }

  /// Full energy of a sample. O(n + #terms).
  double Evaluate(const QuboSample& sample) const;

  /// Energy change caused by flipping variable `i` in `sample`. O(deg(i)).
  double FlipDelta(const QuboSample& sample, int i) const;

  /// Variables adjacent to i through quadratic terms, with their weights.
  std::span<const std::pair<int, double>> Neighbors(int i) const;

  /// The interaction graph: vertices = variables, edges = quadratic terms.
  /// This is what gets minor-embedded onto annealer hardware.
  Graph InteractionGraph() const;

  /// Converts to the equivalent Ising model via x = (1 + s) / 2.
  IsingModel ToIsing() const;

  /// One-line summary for logs.
  std::string ToString() const;

 private:
  friend class QuboBuilder;

  int num_variables_;
  double offset_ = 0;
  std::vector<double> linear_;
  /// Ascending (i, j).
  std::vector<QuboTerm> terms_;
  /// Neighbors(i) is neighbors_[neighbor_start_[i], neighbor_start_[i + 1]).
  std::vector<std::pair<int, double>> neighbors_;
  std::vector<int> neighbor_start_;
};

/// Accumulates a QuboModel. Duplicate AddQuadratic calls fold in O(1): a hash
/// index maps each (min, max) key to the slot of its first insertion, and the
/// slot's weight sums the calls in call order. Build() then sorts the
/// distinct keys once.
class QuboBuilder {
 public:
  explicit QuboBuilder(int num_variables);

  void AddOffset(double value) { offset_ += value; }
  /// Accumulates a_i += weight.
  void AddLinear(int i, double weight);
  /// Accumulates b_ij += weight (i != j; stored on the i<j key).
  void AddQuadratic(int i, int j, double weight);

  /// The finished model. Leaves the builder empty.
  QuboModel Build();

 private:
  /// Slot index of key (i, j), i < j, or -1; `*bucket` is where it sits or
  /// would be inserted.
  int Find(int i, int j, std::size_t* bucket) const;
  void GrowIndex();

  int num_variables_;
  double offset_ = 0;
  std::vector<double> linear_;
  /// Distinct keys (i < j) in first-insertion order with their folded weight.
  std::vector<QuboTerm> slots_;
  /// Open-addressing hash of slot indices (-1 = empty); size a power of two.
  std::vector<int> index_;
};

}  // namespace qplex

#endif  // QPLEX_QUBO_QUBO_MODEL_H_
