#include "qubo/qubo_model.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace qplex {
namespace {

/// Initial size of the builder's hash index (a power of two).
constexpr std::size_t kInitialIndexSize = 16;

std::size_t KeyHash(int i, int j) {
  const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) |
                            static_cast<std::uint32_t>(j);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}

}  // namespace

QuboModel::QuboModel(int num_variables)
    : num_variables_(num_variables),
      linear_(num_variables, 0.0),
      neighbor_start_(num_variables + 1, 0) {
  QPLEX_CHECK(num_variables >= 0) << "negative variable count";
}

double QuboModel::linear(int i) const {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  return linear_[i];
}

double QuboModel::quadratic(int i, int j) const {
  const auto [lo, hi] = std::minmax(i, j);
  if (lo < 0 || hi >= num_variables_) {
    return 0.0;
  }
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), std::pair(lo, hi),
      [](const QuboTerm& term, std::pair<int, int> key) {
        return std::pair(term.i, term.j) < key;
      });
  return it != terms_.end() && it->i == lo && it->j == hi ? it->weight : 0.0;
}

double QuboModel::Evaluate(const QuboSample& sample) const {
  QPLEX_CHECK(static_cast<int>(sample.size()) == num_variables_)
      << "sample arity mismatch";
  double energy = offset_;
  for (int i = 0; i < num_variables_; ++i) {
    if (sample[i]) {
      energy += linear_[i];
    }
  }
  for (const auto& [i, j, weight] : terms_) {
    if (sample[i] && sample[j]) {
      energy += weight;
    }
  }
  return energy;
}

double QuboModel::FlipDelta(const QuboSample& sample, int i) const {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  // Contribution of x_i given the rest of the sample.
  double slope = linear_[i];
  for (int e = neighbor_start_[i]; e < neighbor_start_[i + 1]; ++e) {
    const auto& [j, weight] = neighbors_[e];
    if (sample[j]) {
      slope += weight;
    }
  }
  return sample[i] ? -slope : slope;
}

std::span<const std::pair<int, double>> QuboModel::Neighbors(int i) const {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  return {neighbors_.data() + neighbor_start_[i],
          neighbors_.data() + neighbor_start_[i + 1]};
}

Graph QuboModel::InteractionGraph() const {
  Graph graph(num_variables_);
  for (const auto& [i, j, weight] : terms_) {
    if (weight != 0.0) {
      graph.AddEdge(i, j);
    }
  }
  return graph;
}

IsingModel QuboModel::ToIsing() const {
  // x_i = (1 + s_i) / 2:
  //   a x         -> a/2 + (a/2) s
  //   b x_i x_j   -> b/4 + (b/4)(s_i + s_j) + (b/4) s_i s_j
  IsingModel ising;
  ising.offset = offset_;
  ising.fields.assign(num_variables_, 0.0);
  for (int i = 0; i < num_variables_; ++i) {
    ising.offset += linear_[i] / 2;
    ising.fields[i] += linear_[i] / 2;
  }
  for (const auto& [i, j, weight] : terms_) {
    ising.offset += weight / 4;
    ising.fields[i] += weight / 4;
    ising.fields[j] += weight / 4;
    ising.couplings.push_back({{i, j}, weight / 4});
  }
  return ising;
}

std::string QuboModel::ToString() const {
  std::ostringstream out;
  out << "QuboModel(vars=" << num_variables_
      << ", quadratic_terms=" << terms_.size() << ", offset=" << offset_
      << ")";
  return out.str();
}

QuboBuilder::QuboBuilder(int num_variables)
    : num_variables_(num_variables),
      linear_(num_variables, 0.0),
      index_(kInitialIndexSize, -1) {
  QPLEX_CHECK(num_variables >= 0) << "negative variable count";
}

void QuboBuilder::AddLinear(int i, double weight) {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i << " of "
                                            << num_variables_;
  linear_[i] += weight;
}

void QuboBuilder::AddQuadratic(int i, int j, double weight) {
  QPLEX_CHECK(i >= 0 && i < num_variables_) << "variable " << i;
  QPLEX_CHECK(j >= 0 && j < num_variables_) << "variable " << j;
  QPLEX_CHECK(i != j) << "diagonal terms belong in AddLinear (x^2 == x)";
  const auto [lo, hi] = std::minmax(i, j);
  std::size_t bucket = 0;
  const int slot = Find(lo, hi, &bucket);
  if (slot >= 0) {
    slots_[slot].weight += weight;
    return;
  }
  index_[bucket] = static_cast<int>(slots_.size());
  slots_.push_back({lo, hi, weight});
  if (2 * slots_.size() > index_.size()) {
    GrowIndex();
  }
}

int QuboBuilder::Find(int i, int j, std::size_t* bucket) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = KeyHash(i, j) & mask;; b = (b + 1) & mask) {
    const int slot = index_[b];
    if (slot < 0 || (slots_[slot].i == i && slots_[slot].j == j)) {
      *bucket = b;
      return slot;
    }
  }
}

void QuboBuilder::GrowIndex() {
  index_.assign(2 * index_.size(), -1);
  const std::size_t mask = index_.size() - 1;
  for (int slot = 0; slot < static_cast<int>(slots_.size()); ++slot) {
    std::size_t b = KeyHash(slots_[slot].i, slots_[slot].j) & mask;
    while (index_[b] >= 0) {
      b = (b + 1) & mask;
    }
    index_[b] = slot;
  }
}

QuboModel QuboBuilder::Build() {
  const int n = num_variables_;
  QuboModel model(n);
  model.offset_ = offset_;
  model.linear_ = std::move(linear_);

  // Neighbour lists: count, then one walk of the slots in first-insertion
  // order, so every list keeps the order its keys arrived in.
  for (const QuboTerm& term : slots_) {
    ++model.neighbor_start_[term.i + 1];
    ++model.neighbor_start_[term.j + 1];
  }
  for (int i = 0; i < n; ++i) {
    model.neighbor_start_[i + 1] += model.neighbor_start_[i];
  }
  model.neighbors_.resize(2 * slots_.size());
  std::vector<int> fill(model.neighbor_start_.begin(),
                        model.neighbor_start_.end() - 1);
  for (const QuboTerm& term : slots_) {
    model.neighbors_[fill[term.i]++] = {term.j, term.weight};
    model.neighbors_[fill[term.j]++] = {term.i, term.weight};
  }

  // The one sort of the distinct keys.
  model.terms_ = std::move(slots_);
  std::sort(model.terms_.begin(), model.terms_.end(),
            [](const QuboTerm& a, const QuboTerm& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });

  *this = QuboBuilder(n);
  return model;
}

}  // namespace qplex
