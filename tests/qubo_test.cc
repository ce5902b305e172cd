#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "classical/exact.h"
#include "common/cancel.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "graph/kplex.h"
#include "qubo/mkp_qubo.h"
#include "qubo/qubo_model.h"

namespace qplex {
namespace {

TEST(QuboModelTest, EvaluateLinearAndQuadratic) {
  QuboBuilder builder(3);
  builder.AddOffset(1.5);
  builder.AddLinear(0, 2.0);
  builder.AddLinear(2, -1.0);
  builder.AddQuadratic(0, 1, 4.0);
  builder.AddQuadratic(1, 2, -3.0);
  const QuboModel model = builder.Build();

  EXPECT_DOUBLE_EQ(model.Evaluate({0, 0, 0}), 1.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 0, 0}), 3.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 1, 0}), 7.5);
  EXPECT_DOUBLE_EQ(model.Evaluate({1, 1, 1}), 3.5);
}

TEST(QuboModelTest, QuadraticAccumulates) {
  QuboBuilder builder(2);
  builder.AddQuadratic(0, 1, 1.0);
  builder.AddQuadratic(1, 0, 2.5);  // folded onto the same key
  const QuboModel model = builder.Build();
  EXPECT_DOUBLE_EQ(model.quadratic(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(model.quadratic(1, 0), 3.5);
  EXPECT_EQ(model.num_quadratic_terms(), 1);
}

TEST(QuboModelTest, FlipDeltaMatchesFullEvaluation) {
  Rng rng(5);
  QuboBuilder builder(8);
  for (int i = 0; i < 8; ++i) {
    builder.AddLinear(i, rng.UniformDouble() * 4 - 2);
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.5)) {
        builder.AddQuadratic(i, j, rng.UniformDouble() * 4 - 2);
      }
    }
  }
  const QuboModel model = builder.Build();
  QuboSample sample(8);
  for (int trial = 0; trial < 64; ++trial) {
    for (int i = 0; i < 8; ++i) {
      sample[i] = static_cast<std::uint8_t>(rng.Next() & 1);
    }
    for (int i = 0; i < 8; ++i) {
      const double before = model.Evaluate(sample);
      const double delta = model.FlipDelta(sample, i);
      sample[i] ^= 1;
      EXPECT_NEAR(model.Evaluate(sample), before + delta, 1e-9);
      sample[i] ^= 1;
    }
  }
}

TEST(QuboModelTest, InteractionGraph) {
  QuboBuilder builder(4);
  builder.AddQuadratic(0, 1, 1.0);
  builder.AddQuadratic(2, 3, -1.0);
  const Graph graph = builder.Build().InteractionGraph();
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(2, 3));
  EXPECT_FALSE(graph.HasEdge(0, 2));
}

TEST(QuboModelTest, IsingRoundTripEnergy) {
  // The Ising transform must preserve energies for every assignment.
  Rng rng(9);
  QuboBuilder builder(6);
  for (int i = 0; i < 6; ++i) {
    builder.AddLinear(i, rng.UniformDouble() * 2 - 1);
  }
  builder.AddOffset(0.7);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      if (rng.Bernoulli(0.6)) {
        builder.AddQuadratic(i, j, rng.UniformDouble() * 2 - 1);
      }
    }
  }
  const QuboModel model = builder.Build();
  const IsingModel ising = model.ToIsing();
  for (std::uint64_t assignment = 0; assignment < 64; ++assignment) {
    QuboSample sample(6);
    std::vector<int> spins(6);
    for (int i = 0; i < 6; ++i) {
      sample[i] = (assignment >> i) & 1;
      spins[i] = sample[i] ? 1 : -1;
    }
    double ising_energy = ising.offset;
    for (int i = 0; i < 6; ++i) {
      ising_energy += ising.fields[i] * spins[i];
    }
    for (const auto& [key, weight] : ising.couplings) {
      ising_energy += weight * spins[key.first] * spins[key.second];
    }
    EXPECT_NEAR(ising_energy, model.Evaluate(sample), 1e-9)
        << "assignment " << assignment;
  }
}

// -- MkpQubo ------------------------------------------------------------------

TEST(MkpQuboTest, BuildValidation) {
  EXPECT_FALSE(BuildMkpQubo(PaperExampleGraph(), 0).ok());
  MkpQuboOptions bad;
  bad.penalty = 1.0;
  EXPECT_FALSE(BuildMkpQubo(PaperExampleGraph(), 2, bad).ok());
  EXPECT_TRUE(BuildMkpQubo(PaperExampleGraph(), 2).ok());
}

TEST(MkpQuboTest, VariableCountIsNPlusSlacks) {
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  EXPECT_EQ(qubo.num_vertices(), 6);
  int slack_total = 0;
  for (int bits : qubo.slack_bits) {
    slack_total += bits;
  }
  EXPECT_EQ(qubo.num_variables(), 6 + slack_total);
  EXPECT_EQ(qubo.num_slack_variables(), slack_total);
}

/// The central correctness property (paper Section IV-B): the global QUBO
/// minimum, restricted to the vertex bits, is a maximum k-plex, and its
/// energy equals -opt_size.
class MkpQuboExhaustiveTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MkpQuboExhaustiveTest, GlobalMinimumIsMaximumKPlex) {
  const auto [k, seed] = GetParam();
  const Graph graph = RandomGnm(6, 8, seed).value();
  const MkpQubo qubo = BuildMkpQubo(graph, k).value();
  const int total_vars = qubo.num_variables();
  ASSERT_LE(total_vars, 22) << "exhaustive sweep too wide";

  double min_energy = 1e300;
  QuboSample best;
  QuboSample sample(total_vars);
  for (std::uint64_t assignment = 0;
       assignment < (std::uint64_t{1} << total_vars); ++assignment) {
    for (int i = 0; i < total_vars; ++i) {
      sample[i] = (assignment >> i) & 1;
    }
    const double energy = qubo.Cost(sample);
    if (energy < min_energy) {
      min_energy = energy;
      best = sample;
    }
  }

  const MkpSolution expected = SolveMkpByEnumeration(graph, k).value();
  EXPECT_NEAR(min_energy, MkpQubo::CostOfPlexSize(expected.size), 1e-9);
  const VertexList decoded = qubo.DecodeVertices(best);
  EXPECT_EQ(static_cast<int>(decoded.size()), expected.size);
  EXPECT_TRUE(qubo.IsFeasible(best));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MkpQuboExhaustiveTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(21, 42)));

TEST(MkpQuboTest, FeasibleAssignmentsReachZeroPenalty) {
  // For every k-plex, x = plex with optimally configured slacks must have
  // energy exactly -|plex| (penalty zero).
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    if (!IsKPlexMask(adjacency, mask, 2)) {
      continue;
    }
    QuboSample sample(qubo.num_variables(), 0);
    for (int v = 0; v < 6; ++v) {
      sample[v] = (mask >> v) & 1;
    }
    qubo.OptimizeSlacks(&sample);
    EXPECT_NEAR(qubo.Cost(sample),
                MkpQubo::CostOfPlexSize(__builtin_popcountll(mask)), 1e-9)
        << "mask " << mask;
  }
}

TEST(MkpQuboTest, InfeasibleAssignmentsPayPenalty) {
  // For every non-k-plex, even with optimal slacks the energy must exceed
  // -|set| (some vertex violates its constraint).
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (std::uint64_t mask = 0; mask < 64; ++mask) {
    if (IsKPlexMask(adjacency, mask, 2)) {
      continue;
    }
    QuboSample sample(qubo.num_variables(), 0);
    for (int v = 0; v < 6; ++v) {
      sample[v] = (mask >> v) & 1;
    }
    qubo.OptimizeSlacks(&sample);
    EXPECT_GT(qubo.Cost(sample),
              MkpQubo::CostOfPlexSize(__builtin_popcountll(mask)) + 0.5)
        << "mask " << mask;
  }
}

TEST(MkpQuboTest, RepairProducesPlex) {
  const Graph graph = RandomGnm(10, 25, 3).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    QuboSample sample(qubo.num_variables());
    for (auto& bit : sample) {
      bit = static_cast<std::uint8_t>(rng.Next() & 1);
    }
    const VertexList repaired = qubo.RepairToPlex(sample);
    EXPECT_TRUE(IsKPlex(graph, VertexBitset::FromList(10, repaired), 2));
  }
}

TEST(MkpQuboTest, SlackCountIsNLogN) {
  // The paper's headline resource claim: n + sum L_i = O(n log n) variables.
  const Graph graph = RandomGnm(20, 95, 1).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  const double bound = 20 * (1 + std::ceil(std::log2(20)));
  EXPECT_LE(qubo.num_variables(), bound);
}

TEST(MkpQuboTest, BuildPollsOncePerVertexPenalty) {
  CancelToken cancel;
  MkpQuboOptions options;
  options.cancel = &cancel;
  ASSERT_TRUE(BuildMkpQubo(RandomGnm(20, 95, 1).value(), 2, options).ok());
  EXPECT_EQ(cancel.polls(), 20u);
}

TEST(MkpQuboTest, PreCancelledTokenStopsTheBuildAtItsFirstPoll) {
  CancelToken cancel;
  cancel.Cancel();
  MkpQuboOptions options;
  options.cancel = &cancel;
  const Result<MkpQubo> built =
      BuildMkpQubo(RandomGnm(20, 95, 1).value(), 2, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cancel.polls(), 1u);
}

TEST(MkpQuboDeathTest, RepairToPlexChecksSampleArity) {
  // A sample shorter than the variable count would be read out of bounds.
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  const QuboSample short_sample(qubo.num_vertices() - 1, 1);
  EXPECT_DEATH(qubo.RepairToPlex(short_sample), "arity");
}

TEST(MkpQuboTest, DecodeVertices) {
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  QuboSample sample(qubo.num_variables(), 0);
  sample[0] = sample[3] = 1;
  EXPECT_EQ(qubo.DecodeVertices(sample), (VertexList{0, 3}));
}

// -- Flat term store vs the map fold ------------------------------------------

/// Bit-level equality: two doubles are the same only if memcmp says so, so a
/// coefficient summed in a different order fails even when it rounds close.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One quadratic term as a model reports it, in its iteration order.
struct Term {
  int i;
  int j;
  double weight;
};

std::vector<Term> TermsOf(const QuboModel& model) {
  std::vector<Term> terms;
  for (const auto& [i, j, weight] : model.quadratic_terms()) {
    terms.push_back({i, j, weight});
  }
  return terms;
}

/// Reference fold: a std::map keyed (min, max) plus per-variable neighbour
/// lists that each duplicate updates by a linear scan. Slow but plainly
/// correct; the penalty expansion is replayed into it and QuboModel's flat
/// store must match it bit for bit.
class MapFoldQubo {
 public:
  explicit MapFoldQubo(int num_variables)
      : linear_(num_variables, 0.0), neighbors_(num_variables) {}

  void AddOffset(double value) { offset_ += value; }
  void AddLinear(int i, double weight) { linear_[i] += weight; }
  void AddQuadratic(int i, int j, double weight) {
    const auto [it, inserted] = quadratic_.try_emplace(std::minmax(i, j), weight);
    if (inserted) {
      neighbors_[i].emplace_back(j, weight);
      neighbors_[j].emplace_back(i, weight);
      return;
    }
    it->second += weight;
    for (auto& [other, w] : neighbors_[i]) {
      if (other == j) {
        w += weight;
      }
    }
    for (auto& [other, w] : neighbors_[j]) {
      if (other == i) {
        w += weight;
      }
    }
  }

  double Evaluate(const QuboSample& sample) const {
    double energy = offset_;
    for (std::size_t i = 0; i < linear_.size(); ++i) {
      if (sample[i]) {
        energy += linear_[i];
      }
    }
    for (const auto& [key, weight] : quadratic_) {
      if (sample[key.first] && sample[key.second]) {
        energy += weight;
      }
    }
    return energy;
  }

  double FlipDelta(const QuboSample& sample, int i) const {
    double slope = linear_[i];
    for (const auto& [j, weight] : neighbors_[i]) {
      if (sample[j]) {
        slope += weight;
      }
    }
    return sample[i] ? -slope : slope;
  }

  std::vector<Term> Terms() const {
    std::vector<Term> terms;
    for (const auto& [key, weight] : quadratic_) {
      terms.push_back({key.first, key.second, weight});
    }
    return terms;
  }

  double offset_ = 0;
  std::vector<double> linear_;
  std::map<std::pair<int, int>, double> quadratic_;
  std::vector<std::vector<std::pair<int, double>>> neighbors_;
};

/// Replays BuildMkpQubo's penalty expansion (same layout, same call order)
/// into the map fold.
MapFoldQubo MapFoldBuild(const MkpQubo& qubo) {
  MapFoldQubo model(qubo.num_variables());
  const int n = qubo.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    model.AddLinear(v, -1.0);
  }
  const double R = qubo.penalty;
  for (Vertex v = 0; v < n; ++v) {
    const double big_m = static_cast<double>(qubo.big_m[v]);
    std::vector<std::pair<int, double>> terms;
    for (Vertex j : qubo.complement.Neighbors(v)) {
      terms.emplace_back(j, 1.0);
    }
    for (int r = 0; r < qubo.slack_bits[v]; ++r) {
      terms.emplace_back(qubo.slack_offset[v] + r,
                         static_cast<double>(1 << r));
    }
    terms.emplace_back(v, big_m);
    const double constant = -(static_cast<double>(qubo.k - 1) + big_m);
    model.AddOffset(R * constant * constant);
    for (std::size_t a = 0; a < terms.size(); ++a) {
      const auto& [var_a, coeff_a] = terms[a];
      model.AddLinear(var_a, R * (coeff_a * coeff_a + 2.0 * coeff_a * constant));
      for (std::size_t b = a + 1; b < terms.size(); ++b) {
        const auto& [var_b, coeff_b] = terms[b];
        model.AddQuadratic(var_a, var_b, R * 2.0 * coeff_a * coeff_b);
      }
    }
  }
  return model;
}

/// (graph seed, penalty R, use_global_big_m)
class MkpQuboFoldEqualityTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(MkpQuboFoldEqualityTest, BitIdenticalToTheMapFold) {
  const auto [seed, penalty, global_big_m] = GetParam();
  Rng shape(static_cast<std::uint64_t>(seed));
  const int n = 12 + static_cast<int>(shape.Next() % 29);  // 12..40
  const double p = 0.2 + 0.6 * shape.UniformDouble();
  const int k = 1 + seed % 3;
  const Graph graph = RandomGnp(n, p, seed).value();
  MkpQuboOptions options;
  options.penalty = penalty;
  options.use_global_big_m = global_big_m;
  const MkpQubo qubo = BuildMkpQubo(graph, k, options).value();
  const MapFoldQubo reference = MapFoldBuild(qubo);
  const QuboModel& model = qubo.model;
  const int num_vars = model.num_variables();

  EXPECT_TRUE(SameBits(model.offset(), reference.offset_));
  for (int i = 0; i < num_vars; ++i) {
    EXPECT_TRUE(SameBits(model.linear(i), reference.linear_[i])) << "a_" << i;
  }

  const std::vector<Term> terms = TermsOf(model);
  const std::vector<Term> expected = reference.Terms();
  ASSERT_EQ(terms.size(), expected.size());
  EXPECT_EQ(model.num_quadratic_terms(),
            static_cast<std::int64_t>(expected.size()));
  for (std::size_t t = 0; t < terms.size(); ++t) {
    ASSERT_EQ(terms[t].i, expected[t].i) << "term " << t;
    ASSERT_EQ(terms[t].j, expected[t].j) << "term " << t;
    EXPECT_TRUE(SameBits(terms[t].weight, expected[t].weight))
        << "b_" << terms[t].i << "," << terms[t].j;
    EXPECT_TRUE(SameBits(model.quadratic(terms[t].j, terms[t].i),
                         expected[t].weight));
  }

  for (int i = 0; i < num_vars; ++i) {
    const auto& expected_row = reference.neighbors_[i];
    std::size_t position = 0;
    for (const auto& [j, weight] : model.Neighbors(i)) {
      ASSERT_LT(position, expected_row.size()) << "Neighbors(" << i << ")";
      EXPECT_EQ(j, expected_row[position].first) << "Neighbors(" << i << ")";
      EXPECT_TRUE(SameBits(weight, expected_row[position].second))
          << "Neighbors(" << i << ")[" << position << "]";
      ++position;
    }
    EXPECT_EQ(position, expected_row.size()) << "Neighbors(" << i << ")";
  }

  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  QuboSample sample(num_vars);
  for (int trial = 0; trial < 64; ++trial) {
    for (auto& bit : sample) {
      bit = static_cast<std::uint8_t>(rng.Next() & 1);
    }
    EXPECT_TRUE(SameBits(model.Evaluate(sample), reference.Evaluate(sample)))
        << "sample " << trial;
    for (int i = 0; i < num_vars; ++i) {
      EXPECT_TRUE(SameBits(model.FlipDelta(sample, i),
                           reference.FlipDelta(sample, i)))
          << "sample " << trial << " variable " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MkpQuboFoldEqualityTest,
    ::testing::Combine(::testing::Values(3, 17, 40, 101),
                       ::testing::Values(1.1, 2.0, 8.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace qplex
