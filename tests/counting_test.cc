#include <gtest/gtest.h>

#include <cmath>

#include "graph/instances.h"
#include "grover/counting.h"
#include "kplex_sweep.h"
#include "oracle/mkp_oracle.h"

namespace qplex {
namespace {

/// Counting error bound: |M - M_hat| <= (2*pi/2^t)*sqrt(M*N) + (pi/2^t)^2*N
/// (Brassard-Hoyer-Tapp Theorem 12, loosened slightly for the single-shot
/// measurement).
double CountingTolerance(int n, int t, std::int64_t m) {
  const double N = std::pow(2.0, n);
  const double grid = std::pow(2.0, t);
  return 2.0 * M_PI / grid * std::sqrt(static_cast<double>(m) * N + N) +
         std::pow(M_PI / grid, 2) * N + 1.0;
}

class CountingSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CountingSweepTest, EstimatesWithinTheoremBound) {
  const int true_m = GetParam();
  const int n = 7;
  std::vector<std::uint64_t> marked;
  for (int i = 0; i < true_m; ++i) {
    marked.push_back(static_cast<std::uint64_t>(i * 5 + 2) % 128);
  }
  std::sort(marked.begin(), marked.end());
  marked.erase(std::unique(marked.begin(), marked.end()), marked.end());

  QuantumCountingOptions options;
  options.counting_qubits = 9;
  Rng rng(77 + true_m);
  // Majority-of-5 estimates (single-shot phase estimation has a small tail).
  int within = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const QuantumCountingResult result =
        RunQuantumCounting(n, marked, options, rng).value();
    const double tolerance = CountingTolerance(
        n, options.counting_qubits,
        static_cast<std::int64_t>(marked.size()));
    if (std::abs(result.raw_estimate -
                 static_cast<double>(marked.size())) <= tolerance) {
      ++within;
    }
  }
  EXPECT_GE(within, 4) << "M = " << marked.size();
}

INSTANTIATE_TEST_SUITE_P(Ms, CountingSweepTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 40));

TEST(CountingTest, ZeroMarkedGivesZero) {
  QuantumCountingOptions options;
  options.counting_qubits = 8;
  Rng rng(5);
  const QuantumCountingResult result =
      RunQuantumCounting(6, {}, options, rng).value();
  EXPECT_EQ(result.estimated_count, 0);
  EXPECT_EQ(result.measured_phase_index, 0u);
}

TEST(CountingTest, AllMarkedGivesFullSpace) {
  std::vector<std::uint64_t> marked;
  for (std::uint64_t i = 0; i < 16; ++i) {
    marked.push_back(i);
  }
  QuantumCountingOptions options;
  options.counting_qubits = 8;
  Rng rng(6);
  const QuantumCountingResult result =
      RunQuantumCounting(4, marked, options, rng).value();
  EXPECT_NEAR(static_cast<double>(result.estimated_count), 16.0, 1.0);
}

TEST(CountingTest, GroverApplicationsCost) {
  QuantumCountingOptions options;
  options.counting_qubits = 6;
  Rng rng(1);
  const QuantumCountingResult result =
      RunQuantumCounting(5, {3}, options, rng).value();
  EXPECT_EQ(result.grover_applications, 63);
}

TEST(CountingTest, Validation) {
  QuantumCountingOptions options;
  Rng rng(1);
  EXPECT_FALSE(RunQuantumCounting(0, {}, options, rng).ok());
  EXPECT_FALSE(RunQuantumCounting(5, {32}, options, rng).ok());
  options.counting_qubits = 0;
  EXPECT_FALSE(RunQuantumCounting(5, {1}, options, rng).ok());
}

TEST(CountingTest, CountsOracleSolutionsOnPaperExample) {
  // End to end: count the size->=3 2-plexes of the paper graph via the
  // literal oracle + quantum counting, and compare with enumeration.
  const Graph graph = PaperExampleGraph();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, 3).value();
  const auto marked = oracle.MarkedStates();
  const std::int64_t truth = sweep::Count(graph, 2, 3);
  ASSERT_EQ(static_cast<std::int64_t>(marked.size()), truth);

  QuantumCountingOptions options;
  options.counting_qubits = 10;
  Rng rng(9);
  const QuantumCountingResult result =
      RunQuantumCounting(6, marked, options, rng).value();
  EXPECT_NEAR(static_cast<double>(result.estimated_count),
              static_cast<double>(truth), 3.0);
}

}  // namespace
}  // namespace qplex
