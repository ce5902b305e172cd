#include <gtest/gtest.h>

#include <algorithm>

#include "anneal/hybrid_solver.h"
#include "anneal/parallel_tempering.h"
#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/instances.h"
#include "qubo/mkp_qubo.h"

namespace qplex {
namespace {

/// A tiny QUBO with a known unique minimum: E = (x0 + x1 - 1)^2 - x2,
/// minimized at exactly one of {x0, x1} set and x2 = 1, energy -1.
QuboModel ToyModel() {
  QuboBuilder builder(3);
  builder.AddOffset(1.0);
  builder.AddLinear(0, -1.0);
  builder.AddLinear(1, -1.0);
  builder.AddQuadratic(0, 1, 2.0);
  builder.AddLinear(2, -1.0);
  return builder.Build();
}

TEST(SimulatedAnnealerTest, SolvesToyModel) {
  SimulatedAnnealerOptions options;
  options.shots = 20;
  options.sweeps_per_shot = 4;
  options.seed = 3;
  SimulatedAnnealer annealer(options);
  const AnnealResult result = annealer.Run(ToyModel()).value();
  EXPECT_NEAR(result.best_energy, -1.0, 1e-12);
  EXPECT_EQ(result.shots, 20);
  EXPECT_EQ(result.sweeps, 80);
  EXPECT_EQ(result.trace.size(), 20u);
}

TEST(SimulatedAnnealerTest, OptionValidation) {
  SimulatedAnnealerOptions options;
  options.shots = 0;
  EXPECT_FALSE(SimulatedAnnealer(options).Run(ToyModel()).ok());
  options.shots = 1;
  options.beta_final = 0.05;  // below the schedule's initial beta of 0.1
  EXPECT_FALSE(SimulatedAnnealer(options).Run(ToyModel()).ok());
}

TEST(SimulatedAnnealerTest, DeterministicPerSeed) {
  SimulatedAnnealerOptions options;
  options.shots = 5;
  options.seed = 42;
  const AnnealResult a = SimulatedAnnealer(options).Run(ToyModel()).value();
  const AnnealResult b = SimulatedAnnealer(options).Run(ToyModel()).value();
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_sample, b.best_sample);
}

TEST(SimulatedAnnealerTest, TraceIsMonotoneNonIncreasing) {
  SimulatedAnnealerOptions options;
  options.shots = 50;
  options.seed = 11;
  const MkpQubo qubo = BuildMkpQubo(RandomGnm(10, 25, 2).value(), 2).value();
  const AnnealResult result = SimulatedAnnealer(options).Run(qubo.model).value();
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_LE(result.trace[i].energy, result.trace[i - 1].energy);
    EXPECT_GT(result.trace[i].budget_micros,
              result.trace[i - 1].budget_micros);
  }
}

TEST(SimulatedAnnealerTest, MoreShotsReachOptimumOnMkpQubo) {
  const Graph graph = PaperExampleGraph();
  const MkpQubo qubo = BuildMkpQubo(graph, 2).value();
  SimulatedAnnealerOptions options;
  options.shots = 200;
  options.sweeps_per_shot = 4;
  options.seed = 5;
  const AnnealResult result =
      SimulatedAnnealer(options).Run(qubo.model).value();
  // Optimal cost = -4 (max 2-plex size). Slack misconfiguration can leave a
  // positive penalty, but 200 shots on 6 vertices find the true optimum.
  EXPECT_NEAR(result.best_energy, -4.0, 1e-9);
  EXPECT_TRUE(qubo.IsFeasible(result.best_sample));
}

// -- path-integral (simulated quantum) annealer --------------------------------

TEST(PathIntegralTest, SolvesToyModel) {
  PathIntegralAnnealerOptions options;
  options.shots = 10;
  options.seed = 2;
  PathIntegralAnnealer annealer(options);
  const AnnealResult result = annealer.Run(ToyModel()).value();
  EXPECT_NEAR(result.best_energy, -1.0, 1e-12);
}

TEST(PathIntegralTest, OptionValidation) {
  PathIntegralAnnealerOptions options;
  options.replicas = 1;
  EXPECT_FALSE(PathIntegralAnnealer(options).Run(ToyModel()).ok());
  options.replicas = 8;
  options.annealing_time_micros = 0;
  EXPECT_FALSE(PathIntegralAnnealer(options).Run(ToyModel()).ok());
}

TEST(PathIntegralTest, AnnealingTimeMapsToSweeps) {
  PathIntegralAnnealerOptions options;
  options.shots = 2;
  options.annealing_time_micros = 1.5;  // below the 2 us saturation point
  const AnnealResult result =
      PathIntegralAnnealer(options).Run(ToyModel()).value();
  EXPECT_EQ(result.sweeps, 2 * 12);  // 8 sweeps per us
  EXPECT_NEAR(result.modeled_micros, 3.0, 1e-12);
}

TEST(PathIntegralTest, SaturationCapsSweepsButNotBudget) {
  // Past the device saturation point, longer anneals burn modeled time
  // without adding Monte Carlo sweeps (the paper's Table VI behaviour).
  PathIntegralAnnealerOptions options;
  options.shots = 3;
  options.annealing_time_micros = 100;
  const AnnealResult result =
      PathIntegralAnnealer(options).Run(ToyModel()).value();
  EXPECT_EQ(result.sweeps, 3 * 16);
  EXPECT_NEAR(result.modeled_micros, 300.0, 1e-12);
}

TEST(PathIntegralTest, FindsMkpOptimumOnPaperExample) {
  const MkpQubo qubo = BuildMkpQubo(PaperExampleGraph(), 2).value();
  PathIntegralAnnealerOptions options;
  options.shots = 400;
  options.annealing_time_micros = 2.0;  // 16 sweeps per shot (saturated)
  options.seed = 7;
  const AnnealResult result =
      PathIntegralAnnealer(options).Run(qubo.model).value();
  EXPECT_NEAR(result.best_energy, -4.0, 1e-9);
  EXPECT_TRUE(qubo.IsFeasible(result.best_sample));
}

TEST(PathIntegralTest, DeterministicPerSeed) {
  PathIntegralAnnealerOptions options;
  options.shots = 5;
  options.seed = 19;
  const AnnealResult a = PathIntegralAnnealer(options).Run(ToyModel()).value();
  const AnnealResult b = PathIntegralAnnealer(options).Run(ToyModel()).value();
  EXPECT_EQ(a.best_energy, b.best_energy);
}

// -- hybrid solver --------------------------------------------------------------

TEST(HybridSolverTest, RespectsRuntimeFloor) {
  HybridSolverOptions options;
  options.max_restarts = 4;
  const AnnealResult result = HybridSolver(options).Run(ToyModel()).value();
  EXPECT_GE(result.modeled_micros, kHybridMinRuntimeMicros);
  EXPECT_NEAR(result.best_energy, -1.0, 1e-12);
}

TEST(HybridSolverTest, ReachesOptimumOnMkpQubo) {
  const Graph graph = RandomGnm(12, 35, 9).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  const MkpSolution expected = SolveMkpByEnumeration(graph, 3).value();
  HybridSolverOptions options;
  options.seed = 3;
  options.refine = [&qubo](QuboSample* sample) { qubo.ImproveSample(sample); };
  const AnnealResult result = HybridSolver(options).Run(qubo.model).value();
  EXPECT_NEAR(result.best_energy, MkpQubo::CostOfPlexSize(expected.size),
              1e-9);
  EXPECT_TRUE(qubo.IsFeasible(result.best_sample));
}

// -- parallel tempering -----------------------------------------------------------

TEST(ParallelTemperingTest, SolvesToyModel) {
  ParallelTemperingOptions options;
  options.rounds = 16;
  options.seed = 4;
  const AnnealResult result =
      ParallelTempering(options).Run(ToyModel()).value();
  EXPECT_NEAR(result.best_energy, -1.0, 1e-12);
  EXPECT_EQ(result.shots, 16);
  EXPECT_EQ(result.sweeps, 16 * 8 * 4);  // rounds * replicas * sweeps
}

TEST(ParallelTemperingTest, BeatsOrMatchesSaOnRuggedQubo) {
  const Graph graph = RandomGnm(14, 45, 12).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  ParallelTemperingOptions pt;
  pt.rounds = 64;
  pt.seed = 2;
  const AnnealResult tempered = ParallelTempering(pt).Run(qubo.model).value();

  SimulatedAnnealerOptions sa;
  // Match the sweep budget.
  sa.shots = 64;
  sa.sweeps_per_shot = 8 * 4;
  sa.seed = 2;
  const AnnealResult annealed = SimulatedAnnealer(sa).Run(qubo.model).value();
  EXPECT_LE(tempered.best_energy, annealed.best_energy + 1e-9);
}

TEST(ParallelTemperingTest, Validation) {
  ParallelTemperingOptions options;
  options.num_replicas = 1;
  EXPECT_FALSE(ParallelTempering(options).Run(ToyModel()).ok());
  options.num_replicas = 4;
  options.rounds = 0;
  EXPECT_FALSE(ParallelTempering(options).Run(ToyModel()).ok());
}

TEST(ParallelTemperingTest, EnergyBookkeepingConsistent) {
  // The incremental energies must match a fresh evaluation at the end.
  ParallelTemperingOptions options;
  options.rounds = 8;
  options.seed = 77;
  const MkpQubo qubo = BuildMkpQubo(RandomGnm(9, 18, 5).value(), 2).value();
  const AnnealResult result =
      ParallelTempering(options).Run(qubo.model).value();
  EXPECT_NEAR(result.best_energy, qubo.model.Evaluate(result.best_sample),
              1e-9);
}

TEST(SteepestDescentTest, ReachesLocalMinimum) {
  const QuboModel model = ToyModel();
  QuboSample sample{1, 1, 0};  // energy (1+1-1)^2 - 0 = 1
  const int flips = SteepestDescent(model, &sample);
  EXPECT_GT(flips, 0);
  // No single flip may improve further.
  for (int i = 0; i < model.num_variables(); ++i) {
    EXPECT_GE(model.FlipDelta(sample, i), -1e-12);
  }
  EXPECT_LE(model.Evaluate(sample), 0.0);
}

TEST(SimulatedAnnealerTest, CancellationStopsShotsEarly) {
  SimulatedAnnealerOptions options;
  options.shots = 1'000'000;
  options.sweeps_per_shot = 100;
  CancelToken cancel;
  cancel.Cancel();  // pre-cancelled: polled in the shot loop
  options.cancel = &cancel;
  const AnnealResult result =
      SimulatedAnnealer(options).Run(ToyModel()).value();
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.shots, options.shots);
}

TEST(SimulatedAnnealerTest, TimeLimitStopsShotsEarly) {
  SimulatedAnnealerOptions options;
  options.shots = 1'000'000;
  options.sweeps_per_shot = 100;
  const CancelToken time_limit(Deadline::After(1e-3));
  options.cancel = &time_limit;
  const AnnealResult result =
      SimulatedAnnealer(options).Run(ToyModel()).value();
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.shots, options.shots);
}

TEST(SimulatedAnnealerTest, ExpiredTokenDeadlineStopsAtTheFirstSweepPoll) {
  SimulatedAnnealerOptions options;
  options.shots = 1'000'000;
  const CancelToken expired(Deadline::After(1e-9));
  while (!expired.deadline().Expired()) {
  }
  options.cancel = &expired;
  const AnnealResult result =
      SimulatedAnnealer(options).Run(ToyModel()).value();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.sweeps, 0);
  EXPECT_EQ(expired.polls(), 1u);
}

TEST(ParallelTemperingTest, CancellationStopsRoundsEarly) {
  ParallelTemperingOptions options;
  options.rounds = 1'000'000;
  CancelToken cancel;
  cancel.Cancel();
  options.cancel = &cancel;
  const AnnealResult result =
      ParallelTempering(options).Run(ToyModel()).value();
  EXPECT_FALSE(result.completed);
  EXPECT_LT(result.sweeps,
            static_cast<std::int64_t>(options.rounds) *
                kPtSweepsPerRound * options.num_replicas);
}

}  // namespace
}  // namespace qplex
