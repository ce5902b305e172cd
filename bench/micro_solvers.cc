// Microbenchmarks of the classical substrate: BS branch-and-bound, k-plex
// enumeration, SA and SQA sweeps, simplex solves, and QUBO construction.

#include <benchmark/benchmark.h>

#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/kplex.h"
#include "milp/qubo_linearization.h"
#include "milp/simplex.h"
#include "qubo/mkp_qubo.h"

namespace qplex {
namespace {

void BM_BsSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 3, 7).value();
  for (auto _ : state) {
    BsSolver solver;
    benchmark::DoNotOptimize(solver.Solve(graph, 2).value().size);
  }
}
BENCHMARK(BM_BsSolver)->Arg(10)->Arg(14)->Arg(18);

// The maximum at the exact_classical benchmark workload's shape: G(22, 88),
// k = 2.
void BM_EnumerateMaximumSparse(benchmark::State& state) {
  const Graph graph = RandomGnm(22, 88, 7).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMkpByEnumeration(graph, 2).value().size);
  }
}
BENCHMARK(BM_EnumerateMaximumSparse)->Unit(benchmark::kMicrosecond);

// The dense end of the maximum: on K24 every subset is a k-plex.
void BM_EnumerateMaximumComplete(benchmark::State& state) {
  const Graph graph = CompleteGraph(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMkpByEnumeration(graph, 2).value().size);
  }
}
BENCHMARK(BM_EnumerateMaximumComplete)->Unit(benchmark::kMicrosecond);

// The count at T = 3 on G(20, p = 0.9), k = 2: output-sensitive, since the
// walk visits each of the ~214k counted k-plexes.
void BM_EnumerateCountDense(benchmark::State& state) {
  const Graph graph = RandomGnp(20, 0.9, 7).value();
  const auto adjacency = AdjacencyMasks(graph);
  for (auto _ : state) {
    std::int64_t count = 0;
    KPlexWalk walk(adjacency, 2, nullptr);
    walk.Run(3, [&count](std::uint64_t, int) {
      ++count;
      return 3;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EnumerateCountDense)->Unit(benchmark::kMillisecond);

void BM_BuildMkpQubo(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 7).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMkpQubo(graph, 3).value().num_variables());
  }
}
BENCHMARK(BM_BuildMkpQubo)->Arg(10)->Arg(20)->Arg(30);

// The sa racer's build at the portfolio_race benchmark workload's shape:
// G(90, 1300) at k = 2, ~202k AddQuadratic calls folding into ~40k terms.
void BM_BuildMkpQuboPortfolioRace(benchmark::State& state) {
  const Graph graph = RandomGnm(90, 1300, 7).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMkpQubo(graph, 2).value().num_variables());
  }
}
BENCHMARK(BM_BuildMkpQuboPortfolioRace)->Unit(benchmark::kMillisecond);

void BM_SaShot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 7).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  SimulatedAnnealerOptions options;
  options.shots = 1;
  options.sweeps_per_shot = 2;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    SimulatedAnnealer annealer(options);
    benchmark::DoNotOptimize(annealer.Run(qubo.model).value().best_energy);
  }
}
BENCHMARK(BM_SaShot)->Arg(10)->Arg(20)->Arg(30);

void BM_SqaShot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 7).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  PathIntegralAnnealerOptions options;
  options.shots = 1;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    PathIntegralAnnealer annealer(options);
    benchmark::DoNotOptimize(annealer.Run(qubo.model).value().best_energy);
  }
}
BENCHMARK(BM_SqaShot)->Arg(10)->Arg(20)->Arg(30);

void BM_SimplexMcCormickRoot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 7).value();
  const MkpQubo qubo = BuildMkpQubo(graph, 3).value();
  const LinearizedQubo linearized = LinearizeQubo(qubo.model);
  for (auto _ : state) {
    LpProblem lp = linearized.milp.lp;
    benchmark::DoNotOptimize(SolveLp(lp).value().pivots);
  }
  state.counters["lp_vars"] =
      static_cast<double>(linearized.milp.lp.num_vars);
}
BENCHMARK(BM_SimplexMcCormickRoot)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
}  // namespace qplex

BENCHMARK_MAIN();
