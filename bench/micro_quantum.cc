// Microbenchmarks of the quantum substrate: state-vector gate application,
// Grover iterations, and bit-sliced execution of the literal oracle.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.h"
#include "graph/generators.h"
#include "grover/engine.h"
#include "oracle/mkp_oracle.h"
#include "quantum/basis_sim.h"
#include "quantum/statevector.h"

namespace qplex {
namespace {

void BM_StateVectorHadamardLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVectorSimulator sim(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) {
      sim.ApplyH(q);
    }
    benchmark::DoNotOptimize(sim.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StateVectorHadamardLayer)->Arg(10)->Arg(14)->Arg(18);

void BM_GroverIteration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  GroverSimulation grover(n, {1});
  for (auto _ : state) {
    grover.Step();
    benchmark::DoNotOptimize(grover.steps());
  }
}
BENCHMARK(BM_GroverIteration)->Arg(10)->Arg(14)->Arg(18);

void BM_OracleBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  for (auto _ : state) {
    auto oracle = MkpOracle::Build(graph, 2, n / 2);
    benchmark::DoNotOptimize(oracle.ok());
  }
}
BENCHMARK(BM_OracleBuild)->Arg(8)->Arg(10)->Arg(12);

void BM_OracleEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, n / 2).value();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.Evaluate(rng.Next() & ((1u << n) - 1)));
  }
  state.counters["gates"] = static_cast<double>(oracle.circuit().num_gates());
}
BENCHMARK(BM_OracleEvaluate)->Arg(8)->Arg(10)->Arg(12);

// The qMKP hot path: the whole marked set of one oracle, 64 masks per word.
void BM_OracleMarkedStates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph graph = RandomGnm(n, n * (n - 1) / 4, 3).value();
  const MkpOracle oracle = MkpOracle::Build(graph, 2, n / 2).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MarkedStates().size());
  }
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << n));
  state.counters["gates"] = static_cast<double>(oracle.circuit().num_gates());
}
BENCHMARK(BM_OracleMarkedStates)->Arg(10)->Arg(12)->Arg(14);

}  // namespace
}  // namespace qplex

BENCHMARK_MAIN();
