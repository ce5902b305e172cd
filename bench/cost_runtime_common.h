// Shared driver for Figs. 10 and 11: objective cost as a function of runtime
// for qaMKP (simulated-quantum-annealing QPU stand-in), haMKP (hybrid
// portfolio), SA (classical simulated annealing) and MILP (branch-and-bound
// over the McCormick linearization, the Gurobi stand-in).

#ifndef QPLEX_BENCH_COST_RUNTIME_COMMON_H_
#define QPLEX_BENCH_COST_RUNTIME_COMMON_H_

#include <iostream>
#include <string>
#include <vector>

#include "anneal/hybrid_solver.h"
#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "bench_report.h"
#include "common/table.h"
#include "milp/milp_solver.h"
#include "milp/qubo_linearization.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "qubo/mkp_qubo.h"
#include "workload/datasets.h"

namespace qplex::bench {

/// Prints one cost-vs-runtime figure for `dataset_name` with the given
/// per-algorithm budget caps (micros for the annealers, seconds for MILP).
inline int RunCostRuntimeFigure(const std::string& figure_name,
                                const std::string& dataset_name,
                                int qa_budget_micros, int sa_budget_micros,
                                double milp_budget_seconds) {
  constexpr int kK = 3;
  const DatasetSpec spec = FindDataset(dataset_name).value();
  const Graph graph = MakeDataset(spec).value();
  const MkpQubo qubo = BuildMkpQubo(graph, kK).value();

  // Per-figure metric capture: clean slate in, BENCH_<figure>.json out.
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();

  std::cout << figure_name << " -- objective cost vs runtime on " << spec.name
            << " (k = 3, R = 2, Delta-t = 1 us)\n"
            << "QUBO: " << qubo.model.ToString() << "\n\n";

  const std::vector<double> budget_grid = {1,    5,    10,   50,   100, 500,
                                           1000, 5000, 1e4,  5e4,  1e5, 5e5,
                                           1e6,  5e6,  1e7};

  auto sample_trace = [&](const std::vector<CostTracePoint>& trace,
                          double cap_micros) {
    std::vector<std::pair<double, double>> points;
    for (double budget : budget_grid) {
      if (budget > cap_micros) {
        break;
      }
      double best = 0;
      bool seen = false;
      for (const CostTracePoint& point : trace) {
        if (point.budget_micros <= budget) {
          best = point.energy;
          seen = true;
        } else {
          break;
        }
      }
      if (seen) {
        points.emplace_back(budget, best);
      }
    }
    return points;
  };

  // --- qaMKP: one long SQA run; trace sampled on the budget grid. -----------
  PathIntegralAnnealerOptions qa_options;
  qa_options.annealing_time_micros = 1.0;
  qa_options.shots = qa_budget_micros;
  qa_options.seed = 7;
  const AnnealResult qa =
      PathIntegralAnnealer(qa_options).Run(qubo.model).value();
  const auto qa_points = sample_trace(qa.trace, qa_budget_micros);

  // --- SA: sweeps fixed to 2 per shot, shots grow (paper setup). ------------
  SimulatedAnnealerOptions sa_options;
  sa_options.sweeps_per_shot = 2;
  sa_options.shots = sa_budget_micros / 2;
  sa_options.seed = 8;
  const AnnealResult sa = SimulatedAnnealer(sa_options).Run(qubo.model).value();
  const auto sa_points = sample_trace(sa.trace, sa_budget_micros);

  // --- haMKP: single point at the contract runtime. The hybrid service's
  // classical half applies domain post-processing (repair + greedy extend).
  HybridSolverOptions hybrid_options;
  hybrid_options.seed = 9;
  hybrid_options.refine = [&qubo](QuboSample* sample) {
    qubo.ImproveSample(sample);
  };
  const AnnealResult hybrid =
      HybridSolver(hybrid_options).Run(qubo.model).value();

  // --- MILP: one deadline-bounded B&B run; trace is wall-clock. --------------
  const LinearizedQubo linearized = LinearizeQubo(qubo.model);
  MilpSolverOptions milp_options;
  const CancelToken milp_time_limit(Deadline::After(milp_budget_seconds));
  milp_options.cancel = &milp_time_limit;
  milp_options.incumbent_heuristic =
      MakeQuboRoundingHeuristic(qubo.model, linearized);
  const MilpSolution milp =
      MilpSolver(milp_options).Solve(linearized.milp).value();

  AsciiTable table({"runtime (us)", "qaMKP", "SA", "haMKP", "MILP"});
  auto lookup = [](const std::vector<std::pair<double, double>>& points,
                   double budget) -> std::string {
    std::string cell = "-";
    for (const auto& [b, cost] : points) {
      if (b <= budget + 1e-9) {
        cell = FormatDouble(cost, 1);
      }
    }
    return cell;
  };
  std::vector<std::pair<double, double>> milp_points;
  for (const MilpTracePoint& point : milp.trace) {
    // MILP offset is carried outside the LP objective.
    milp_points.emplace_back(point.seconds * 1e6,
                             point.objective + linearized.offset);
  }
  for (double budget : budget_grid) {
    std::string hybrid_cell = "-";
    if (budget >= hybrid.modeled_micros) {
      hybrid_cell = FormatDouble(hybrid.best_energy, 1) + " *";
    }
    table.AddRow({FormatMicros(budget), lookup(qa_points, budget),
                  lookup(sa_points, budget), hybrid_cell,
                  lookup(milp_points, budget)});
  }
  table.Print(std::cout);

  std::cout << "\nqaMKP final: " << FormatDouble(qa.best_energy, 1)
            << " (decoded/repair plex size "
            << qubo.RepairToPlex(qa.best_sample).size() << ")"
            << "\nSA final: " << FormatDouble(sa.best_energy, 1)
            << "\nhaMKP (*): " << FormatDouble(hybrid.best_energy, 1)
            << " at " << FormatMicros(hybrid.modeled_micros) << " us"
            << "\nMILP after " << FormatDouble(milp.seconds, 2)
            << " s: " << (milp.feasible
                              ? FormatDouble(milp.objective + linearized.offset,
                                             1)
                              : std::string("-"))
            << (milp.optimal ? " (proven optimal)" : " (deadline)")
            << "\nPaper shape check: qaMKP reaches a good sub-optimal cost "
               "within ~10^4 us, far ahead of MILP's early incumbents; the "
               "hybrid lands at/near the optimum at its contract time; SA "
               "descends steadily in between.\n";

  obs::RunReport report(figure_name);
  report.SetMeta("dataset", spec.name);
  report.SetMeta("k", kK);
  report.SetMeta("qa_budget_micros", qa_budget_micros);
  report.SetMeta("sa_budget_micros", sa_budget_micros);
  report.SetMeta("milp_budget_seconds", milp_budget_seconds);
  report.SetMeta("qa_final_energy", qa.best_energy);
  report.SetMeta("sa_final_energy", sa.best_energy);
  report.SetMeta("hybrid_final_energy", hybrid.best_energy);
  report.SetMeta("milp_feasible", milp.feasible);
  report.Capture();
  EmitBenchReport(report);
  return 0;
}

}  // namespace qplex::bench

#endif  // QPLEX_BENCH_COST_RUNTIME_COMMON_H_
