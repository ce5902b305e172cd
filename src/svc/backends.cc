// Adapters wrapping every qplex solver family behind the svc::Solver
// contract. Each adapter is stateless: the underlying solver object is
// constructed inside Solve(), so one registered instance can serve many
// scheduler workers concurrently.
//
// Deadline semantics: the job deadline rides in `context.cancel`, so an
// adapter only threads that one token into its backend (no solver takes a
// time limit of its own) and reports `completed = false` when the backend
// stopped early. Mapping incompletion to a kDeadlineExceeded *status* is the
// scheduler's job, not the adapters'.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "anneal/hybrid_solver.h"
#include "anneal/parallel_tempering.h"
#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "classical/grasp.h"
#include "grover/qmkp.h"
#include "grover/qtkp.h"
#include "milp/milp_solver.h"
#include "milp/qubo_linearization.h"
#include "obs/incumbent.h"
#include "qubo/mkp_qubo.h"
#include "svc/registry.h"

namespace qplex::svc {
namespace {

/// Builds an MkpSolution from a member list (mask filled when it fits).
MkpSolution SolutionFromMembers(VertexList members) {
  MkpSolution solution;
  std::sort(members.begin(), members.end());
  solution.size = static_cast<int>(members.size());
  solution.members = std::move(members);
  FillSolutionMask(solution);
  return solution;
}

class BsBackend : public Solver {
 public:
  std::string_view name() const override { return "bs"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    BsSolverOptions options;
    options.cancel = context.cancel;
    QPLEX_ASSIGN_OR_RETURN(const int use_reduction,
                           OptionInt(request, "use_reduction", 1));
    options.use_reduction = use_reduction != 0;
    obs::IncumbentReporter reporter(name());
    if (reporter.enabled()) {
      options.on_incumbent = [&reporter](const MkpSolution& best,
                                         const BsSolverStats& stats) {
        reporter.Report(best.size, stats.branch_nodes);
      };
      options.on_bound = [&reporter](double bound,
                                     const BsSolverStats& stats) {
        reporter.ReportBound(bound, stats.branch_nodes);
      };
    }
    BsSolver solver(options);
    QPLEX_ASSIGN_OR_RETURN(MkpSolution solution,
                           solver.Solve(request.graph, request.k));
    SolveOutcome outcome;
    outcome.solution = std::move(solution);
    outcome.completed = solver.stats().completed;
    outcome.provably_optimal = outcome.completed;
    return outcome;
  }
};

class EnumBackend : public Solver {
 public:
  std::string_view name() const override { return "enum"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    bool completed = true;
    EnumerationControl control;
    control.cancel = context.cancel;
    control.completed = &completed;
    obs::IncumbentReporter reporter(name());
    if (reporter.enabled()) {
      control.on_incumbent = [&reporter](const MkpSolution& best,
                                         std::uint64_t masks_scanned) {
        reporter.Report(best.size, static_cast<std::int64_t>(masks_scanned));
      };
    }
    QPLEX_ASSIGN_OR_RETURN(
        MkpSolution solution,
        SolveMkpByEnumeration(request.graph, request.k, control));
    SolveOutcome outcome;
    outcome.solution = std::move(solution);
    outcome.completed = completed;
    outcome.provably_optimal = completed;
    return outcome;
  }
};

class GraspBackend : public Solver {
 public:
  std::string_view name() const override { return "grasp"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    GraspOptions options;
    QPLEX_ASSIGN_OR_RETURN(options.iterations,
                           OptionInt(request, "iterations", 64));
    QPLEX_ASSIGN_OR_RETURN(options.alpha, OptionDouble(request, "alpha", 0.3));
    options.cancel = context.cancel;
    options.seed = request.seed;
    obs::IncumbentReporter reporter(name());
    if (reporter.enabled()) {
      options.on_incumbent = [&reporter](const MkpSolution& best,
                                         int iteration) {
        reporter.Report(best.size, iteration);
      };
    }
    GraspSolver solver(options);
    QPLEX_ASSIGN_OR_RETURN(MkpSolution solution,
                           solver.Solve(request.graph, request.k));
    SolveOutcome outcome;
    outcome.solution = std::move(solution);
    outcome.completed = solver.stats().completed;
    return outcome;
  }
};

Result<QtkpOptions> BuildQtkpOptions(const SolveRequest& request,
                                     const SolveContext& context) {
  QtkpOptions options;
  // The faithful circuit backend is exponential in gate count; past ~10
  // vertices the provably-identical predicate backend keeps jobs tractable.
  QPLEX_ASSIGN_OR_RETURN(
      std::string oracle,
      OptionString(request, "oracle",
                   request.graph.num_vertices() <= 10 ? "circuit"
                                                      : "predicate"));
  if (oracle == "circuit") {
    options.backend = OracleBackend::kCircuit;
  } else if (oracle == "predicate") {
    options.backend = OracleBackend::kPredicate;
  } else {
    return Status::InvalidArgument("bad value for option 'oracle': '" +
                                   oracle + "'");
  }
  QPLEX_ASSIGN_OR_RETURN(options.threads, OptionInt(request, "threads", 1));
  options.seed = request.seed;
  options.cancel = context.cancel;
  return options;
}

/// One Grover threshold probe: find a k-plex of size >= `threshold`.
class QtkpBackend : public Solver {
 public:
  std::string_view name() const override { return "qtkp"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    QPLEX_ASSIGN_OR_RETURN(QtkpOptions options,
                           BuildQtkpOptions(request, context));
    QPLEX_ASSIGN_OR_RETURN(const int threshold,
                           OptionInt(request, "threshold", request.k));
    obs::IncumbentReporter reporter(name());
    QPLEX_ASSIGN_OR_RETURN(
        QtkpResult result,
        RunQtkp(request.graph, request.k, threshold, options));
    SolveOutcome outcome;
    outcome.completed = result.completed;
    if (result.found) {
      // qTKP is one-shot: a single verified measurement, so its anytime
      // timeline is the single point at the total oracle-call cost.
      reporter.Report(static_cast<int>(result.plex.size()),
                      result.oracle_calls);
      outcome.solution = SolutionFromMembers(result.plex);
    }
    return outcome;
  }
};

class QmkpBackend : public Solver {
 public:
  std::string_view name() const override { return "qmkp"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    QPLEX_ASSIGN_OR_RETURN(QtkpOptions options,
                           BuildQtkpOptions(request, context));
    obs::IncumbentReporter reporter(name());
    QmkpProgressCallback on_progress;
    if (reporter.enabled()) {
      // The reporter drops non-improving probes, so the timeline is exactly
      // the binary search's verified best-size staircase.
      on_progress = [&reporter](const QmkpProbe& /*probe*/,
                                const QmkpResult& so_far) {
        reporter.Report(so_far.best_size, so_far.total_oracle_calls);
      };
    }
    QPLEX_ASSIGN_OR_RETURN(
        QmkpResult result,
        RunQmkp(request.graph, request.k, options, on_progress));
    SolveOutcome outcome;
    outcome.solution = SolutionFromMembers(result.best_plex);
    outcome.completed = result.completed;
    // Even a completed search's answer carries the bounded Grover error
    // probability — never report it as *proven* optimal.
    return outcome;
  }
};

/// Builds the qaMKP QUBO under the execution's stop token.
/// A build the context stops comes back as kDeadlineExceeded; the adapters
/// turn that into an OK, not-completed outcome with an empty solution, so
/// it counts as "stopped early", not as a backend failure to retry.
Result<MkpQubo> BuildQubo(const SolveRequest& request,
                          const SolveContext& context) {
  MkpQuboOptions options;
  options.cancel = context.cancel;
  return BuildMkpQubo(request.graph, request.k, options);
}

/// Shared tail of the QUBO-based backends: build the qaMKP QUBO, run an
/// annealer over it, and improve the best sample to a maximal k-plex
/// (MkpQubo::ImproveSample: repair, then greedy extension).
template <typename Runner>
Result<SolveOutcome> RunQuboBackend(const SolveRequest& request,
                                    const SolveContext& context,
                                    const Runner& runner) {
  Result<MkpQubo> built = BuildQubo(request, context);
  if (built.status().code() == StatusCode::kDeadlineExceeded) {
    return SolveOutcome{.solution = {}, .completed = false};
  }
  QPLEX_ASSIGN_OR_RETURN(MkpQubo qubo, std::move(built));
  QPLEX_ASSIGN_OR_RETURN(AnnealResult result, runner(qubo));
  SolveOutcome outcome;
  outcome.completed = result.completed;
  // A run stopped before its first sample (the hybrid solver polls before
  // each restart) has nothing to improve.
  if (!result.best_sample.empty()) {
    qubo.ImproveSample(&result.best_sample);
    outcome.solution =
        SolutionFromMembers(qubo.DecodeVertices(result.best_sample));
  }
  return outcome;
}

/// Incumbent hook shared by the annealing backends: repair each new-best
/// QUBO sample to a k-plex and report its size with the sweep count as the
/// deterministic work unit and the raw energy riding along as `value`. The
/// reporter filters repairs that do not grow the plex, so energy jitter
/// never produces a non-monotone timeline.
AnnealHooks MakeAnnealReporterHooks(obs::IncumbentReporter* reporter,
                                    const MkpQubo* qubo) {
  AnnealHooks hooks;
  hooks.on_new_best = [reporter, qubo](const QuboSample& sample, double energy,
                                       std::int64_t sweeps) {
    reporter->Report(static_cast<int>(qubo->RepairToPlex(sample).size()),
                     sweeps, energy);
  };
  return hooks;
}

class SaBackend : public Solver {
 public:
  std::string_view name() const override { return "sa"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    SimulatedAnnealerOptions options;
    QPLEX_ASSIGN_OR_RETURN(options.shots, OptionInt(request, "shots", 100));
    QPLEX_ASSIGN_OR_RETURN(options.sweeps_per_shot,
                           OptionInt(request, "sweeps", 2));
    options.cancel = context.cancel;
    options.seed = request.seed;
    obs::IncumbentReporter reporter(name());
    return RunQuboBackend(request, context, [&](const MkpQubo& qubo) {
      if (reporter.enabled()) {
        options.hooks = MakeAnnealReporterHooks(&reporter, &qubo);
      }
      return SimulatedAnnealer(options).Run(qubo.model);
    });
  }
};

class PtBackend : public Solver {
 public:
  std::string_view name() const override { return "pt"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    ParallelTemperingOptions options;
    QPLEX_ASSIGN_OR_RETURN(options.rounds, OptionInt(request, "rounds", 64));
    QPLEX_ASSIGN_OR_RETURN(options.num_replicas,
                           OptionInt(request, "replicas", 8));
    options.cancel = context.cancel;
    options.seed = request.seed;
    obs::IncumbentReporter reporter(name());
    return RunQuboBackend(request, context, [&](const MkpQubo& qubo) {
      if (reporter.enabled()) {
        options.hooks = MakeAnnealReporterHooks(&reporter, &qubo);
      }
      return ParallelTempering(options).Run(qubo.model);
    });
  }
};

class PiaBackend : public Solver {
 public:
  std::string_view name() const override { return "pia"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    PathIntegralAnnealerOptions options;
    QPLEX_ASSIGN_OR_RETURN(options.shots, OptionInt(request, "shots", 100));
    QPLEX_ASSIGN_OR_RETURN(options.replicas,
                           OptionInt(request, "replicas", 16));
    options.cancel = context.cancel;
    options.seed = request.seed;
    obs::IncumbentReporter reporter(name());
    return RunQuboBackend(request, context, [&](const MkpQubo& qubo) {
      if (reporter.enabled()) {
        options.hooks = MakeAnnealReporterHooks(&reporter, &qubo);
      }
      return PathIntegralAnnealer(options).Run(qubo.model);
    });
  }
};

class HybridBackend : public Solver {
 public:
  std::string_view name() const override { return "hybrid"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    HybridSolverOptions options;
    QPLEX_ASSIGN_OR_RETURN(options.max_restarts,
                           OptionInt(request, "restarts", 64));
    options.cancel = context.cancel;
    options.seed = request.seed;
    obs::IncumbentReporter reporter(name());
    return RunQuboBackend(request, context, [&](const MkpQubo& qubo) {
      options.refine = [&qubo](QuboSample* sample) {
        qubo.ImproveSample(sample);
      };
      if (reporter.enabled()) {
        options.hooks = MakeAnnealReporterHooks(&reporter, &qubo);
      }
      return HybridSolver(options).Run(qubo.model);
    });
  }
};

class MilpBackend : public Solver {
 public:
  std::string_view name() const override { return "milp"; }

  Result<SolveOutcome> Solve(const SolveRequest& request,
                             const SolveContext& context) const override {
    Result<MkpQubo> built = BuildQubo(request, context);
    if (built.status().code() == StatusCode::kDeadlineExceeded) {
      return SolveOutcome{.solution = {}, .completed = false};
    }
    QPLEX_ASSIGN_OR_RETURN(MkpQubo qubo, std::move(built));
    const LinearizedQubo linearized = LinearizeQubo(qubo.model);
    MilpSolverOptions options;
    // Unlike the anytime solvers, B&B without a limit can run for hours on a
    // hard instance, so the time_limit option (default 60 s) caps it; the
    // cap's clock starts here, and an earlier job deadline or a cancel
    // still reaches the search through the parent link.
    QPLEX_ASSIGN_OR_RETURN(const double time_limit,
                           OptionDouble(request, "time_limit", 60));
    CancelToken capped(Deadline::After(time_limit));
    capped.LinkParent(context.cancel);
    options.cancel = &capped;
    options.incumbent_heuristic =
        MakeQuboRoundingHeuristic(qubo.model, linearized);
    obs::IncumbentReporter reporter(name());
    if (reporter.enabled()) {
      options.on_incumbent = [&reporter, &qubo, &linearized](
                                 const std::vector<double>& x,
                                 double objective, std::int64_t nodes) {
        const QuboSample sample = ExtractSample(linearized, x);
        reporter.Report(static_cast<int>(qubo.RepairToPlex(sample).size()),
                        nodes, objective);
      };
      options.on_bound = [&reporter](double bound, std::int64_t nodes) {
        // The MILP minimizes the QUBO energy and a feasible size-s plex has
        // energy exactly -s, so a proven lower bound L on the objective is a
        // plex-size upper bound of -L. B&B lower bounds only tighten upward,
        // which keeps the reported size bound non-increasing.
        reporter.ReportBound(std::floor(-bound + 1e-6), nodes);
      };
    }
    QPLEX_ASSIGN_OR_RETURN(MilpSolution milp,
                           MilpSolver(options).Solve(linearized.milp));
    if (!milp.feasible) {
      return Status::Internal("MILP produced no feasible point");
    }
    const QuboSample sample = ExtractSample(linearized, milp.x);
    SolveOutcome outcome;
    outcome.solution = SolutionFromMembers(qubo.RepairToPlex(sample));
    outcome.completed = milp.optimal;
    outcome.provably_optimal = milp.optimal;
    return outcome;
  }
};

}  // namespace

Status RegisterBuiltinBackends(SolverRegistry* registry) {
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<BsBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<EnumBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<GraspBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<QtkpBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<QmkpBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<SaBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<PtBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<PiaBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<HybridBackend>()));
  QPLEX_RETURN_IF_ERROR(registry->Register(std::make_unique<MilpBackend>()));
  // Degradation chains: when the quantum simulators blow the amplitude
  // memory budget they fall back to exact branch-and-search, and the MILP
  // backend (whose B&B node table can also exhaust its budget) degrades to
  // the GRASP heuristic.
  QPLEX_RETURN_IF_ERROR(registry->SetFallback("qtkp", "bs"));
  QPLEX_RETURN_IF_ERROR(registry->SetFallback("qmkp", "bs"));
  QPLEX_RETURN_IF_ERROR(registry->SetFallback("milp", "grasp"));
  return Status::Ok();
}

}  // namespace qplex::svc
