#ifndef QPLEX_QPLEX_H_
#define QPLEX_QPLEX_H_

/// \file
/// Umbrella header for the qplex library — gate-based and annealing-based
/// quantum algorithms for the Maximum k-Plex Problem (reproduction of Li,
/// Cong & Zhou, ICDE 2024), together with every substrate they run on.
///
/// Modules:
///   common/    Status/Result error model, PRNG, stopwatch, table printing
///   obs/       observability: metrics registry, trace spans, JSON run reports
///   graph/     graphs, k-plex predicates, generators, IO, named instances
///   quantum/   circuit IR + basis-state and state-vector simulators
///   arith/     reversible adders / comparators / popcount circuit builders
///   oracle/    the qTKP decision oracle (graph encoding -> degree count ->
///              degree compare -> size check -> uncompute)
///   grover/    Grover engine, qTKP, qMKP, BBHT, qMaxClique
///   qubo/      QUBO model + the qaMKP slack-encoded formulation
///   anneal/    simulated annealing, path-integral (quantum) annealing,
///              hybrid portfolio solver
///   embed/     Chimera / Pegasus-like hardware + minor embedding
///   milp/      dense simplex, branch & bound, McCormick linearization
///   classical/ enumeration ground truth, BS branch-and-search, reductions
///   workload/  the paper's dataset registry
///   resilience/ deterministic fault injection, retry backoff, failure
///              taxonomy
///   svc/       solver service layer: unified backend registry, bounded job
///              scheduler with portfolio racing, retry/fallback resilience,
///              instance result cache, the serve front-end
///   net/       poll-based TCP/JSONL serving: EINTR-safe socket wrappers,
///              newline framing, coalescing write buffers, the
///              single-threaded multiplexed server event loop

#include "anneal/hybrid_solver.h"
#include "anneal/parallel_tempering.h"
#include "anneal/path_integral_annealer.h"
#include "anneal/simulated_annealer.h"
#include "arith/adder.h"
#include "arith/comparator.h"
#include "arith/popcount.h"
#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "classical/grasp.h"
#include "classical/reduce.h"
#include "common/cancel.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "embed/hardware.h"
#include "embed/minor_embedding.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/instances.h"
#include "graph/io.h"
#include "graph/kplex.h"
#include "embed/clique_template.h"
#include "grover/counting.h"
#include "grover/engine.h"
#include "grover/full_circuit.h"
#include "grover/qmkp.h"
#include "grover/qtkp.h"
#include "milp/milp_solver.h"
#include "obs/analysis.h"
#include "obs/convergence.h"
#include "obs/events.h"
#include "obs/incumbent.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "milp/qubo_linearization.h"
#include "milp/simplex.h"
#include "oracle/mkp_oracle.h"
#include "quantum/basis_sim.h"
#include "quantum/bitstring.h"
#include "quantum/circuit.h"
#include "quantum/gate.h"
#include "quantum/qasm.h"
#include "quantum/statevector.h"
#include "qubo/mkp_qubo.h"
#include "qubo/qubo_model.h"
#include "relax/club.h"
#include "relax/club_oracle.h"
#include "resilience/breaker.h"
#include "resilience/fault_injection.h"
#include "resilience/health.h"
#include "resilience/retry.h"
#include "net/frame.h"
#include "net/io.h"
#include "net/server.h"
#include "svc/cache.h"
#include "svc/frontend.h"
#include "svc/graph_hash.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "svc/scheduler.h"
#include "svc/solver.h"
#include "workload/datasets.h"

#endif  // QPLEX_QPLEX_H_
