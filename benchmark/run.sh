#!/usr/bin/env bash
# Builds qplex_serve and the load generator from this checkout, runs the
# benchmark workloads against the real server and prints every metric by
# name and unit. The last stdout line of each workload is its JSON result.
#
#   benchmark/run.sh [--workload W | --workloads a,b,..] [--seed N]
#                    [--trace [0|1]] [--out DIR]
#   benchmark/run.sh compare A/ B/
#
# Defaults: all four workloads, seed 1 (the development seed; seed 2 is held
# out for claims), end-to-end mode, results under .bench_build/results. A run
# measures for BENCHMARK.json's run_seconds; --seconds S is accepted only
# when S equals it. Exit codes: 0 ok, 1 build or run failure, 2 usage or no
# sources, 3 a failed request or a wrong answer.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [[ "${1:-}" == "compare" ]]; then
  shift
  exec python3 "$here/compare.py" --spec "$root/BENCHMARK.json" "$@"
fi

workloads="qmkp_circuit,exact_classical,flood_small,portfolio_race"
seed=1
trace=0
out=""
while (($#)); do
  case "$1" in
    --workload | --workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds)
      fixed="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
      if [[ "${2:-}" != "$fixed" ]]; then
        echo "run.sh: a run measures for run_seconds = $fixed (BENCHMARK.json), not '${2:-}'" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no qplex sources next to benchmark/; run it from a repository checkout" >&2
  exit 2
fi

build=.bench_build/cmake
out="${out:-.bench_build/results}"
mkdir -p "$out"
log=.bench_build/build.log
if ! { cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
       cmake --build "$build" -j "$(nproc)" --target qplex_loadgen; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log in $log)" >&2
  exit 1
fi

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
status=0
IFS=, read -ra names <<<"$workloads"
for workload in "${names[@]}"; do
  "$build/qplex_loadgen" --workload "$workload" --seed "$seed" \
    --trace "$trace" --out "$out" --spec BENCHMARK.json --commit "$commit" || status=$?
done
exit "$status"
