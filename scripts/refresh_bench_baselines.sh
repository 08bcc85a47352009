#!/usr/bin/env bash
# Regenerates bench/baselines/BENCH_*.json — the perf-regression gate's
# reference numbers (see scripts/ci.sh and tools/bench_compare.cc).
#
# Run this ON THE MACHINE THAT RUNS CI after any intentional performance
# change, then commit the updated baselines alongside the change. Wall
# times only gate within a tolerance, but the baselines' exact
# result_rows/rows_produced are what pin query correctness and plan work.
#
#   $ scripts/refresh_bench_baselines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release >/dev/null
cmake --build --preset release -j "$(nproc)" >/dev/null

# A longer timing window than the CI smoke run: baseline wall numbers
# should be the stable ones.
MIN_TIME="${ORQ_BENCH_MIN_TIME:=0.05}"

# Every baseline line is stamped with the machine it was measured on, so
# numbers from different machines are never compared silently.
COMPILER_FILE="$(ls build/CMakeFiles/*/CMakeCXXCompiler.cmake | head -1)"
COMPILER="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  "${COMPILER_FILE}") $(sed -n \
  's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' "${COMPILER_FILE}")"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
STAMP="\"nproc\":$(nproc),\"compiler\":\"${COMPILER}\",\"build_type\":\"${BUILD_TYPE}\""
stamp() {
  sed -i "s|^{|{${STAMP},|" "$1"
  build/tools/json_check "$1"
}

for pair in \
    bench_fig1_strategies:BENCH_fig1.json \
    bench_fig8_suite:BENCH_fig8.json \
    bench_fig9_q2:BENCH_fig9_q2.json \
    bench_fig9_q17:BENCH_fig9_q17.json \
    bench_columnar:BENCH_columnar.json; do
  bench_bin="${pair%%:*}"
  out="bench/baselines/${pair##*:}"
  echo "=== ${bench_bin} -> ${out} ==="
  "build/bench/${bench_bin}" --benchmark_min_time="${MIN_TIME}" \
    --json "${out}" >/dev/null
  stamp "${out}"
done

# The columnar baseline must itself clear the speedup gate ci.sh enforces
# (columnar >= 1.5x over row-at-a-time on >= 2 workloads): fail here at
# refresh time rather than on the next CI run.
build/tools/bench_compare --speedup bench/baselines/BENCH_columnar.json
# Likewise the Fig8Anti ratio gate: each quantified subquery within 2x of
# its NOT EXISTS twin.
build/tools/bench_compare --speedup bench/baselines/BENCH_fig8.json \
  --slow /not_exists/ --fast /quantified/ --min-ratio 0.5

# Morsel-parallel baseline: the Figure 8 suite again, but with every engine
# running 4 worker threads. Row counts must stay identical to the serial
# runs; the wall numbers document real thread scaling on this machine.
echo "=== bench_fig8_suite --threads 4 -> bench/baselines/BENCH_parallel.json ==="
build/bench/bench_fig8_suite --benchmark_min_time="${MIN_TIME}" \
  --threads 4 --json bench/baselines/BENCH_parallel.json >/dev/null
stamp bench/baselines/BENCH_parallel.json

# Server-path baseline: the load generator against a self-hosted server,
# same fixed seed and session count as the CI gate. Row counts are exact
# (serial engines, deterministic streams); qps and the latency percentiles
# document server throughput on this machine.
echo "=== orq_loadgen -> bench/baselines/BENCH_serve.json ==="
build/tools/orq_loadgen --sessions 4 --queries 25 --seed 20260806 \
  --json bench/baselines/BENCH_serve.json >/dev/null
stamp bench/baselines/BENCH_serve.json

# Plan-cache baseline: the repeated-stream workload the CI cache gate
# runs, with the same distinct-query cycle. Row counts are exact; the
# wall number documents steady-state cached throughput.
echo "=== orq_loadgen --plan-cache -> bench/baselines/BENCH_cache.json ==="
build/tools/orq_loadgen --sessions 4 --queries 60 --seed 20260806 \
  --plan-cache --distinct 5 --min-hit-rate 90 \
  --json bench/baselines/BENCH_cache.json >/dev/null
stamp bench/baselines/BENCH_cache.json

echo "baselines refreshed; review and commit bench/baselines/"
