#!/usr/bin/env bash
# Default CI gate: build + full test suite in Release, then again under
# ASan+UBSan (including the difftest differential smoke run). Any sanitizer
# report is fatal (-fno-sanitize-recover=all), so a green run means the
# whole suite — parser, normalizer, optimizer, executor, and 500 random
# dual-executed queries — is clean of address errors and UB.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "=== Release build + tests ==="
cmake --preset release >/dev/null
cmake --build --preset release -j "${JOBS}"
ctest --preset release -j "${JOBS}"

echo "=== Release bench smoke (--json pipeline) ==="
# One short run of every figure suite with the machine-readable report on,
# each validated through the strict JSON checker. Guards the BENCH_*.json
# baseline format without paying full benchmark time in CI.
BENCH_SMOKE_DIR=build/bench_smoke_json
mkdir -p "${BENCH_SMOKE_DIR}"
for bench_bin in build/bench/bench_*; do
  [ -x "${bench_bin}" ] || continue
  name="$(basename "${bench_bin}")"
  "${bench_bin}" --benchmark_min_time=0.001 \
    --json "${BENCH_SMOKE_DIR}/${name}.json" >/dev/null
  build/tools/json_check "${BENCH_SMOKE_DIR}/${name}.json"
done
# The morsel-parallel report: the Figure 8 suite with 4 worker threads.
build/bench/bench_fig8_suite --benchmark_min_time=0.001 --threads 4 \
  --json "${BENCH_SMOKE_DIR}/bench_fig8_suite_parallel.json" >/dev/null
build/tools/json_check "${BENCH_SMOKE_DIR}/bench_fig8_suite_parallel.json"

echo "=== Bench baseline gate ==="
# Compares the smoke-run reports against the checked-in baselines:
# result_rows/rows_produced must match exactly (a silent correctness or
# plan change), wall time may drift up to ORQ_BENCH_TOLERANCE. The default
# is deliberately loose — the smoke run uses tiny timing windows and CI
# machines are noisy; refresh baselines with
# scripts/refresh_bench_baselines.sh after intentional perf changes.
: "${ORQ_BENCH_TOLERANCE:=4.0}"
export ORQ_BENCH_TOLERANCE
for pair in \
    bench_fig1_strategies:BENCH_fig1.json \
    bench_fig8_suite:BENCH_fig8.json \
    bench_fig9_q2:BENCH_fig9_q2.json \
    bench_fig9_q17:BENCH_fig9_q17.json \
    bench_columnar:BENCH_columnar.json; do
  bench_bin="${pair%%:*}"
  baseline="bench/baselines/${pair##*:}"
  build/tools/bench_compare "${baseline}" \
    "${BENCH_SMOKE_DIR}/${bench_bin}.json"
done

echo "=== Columnar speedup gate ==="
# The columnar engine must hold >=1.5x over row-at-a-time execution on at
# least 2 of the recorded workloads. Checked twice: against the checked-in
# baseline (the stable recorded numbers) and against the fresh smoke run
# (the measured ratios are about 2-5x, so even the short smoke window
# clears 1.5x with a margin).
build/tools/bench_compare --speedup bench/baselines/BENCH_columnar.json
build/tools/bench_compare --speedup "${BENCH_SMOKE_DIR}/bench_columnar.json"

echo "=== Anti-join ratio gate ==="
# Each correlated quantified subquery of the Fig8Anti pairs (NOT IN, and
# <> ALL with a filter) must run within 2x of its NOT EXISTS twin, in the
# checked-in baseline and in the fresh smoke run. Both forms are hash anti
# joins; a form that falls back to nested loops runs thousands of times
# slower and fails here.
for report in bench/baselines/BENCH_fig8.json \
    "${BENCH_SMOKE_DIR}/bench_fig8_suite.json"; do
  build/tools/bench_compare --speedup "${report}" \
    --slow /not_exists/ --fast /quantified/ --min-ratio 0.5
done

# Parallel gate: the 4-thread Figure 8 run must keep the exact row counts
# the serial engine produces (any drift is a parallel-correctness bug, not
# noise) and stay within the wall tolerance of its own parallel baseline.
build/tools/bench_compare bench/baselines/BENCH_parallel.json \
  "${BENCH_SMOKE_DIR}/bench_fig8_suite_parallel.json"

echo "=== orq_profile smoke (Chrome trace export) ==="
build/tools/orq_profile --tpch Q2 --sf 0.002 \
  --out build/profile_smoke_trace.json >/dev/null
build/tools/json_check build/profile_smoke_trace.json

echo "=== Server smoke (orq_serve + orq_client over TCP) ==="
# Boots the daemon on an ephemeral port, drives it with the client CLI
# (ping, a query, a SET, the metrics admin command), and shuts it down
# with SIGTERM. Guards the wire protocol and server lifecycle end-to-end,
# from a different process than the in-binary server tests.
SERVE_PORT_FILE=build/ci_serve.port
rm -f "${SERVE_PORT_FILE}"
build/tools/orq_serve --port 0 --port-file "${SERVE_PORT_FILE}" \
  --catalog difftest --seed 20260806 >build/ci_serve.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "${SERVE_PORT_FILE}" ] && break
  sleep 0.1
done
[ -s "${SERVE_PORT_FILE}" ] || { cat build/ci_serve.log; exit 1; }
SERVE_PORT="$(cat "${SERVE_PORT_FILE}")"
build/tools/orq_client --port "${SERVE_PORT}" --ping >/dev/null
build/tools/orq_client --port "${SERVE_PORT}" \
  --sql "SELECT COUNT(*) FROM nation" >/dev/null
build/tools/orq_client --port "${SERVE_PORT}" --set "timeout_ms 1000" \
  --sql "SELECT n_name FROM nation ORDER BY n_name" >/dev/null
build/tools/orq_client --port "${SERVE_PORT}" --admin metrics \
  | grep -q "^server.sessions_active"
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"

echo "=== Observability scrape smoke (query store + /metrics) ==="
# Boots the daemon with the Prometheus listener on, runs three queries,
# then asserts every observability surface agrees: \metrics json and
# \history parse as strict JSON, the history lists exactly the three
# queries, and the scraped /metrics text reports queries_ok == 3.
OBS_PORT_FILE=build/ci_obs_serve.port
OBS_METRICS_PORT_FILE=build/ci_obs_serve.metrics_port
rm -f "${OBS_PORT_FILE}" "${OBS_METRICS_PORT_FILE}"
build/tools/orq_serve --port 0 --port-file "${OBS_PORT_FILE}" \
  --metrics-port 0 --metrics-port-file "${OBS_METRICS_PORT_FILE}" \
  --catalog difftest --seed 20260806 >build/ci_obs_serve.log 2>&1 &
OBS_PID=$!
for _ in $(seq 1 100); do
  [ -s "${OBS_PORT_FILE}" ] && [ -s "${OBS_METRICS_PORT_FILE}" ] && break
  sleep 0.1
done
[ -s "${OBS_METRICS_PORT_FILE}" ] || { cat build/ci_obs_serve.log; exit 1; }
OBS_PORT="$(cat "${OBS_PORT_FILE}")"
OBS_METRICS_PORT="$(cat "${OBS_METRICS_PORT_FILE}")"
build/tools/orq_client --port "${OBS_PORT}" \
  --sql "SELECT COUNT(*) FROM nation" \
  --sql "SELECT COUNT(*) FROM part" \
  --sql "SELECT n_name FROM nation ORDER BY n_name" >/dev/null
build/tools/orq_client --port "${OBS_PORT}" --admin "metrics json" \
  >build/ci_obs_metrics.json
build/tools/json_check build/ci_obs_metrics.json
build/tools/orq_client --port "${OBS_PORT}" --admin "history 10" \
  >build/ci_obs_history.json
build/tools/json_check build/ci_obs_history.json
# The JSON is a single physical line, so count matches, not lines.
HISTORY_COUNT="$(grep -o '"query_id"' build/ci_obs_history.json | wc -l)" \
  || HISTORY_COUNT=0
[ "${HISTORY_COUNT}" -eq 3 ] || {
  echo "history lists ${HISTORY_COUNT} queries, expected 3"
  cat build/ci_obs_history.json
  exit 1
}
build/tools/orq_client --port "${OBS_PORT}" --scrape "${OBS_METRICS_PORT}" \
  >build/ci_obs_scrape.txt
grep -q '^orq_server_queries_ok_total 3$' build/ci_obs_scrape.txt || {
  echo "scraped /metrics does not report queries_ok == 3"
  cat build/ci_obs_scrape.txt
  exit 1
}
kill -TERM "${OBS_PID}"
wait "${OBS_PID}"

echo "=== Load-generator smoke + serve bench gate ==="
# Self-hosted load run: deterministic per-session query streams against an
# in-process server. result_rows/rows_produced are exact (serial engines,
# fixed seed), so bench_compare pins server-path correctness the same way
# the figure suites pin the engine; qps/p50/p95/p99 ride along untyped.
build/tools/orq_loadgen --sessions 4 --queries 25 --seed 20260806 \
  --json build/BENCH_serve.json >/dev/null
build/tools/json_check build/BENCH_serve.json
build/tools/bench_compare bench/baselines/BENCH_serve.json \
  build/BENCH_serve.json

echo "=== Plan-cache load smoke + cache bench gate ==="
# Repeated-stream workload (each session cycles 5 distinct queries) with
# the server-side plan cache on: steady state must serve at least 90% of
# executions from cache, or the run fails. Row counts gate through
# bench_compare like every other BENCH_*.json, so a cache that changes
# results (not just speed) also fails here.
build/tools/orq_loadgen --sessions 4 --queries 60 --seed 20260806 \
  --plan-cache --distinct 5 --min-hit-rate 90 \
  --json build/BENCH_cache.json >/dev/null
build/tools/json_check build/BENCH_cache.json
build/tools/bench_compare bench/baselines/BENCH_cache.json \
  build/BENCH_cache.json
# Prepared-statement fast path: PREPARE warms the cache, so every EXECUTE
# must hit it.
build/tools/orq_loadgen --sessions 4 --queries 50 --seed 20260806 \
  --prepared --min-hit-rate 99 >/dev/null

echo "=== Default-mode difftest campaign ==="
# The naive reference (no optimizer, FROM-list join order, nested loops)
# against the full pipeline: the only mode whose two sides join in
# different orders, so a wrong join order shows up here and nowhere else.
build/tools/difftest --seed 23 --queries 2000

echo "=== Parallel-vs-row difftest campaign ==="
# The ctest smoke runs 500 queries at one seed; the parallel aggregate
# merge and the SUM accumulator get a longer campaign at a second seed.
build/tools/difftest --seed 7 --queries 2000 --reference-exec row \
  --test-exec parallel --threads 4

echo "=== Row-vs-columnar difftest campaign ==="
# The columnar hash-join build and probe (typed build table, one batch
# probe per join kind, the null-aware NOT IN join) are checked only
# against the row engine; a longer campaign at a second seed.
build/tools/difftest --seed 11 --queries 2000 --reference-exec row \
  --test-exec columnar

echo "=== End-to-end benchmark answer check (held-out seed) ==="
# Builds orq_bench from this checkout and checks every workload's answers
# against its reference at the held-out seed, without a timed window.
python3 bench/e2e/run.py --workload all --check-only --seed 7

echo "=== ASan+UBSan build + tests ==="
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"
ctest --preset asan -j "${JOBS}"
# The typed string scatter and Table::Append's row check under ASan, over
# the generator's CASE, UNION ALL and mixed-arithmetic shapes.
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  build-asan/tools/difftest --seed 11 --queries 500 --reference-exec row

if [ "${ORQ_CI_TSAN:-0}" = "1" ]; then
  echo "=== TSan build + parallel-execution tests ==="
  # Optional (TSan triples build time and ~10x's the parallel suite):
  # builds the thread-sanitized tree and runs exactly the tests that
  # exercise threaded code — the morsel-parallel engine suites and the
  # column-batch exchange (parallel difftest, parallel/batch/column-batch
  # unit suites) plus the engine re-entrancy, cancellation, admission and
  # network-server tests.
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "${JOBS}"
  ctest --preset tsan -j "${JOBS}" \
    -R 'difftest_smoke_parallel|parallel_exec_test|batch_exec_test|column_batch_test|engine_concurrency_test|cancel_test|server_smoke_test|admission_test|query_store_test'
  echo "CI: all suites passed (release + asan/ubsan + tsan)."
else
  echo "CI: all suites passed (release + asan/ubsan); set ORQ_CI_TSAN=1 to add the TSan pass."
fi
