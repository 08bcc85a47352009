#!/usr/bin/env python3
"""Builds and runs orq_bench, the end-to-end benchmark of the ORQ query service.

Run from the repository root:

  python3 bench/e2e/run.py --workload tpch_fig8 [--seed N] [--seconds S] [--trace 0|1]
  python3 bench/e2e/run.py --workload all              # every workload, one process each
  python3 bench/e2e/run.py --repeat 10 --collect runs.jsonl [--seed N] [--trace 0|1]
  python3 bench/e2e/run.py --compare A.jsonl B.jsonl   # apply the BENCHMARK.json bounds
  python3 bench/e2e/run.py --workload subquery_mix --check-only [--seed N]

The build goes to .bench_build/ in the Release configuration, in two steps: the
repository's own CMake build of the `orq` library (.bench_build/orq), then the
benchmark package bench/e2e/CMakeLists.txt linking it (.bench_build/e2e). Each
workload runs in its own process, so every run starts with fresh memory and a
cold set-up. A run writes
its result file to .bench_build/results/<workload>[.trace].json (the traced run
also writes its spans as JSON lines next to it) and prints
"<workload> <metric> <value> <unit>" lines, ending with one JSON result object.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
LIB_DIR = os.path.join(BUILD, "orq")
CMAKE_DIR = os.path.join(BUILD, "e2e")
BINARY = os.path.join(CMAKE_DIR, "orq_bench")
POOL = os.path.join(HERE, "subquery_pool.tsv")
RESULTS = os.path.join(BUILD, "results")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 20261016
# One run's own limit, after the build: the set-up, reference answers,
# warm-up, window and traced pass all fit well inside it.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Builds the orq library and orq_bench; a no-op when both are up to date."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for source, tree, target, extra in (
            (ROOT, LIB_DIR, "orq", []),
            (HERE, CMAKE_DIR, "orq_bench", [f"-DORQ_BUILD_DIR={LIB_DIR}"])):
        steps = []
        if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", tree,
                          "-DCMAKE_BUILD_TYPE=Release", *generator, *extra])
        steps.append(["cmake", "--build", tree, "--target", target, "-j", jobs])
        for step in steps:
            # Build output goes to stderr: stdout carries only the results.
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
                if step[1] == "-S":
                    shutil.rmtree(tree, ignore_errors=True)
                log("build failed")
                sys.exit(1)


def git_sha():
    # Only this checkout's own .git is consulted; a bare source tree reports
    # "unknown".
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spec():
    with open(SPEC) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace, check_only=False):
    """Runs one workload in its own process; returns (exit code, result file)."""
    os.makedirs(RESULTS, exist_ok=True)
    name = workload + (".trace" if trace else "")
    out = os.path.join(RESULTS, name + ".json")
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--benchmark-json", SPEC, "--pool", POOL, "--sha", git_sha(),
               "--out", out]
    if trace:
        command += ["--spans-out", os.path.join(RESULTS, name + ".spans.jsonl")]
    if check_only:
        command.append("--check-only")
    if os.path.exists(out):
        os.remove(out)
    try:
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    return code, out if code == 0 and os.path.exists(out) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a BENCHMARK.json workload, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                        help="measured window per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that gives the per-layer metrics")
    parser.add_argument("--check-only", action="store_true",
                        help="only check every query's answer against the reference "
                             "(generated workloads: also a pool drawn from --seed)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, seeds --seed, --seed+1, ...")
    parser.add_argument("--collect", help="JSON-lines file the --repeat results go to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --collect files (A: parent, B: change)")
    args = parser.parse_args()

    build()
    if args.compare:
        files = [os.path.abspath(path) for path in args.compare]
        sys.exit(subprocess.run([BINARY, "--compare", *files,
                                 "--benchmark-json", SPEC], cwd=ROOT).returncode)

    names = ([w["name"] for w in spec()["workloads"]]
             if args.workload in (None, "all") else [args.workload])
    if args.repeat > 0:
        if not args.collect:
            parser.error("--repeat needs --collect FILE")
        failures = 0
        with open(args.collect, "a") as collected:
            for i in range(args.repeat):
                for name in names:
                    code, out = run_one(name, args.seed + i, args.seconds, args.trace)
                    if out is None:
                        failures += 1
                        log(f"{name} seed {args.seed + i} failed with exit code {code}")
                        continue
                    with open(out) as result:
                        collected.write(result.read().strip() + "\n")
                    collected.flush()
        sys.exit(1 if failures else 0)

    worst = 0
    for name in names:
        code, _ = run_one(name, args.seed, args.seconds, args.trace, args.check_only)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
