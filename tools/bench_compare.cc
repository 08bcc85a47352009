// CI perf-regression gate: compares a fresh `bench_* --json` report against
// the checked-in baseline (bench/baselines/BENCH_*.json). Row counts must
// match exactly; wall time may regress up to the tolerance factor.
//
// Usage: bench_compare <baseline.jsonl> <current.jsonl> [--tolerance X]
//        bench_compare --speedup <report.jsonl> [--slow TAG] [--fast TAG]
//                      [--min-ratio X] [--min-pairs N]
//
// The --speedup mode gates mode-vs-mode ratios within ONE report: every
// benchmark whose name contains the slow tag (default "/row/") is paired
// with its fast-tag twin (default "/columnar/"), and at least --min-pairs
// pairs (default 2) must reach --min-ratio (default 1.5x). This is how
// ci.sh holds the columnar engine to its speedup over row-at-a-time
// execution.
//
// The ORQ_BENCH_TOLERANCE environment variable overrides the default
// tolerance (the flag wins over the environment). A tolerance <= 0 skips
// wall-time checks entirely (row-count gating only) — useful on shared CI
// machines with unbounded timing noise.
//
// Exit code 0 when the gate passes, 1 on any failure, 2 on usage (numbers
// must parse whole; --min-pairs >= 1, --min-ratio > 0) or I/O
// errors (including unreadable baselines: a gate that cannot read its
// baseline must not go green).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_gate.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Parses all of `text` as a finite number; exits 2 naming `what` when it
/// does not.
double ParseNumber(const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    std::fprintf(stderr, "%s expects a number, got \"%s\"\n", what, text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  orq::BenchGateOptions options;
  orq::SpeedupGateOptions speedup_options;
  if (const char* env = std::getenv("ORQ_BENCH_TOLERANCE");
      env != nullptr && env[0] != '\0') {
    options.wall_tolerance = ParseNumber("ORQ_BENCH_TOLERANCE", env);
  }
  bool speedup_mode = false;
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  auto flag_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0) {
      options.wall_tolerance = ParseNumber("--tolerance", flag_value(&i));
    } else if (std::strcmp(argv[i], "--speedup") == 0) {
      speedup_mode = true;
    } else if (std::strcmp(argv[i], "--slow") == 0) {
      speedup_options.slow_tag = flag_value(&i);
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      speedup_options.fast_tag = flag_value(&i);
    } else if (std::strcmp(argv[i], "--min-ratio") == 0) {
      speedup_options.min_ratio = ParseNumber("--min-ratio", flag_value(&i));
      if (speedup_options.min_ratio <= 0) {
        std::fprintf(stderr, "--min-ratio expects a positive ratio\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--min-pairs") == 0) {
      const double pairs = ParseNumber("--min-pairs", flag_value(&i));
      if (pairs < 1 || pairs != std::floor(pairs) || pairs > 1e9) {
        std::fprintf(stderr, "--min-pairs expects a count of at least 1\n");
        return 2;
      }
      speedup_options.min_pairs = static_cast<int>(pairs);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
  }

  if (speedup_mode) {
    if (baseline_path == nullptr || current_path != nullptr) {
      std::fprintf(stderr,
                   "usage: bench_compare --speedup <report.jsonl> "
                   "[--slow TAG] [--fast TAG] [--min-ratio X] "
                   "[--min-pairs N]\n");
      return 2;
    }
    std::string report_jsonl;
    if (!ReadFile(baseline_path, &report_jsonl)) {
      std::fprintf(stderr, "bench_compare: cannot open %s\n", baseline_path);
      return 2;
    }
    orq::Result<orq::BenchGateReport> report =
        orq::CheckSpeedupJson(report_jsonl, speedup_options);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    std::printf("bench_compare: %s speedup %s/%s >= %.2fx on >=%d pairs\n%s",
                baseline_path, speedup_options.slow_tag.c_str(),
                speedup_options.fast_tag.c_str(), speedup_options.min_ratio,
                speedup_options.min_pairs, report->Summary().c_str());
    return report->ok() ? 0 : 1;
  }

  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.jsonl> <current.jsonl> "
                 "[--tolerance X]\n");
    return 2;
  }

  std::string baseline;
  std::string current;
  if (!ReadFile(baseline_path, &baseline)) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", baseline_path);
    return 2;
  }
  if (!ReadFile(current_path, &current)) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", current_path);
    return 2;
  }

  orq::Result<orq::BenchGateReport> report =
      orq::CompareBenchJson(baseline, current, options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("bench_compare: %s vs %s (tolerance %.2fx)\n%s", current_path,
              baseline_path, options.wall_tolerance,
              report->Summary().c_str());
  return report->ok() ? 0 : 1;
}
