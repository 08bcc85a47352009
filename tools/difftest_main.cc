// Differential testing driver: dual-executes seeded random queries on the
// naive reference engine and the full rewrite pipeline, and reports any
// bag-comparison divergence with a minimized reproducer and both plans.
//
// Usage: difftest [--seed N] [--queries N] [--max-failures N] [--verbose]
//                 [--reference-exec row|columnar|parallel]
//                 [--test-exec row|columnar|parallel] [--threads N]
//                 [--timeout-ms N] [--plan-cache]
//
// --plan-cache adds a cached-vs-cold oracle side: every non-divergent
// query also runs twice through one plan-cache-enabled engine, and the
// cached execution must be a cache hit with byte-identical results.
//
// --timeout-ms arms a per-query deadline on each oracle side (useful when
// hunting for pathological plans without letting the naive reference run
// unbounded). One-sided timeouts are tolerated, never divergences.
//
// The exec flags pick the engine per side: "columnar" (default) runs the
// columnar (SoA) engine, "row" the classic row-at-a-time Volcano engine,
// and "parallel" the columnar engine morsel-parallel on --threads workers
// (default 4). Mixing modes cross-checks engines on the same query
// stream — e.g. `--reference-exec row --test-exec parallel` is the
// parallel-vs-serial oracle.
//
// Exit code 0 when every query agreed, 1 on divergence, 2 on setup or
// usage error (a numeric flag must parse whole; --queries must be >= 1).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "difftest/harness.h"

int main(int argc, char** argv) {
  orq::HarnessOptions options;
  bool reference_parallel = false;
  bool test_parallel = false;
  int threads = 4;
  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](const char* flag) -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s expects an integer, got \"%s\"\n", flag,
                     text);
        std::exit(2);
      }
      return v;
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = static_cast<uint64_t>(next_int("--seed"));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      options.num_queries = static_cast<int>(next_int("--queries"));
      if (options.num_queries < 1) {
        std::fprintf(stderr, "--queries expects a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-failures") == 0) {
      options.max_failures = static_cast<int>(next_int("--max-failures"));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      options.plan_cache_check = true;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      options.timeout_ms = static_cast<int64_t>(next_int("--timeout-ms"));
      if (options.timeout_ms < 0) {
        std::fprintf(stderr, "--timeout-ms expects a non-negative value\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<int>(next_int("--threads"));
      if (threads < 1) {
        std::fprintf(stderr, "--threads expects a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--reference-exec") == 0 ||
               std::strcmp(argv[i], "--test-exec") == 0) {
      const char* flag = argv[i];
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires row|columnar|parallel\n", flag);
        return 2;
      }
      const char* mode = argv[++i];
      const bool parallel = std::strcmp(mode, "parallel") == 0;
      const bool batched = parallel || std::strcmp(mode, "columnar") == 0;
      if (!batched && std::strcmp(mode, "row") != 0) {
        std::fprintf(stderr, "%s expects row|columnar|parallel, got %s\n",
                     flag, mode);
        return 2;
      }
      if (std::strcmp(flag, "--reference-exec") == 0) {
        options.reference_batched = batched;
        reference_parallel = parallel;
      } else {
        options.test_batched = batched;
        test_parallel = parallel;
      }
    } else {
      std::fprintf(stderr,
                   "unknown argument %s\nusage: difftest [--seed N] "
                   "[--queries N] [--max-failures N] [--verbose] "
                   "[--reference-exec row|columnar|parallel] "
                   "[--test-exec row|columnar|parallel] "
                   "[--threads N] [--timeout-ms N] [--plan-cache]\n",
                   argv[i]);
      return 2;
    }
  }
  options.reference_threads = reference_parallel ? threads : 0;
  options.test_threads = test_parallel ? threads : 0;

  orq::Result<orq::HarnessReport> report = orq::RunDifftest(options);
  if (!report.ok()) {
    std::fprintf(stderr, "difftest setup failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::fputs(report->Summary().c_str(), stdout);
  return report->ok() ? 0 : 1;
}
