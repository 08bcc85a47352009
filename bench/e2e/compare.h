#ifndef ORQ_BENCH_E2E_COMPARE_H_
#define ORQ_BENCH_E2E_COMPARE_H_

#include <string>

namespace orq::bench {

/// `orq_bench --compare A B`: A and B are JSON-lines files of result files
/// (one `--out` object per line, as `run.py --repeat` collects them), A the
/// parent and B the change. For every workload it prints one row marking
/// each end-to-end metric same, better, worse, or unresolved when either
/// side's run-to-run spread exceeds the metric's BENCHMARK.json bound.
/// Returns 1 when any metric is worse, 2 on unreadable input.
int RunCompare(const std::string& spec_path, const std::string& a_path,
               const std::string& b_path);

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_COMPARE_H_
