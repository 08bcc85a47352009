#ifndef ORQ_BENCH_E2E_REPORT_H_
#define ORQ_BENCH_E2E_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace orq::bench {

/// One named measurement as printed and written to the result JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (`pct` in [0, 100]) of unsorted values; 0 for
/// an empty input.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

/// Mean of the values between the 45th and 55th percentiles: a median
/// estimate that does not jump when the median falls in the gap between
/// two well-separated groups (two TPC-H queries of different cost).
double CentralMean(std::vector<double> values);

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so spreads printed here match a script's. Needs two values.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Interquartile range as a share of the median: the run-to-run spread.
double Spread(const std::vector<double>& values);

/// A double with every significant digit ("%.17g").
std::string FullDigits(double value);

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_REPORT_H_
