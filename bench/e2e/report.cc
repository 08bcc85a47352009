#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace orq::bench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double CentralMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t from = n * 45 / 100;
  const size_t to = std::max(from + 1, (n * 55 + 99) / 100);
  double sum = 0.0;
  for (size_t i = from; i < to; ++i) sum += values[i];
  return sum / static_cast<double>(to - from);
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[static_cast<size_t>(i - 1)] =
        (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double Spread(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const std::array<double, 3> q = Quartiles(values);
  return q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

std::string FullDigits(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace orq::bench
