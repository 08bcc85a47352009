#include "compare.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "report.h"

namespace orq::bench {

namespace {

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// workload -> metric -> seed -> value, over untraced runs.
using Runs = std::map<std::string, std::map<std::string, std::map<double, double>>>;

struct Side {
  Runs runs;
  std::map<std::string, std::string> stamp;  // from the first line
  std::vector<double> host_ms;               // every run's host speed
};

bool ReadJson(const std::string& text, JsonValue* out, const std::string& where) {
  std::string error;
  if (ParseJson(text, out, &error)) return true;
  std::fprintf(stderr, "compare: %s: %s\n", where.c_str(), error.c_str());
  return false;
}

bool ReadSide(const std::string& path, Side* side) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty()) continue;
    JsonValue run;
    if (!ReadJson(line, &run, path + ":" + std::to_string(number))) {
      return false;
    }
    const JsonValue* stamp = run.Find("stamp");
    const JsonValue* result = run.Find("result");
    const JsonValue* metrics =
        result != nullptr ? result->Find("metrics") : nullptr;
    if (stamp == nullptr || metrics == nullptr) continue;
    if (side->stamp.empty()) {
      for (const auto& [key, value] : stamp->object) {
        side->stamp[key] = value.string_value;
      }
    }
    side->host_ms.push_back(std::atof(stamp->StringOr("host_ms", "0").c_str()));
    if (stamp->StringOr("trace", "0") != "0") continue;
    const std::string workload = stamp->StringOr("workload", "");
    const double seed = std::atof(stamp->StringOr("seed", "0").c_str());
    for (const auto& [name, metric] : metrics->object) {
      side->runs[workload][name][seed] = metric.NumberOr("value", 0.0);
    }
  }
  return true;
}

std::vector<double> Values(const std::map<double, double>& by_seed) {
  std::vector<double> out;
  for (const auto& [seed, value] : by_seed) out.push_back(value);
  return out;
}

}  // namespace

int RunCompare(const std::string& spec_path, const std::string& a_path,
               const std::string& b_path) {
  std::ifstream spec_in(spec_path);
  const std::string spec_text((std::istreambuf_iterator<char>(spec_in)),
                              std::istreambuf_iterator<char>());
  JsonValue spec;
  Side a, b;
  if (!ReadJson(spec_text, &spec, spec_path) || !ReadSide(a_path, &a) ||
      !ReadSide(b_path, &b)) {
    return 2;
  }
  std::vector<Bound> bounds;
  if (const JsonValue* items = spec.Find("end_to_end")) {
    for (const JsonValue& item : items->array) {
      bounds.push_back({item.StringOr("name", ""),
                        item.StringOr("better", "lower") == "lower",
                        item.NumberOr("bound", 0.0)});
    }
  }

  for (const char* key : {"nproc", "compiler", "build_type", "window_s"}) {
    const std::string left = a.stamp[key];
    const std::string right = b.stamp[key];
    std::printf("# %s A=%s B=%s%s\n", key, left.c_str(), right.c_str(),
                left == right ? "" : "  (DIFFERENT: not comparable)");
  }
  std::printf("# git_sha A=%s B=%s\n", a.stamp["git_sha"].c_str(),
              b.stamp["git_sha"].c_str());
  // The host's own speed, so drift between the two sets is visible.
  std::printf("# host_ms median A=%.2f B=%.2f\n", Median(a.host_ms),
              Median(b.host_ms));

  bool any_worse = false;
  std::string details;
  for (const auto& [workload, metrics] : a.runs) {
    std::string row = workload;
    for (const Bound& bound : bounds) {
      auto left_it = metrics.find(bound.name);
      auto right_workload = b.runs.find(workload);
      if (left_it == metrics.end() || right_workload == b.runs.end() ||
          right_workload->second.count(bound.name) == 0) {
        row += "  " + bound.name + "=missing";
        continue;
      }
      const std::map<double, double>& left_runs = left_it->second;
      const std::map<double, double>& right_runs =
          right_workload->second.at(bound.name);
      const std::vector<double> left = Values(left_runs);
      const std::vector<double> right = Values(right_runs);
      const double left_median = Median(left);
      const double right_median = Median(right);
      // Positive `worse` means B is worse than A, as a share of A.
      const double sign = bound.lower_is_better ? 1.0 : -1.0;
      const double worse =
          left_median != 0.0
              ? sign * (right_median - left_median) / left_median
              : 0.0;
      auto better_than = [&](double x, double y) {
        return bound.lower_is_better ? x < y : x > y;
      };
      const auto [left_min, left_max] =
          std::minmax_element(left.begin(), left.end());
      const auto [right_min, right_max] =
          std::minmax_element(right.begin(), right.end());
      const bool all_better =
          bound.lower_is_better ? *right_max < *left_min : *right_min > *left_max;
      // Pairs share a seed; the change wins a pair when it reads better.
      int pairs = 0;
      int wins = 0;
      for (const auto& [seed, value] : right_runs) {
        auto match = left_runs.find(seed);
        if (match == left_runs.end()) continue;
        ++pairs;
        if (better_than(value, match->second)) ++wins;
      }
      const double left_spread = Spread(left);
      const double spread = std::max(left_spread, Spread(right));
      std::string verdict;
      if (spread > bound.bound) {
        verdict = all_better ? "better" : "unresolved";
      } else if (worse > bound.bound) {
        verdict = "worse";
        any_worse = true;
      } else if (-worse > left_spread && pairs > 0 && wins * 10 >= pairs * 9) {
        verdict = "better";
      } else {
        verdict = "same";
      }
      char cell[160];
      std::snprintf(cell, sizeof cell, "  %s=%s(%+.1f%%)", bound.name.c_str(),
                    verdict.c_str(), 100.0 * sign * worse);
      row += cell;
      char line[320];
      std::snprintf(line, sizeof line,
                    "  %-16s %-18s A=%-12.6g B=%-12.6g change=%+6.1f%% "
                    "spread A=%.1f%% B=%.1f%% bound=%.0f%% runs=%zu/%zu "
                    "wins=%d/%d %s\n",
                    workload.c_str(), bound.name.c_str(), left_median,
                    right_median, 100.0 * sign * worse, 100.0 * left_spread,
                    100.0 * Spread(right), 100.0 * bound.bound, left.size(),
                    right.size(), wins, pairs, verdict.c_str());
      details += line;
    }
    std::printf("%s\n", row.c_str());
  }
  std::printf("\n%s", details.c_str());
  return any_worse ? 1 : 0;
}

}  // namespace orq::bench
