#include "src/obs/scaling_gate.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/format.h"

namespace coopfs {
namespace {

struct SweepPoint {
  std::size_t threads = 0;
  double ops_per_sec = 0.0;
};

// Parses "parallel_sweep_<T>t" into T; returns 0 for any other name.
std::size_t SweepThreadsOf(const std::string& name) {
  constexpr const char kPrefix[] = "parallel_sweep_";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0 || name.size() < kPrefixLen + 2 ||
      name.back() != 't') {
    return 0;
  }
  const std::string digits = name.substr(kPrefixLen, name.size() - kPrefixLen - 1);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return 0;
  }
  return static_cast<std::size_t>(std::strtoull(digits.c_str(), nullptr, 10));
}

std::string Ratio(double numerator, double denominator) {
  return FormatDouble(denominator > 0.0 ? numerator / denominator : 0.0, 2) + "x";
}

}  // namespace

GateResult EvaluateScalingGate(const BenchReport& report, const ScalingGateOptions& options) {
  GateResult result;

  std::vector<SweepPoint> points;
  for (const BenchSeries& series : report.series) {
    if (const std::size_t threads = SweepThreadsOf(series.name); threads > 0) {
      points.push_back({threads, series.ops_per_sec});
    }
  }
  std::sort(points.begin(), points.end(),
            [](const SweepPoint& a, const SweepPoint& b) { return a.threads < b.threads; });

  const auto at = [&points](std::size_t threads) -> const SweepPoint* {
    for (const SweepPoint& point : points) {
      if (point.threads == threads) {
        return &point;
      }
    }
    return nullptr;
  };
  const SweepPoint* serial = at(1);
  if (serial == nullptr || points.size() < 2) {
    result.notes.push_back(
        "no parallel_sweep_1t series with a wider companion; scaling gate not applicable");
    return result;
  }
  result.applicable = true;

  if (report.host_threads == 0) {
    result.passed = false;
    result.failures.push_back(
        "document lacks 'host_threads'; cannot interpret sweep speedups "
        "(re-baseline with the current perf_harness)");
    return result;
  }
  if (serial->ops_per_sec <= 0.0) {
    result.passed = false;
    result.failures.push_back("parallel_sweep_1t reports zero throughput");
    return result;
  }

  // 2t/1t efficiency floor, host-aware.
  if (const SweepPoint* two = at(2); two != nullptr) {
    const double attainable =
        static_cast<double>(std::min<std::size_t>(2, report.host_threads));
    const double required = options.efficiency_floor * attainable;
    const double ratio = two->ops_per_sec / serial->ops_per_sec;
    if (ratio < required) {
      result.passed = false;
      result.failures.push_back(
          "parallel_sweep_2t/1t = " + Ratio(two->ops_per_sec, serial->ops_per_sec) +
          ", below the " + FormatDouble(required, 2) + "x floor (efficiency " +
          FormatDouble(options.efficiency_floor, 2) + " x attainable speedup " +
          FormatDouble(attainable, 0) + " on a " +
          std::to_string(report.host_threads) + "-thread host)");
    }
    if (report.host_threads < 2) {
      result.notes.push_back(
          "host_threads=" + std::to_string(report.host_threads) +
          ": 2t floor degraded to " + FormatDouble(required, 2) +
          "x (no parallel speedup attainable)");
    }
  } else {
    result.passed = false;
    result.failures.push_back(
        "parallel_sweep_2t series missing; 2t/1t floor cannot be checked");
  }

  // Monotonicity with tolerance: each wider width vs the best narrower one.
  double best_so_far = serial->ops_per_sec;
  std::size_t best_threads = serial->threads;
  for (const SweepPoint& point : points) {
    if (point.threads == 1) {
      continue;
    }
    const double tolerance = point.threads <= report.host_threads
                                 ? options.monotonicity_tolerance
                                 : options.oversubscribed_tolerance;
    const double required = tolerance * best_so_far;
    if (point.ops_per_sec < required) {
      result.passed = false;
      result.failures.push_back(
          "parallel_sweep_" + std::to_string(point.threads) + "t = " +
          Ratio(point.ops_per_sec, serial->ops_per_sec) + " of 1t, dropping below " +
          FormatDouble(tolerance, 2) + " x the " +
          std::to_string(best_threads) + "t throughput (non-monotonic scaling)");
    }
    if (point.ops_per_sec > best_so_far) {
      best_so_far = point.ops_per_sec;
      best_threads = point.threads;
    }
  }

  return result;
}

}  // namespace coopfs
