#include "src/obs/obs_gate.h"

#include "src/common/format.h"

namespace coopfs {
namespace {

const BenchSeries* FindSeries(const BenchReport& report, const char* name) {
  for (const BenchSeries& series : report.series) {
    if (series.name == name) {
      return &series;
    }
  }
  return nullptr;
}

}  // namespace

GateResult EvaluateObsGate(const BenchReport& report, const ObsGateOptions& options) {
  GateResult result;

  const BenchSeries* bounded = FindSeries(report, kObsGateBoundedSeries);
  const BenchSeries* baseline = FindSeries(report, kObsGateBaselineSeries);
  if (bounded == nullptr || baseline == nullptr) {
    result.notes.push_back(std::string("no ") + kObsGateBoundedSeries + " series with a " +
                           kObsGateBaselineSeries + " baseline; obs gate not applicable");
    return result;
  }
  result.applicable = true;

  if (baseline->ops_per_sec <= 0.0) {
    result.passed = false;
    result.failures.push_back(std::string(kObsGateBaselineSeries) +
                              " reports zero throughput");
    return result;
  }

  const double required = (1.0 - options.max_overhead) * baseline->ops_per_sec;
  const double ratio = bounded->ops_per_sec / baseline->ops_per_sec;
  if (bounded->ops_per_sec < required) {
    result.passed = false;
    result.failures.push_back(
        std::string(kObsGateBoundedSeries) + " = " + FormatDouble(ratio, 2) + "x of " +
        kObsGateBaselineSeries + ", below the " + FormatDouble(1.0 - options.max_overhead, 2) +
        "x floor (bounded telemetry may cost at most " +
        FormatDouble(options.max_overhead * 100.0, 0) + "% of untraced replay throughput)");
  }

  return result;
}

}  // namespace coopfs
