#include "src/obs/serve_gate.h"

#include <cstdio>
#include <string_view>

namespace coopfs {

namespace {

bool IsServeSeries(const BenchSeries& series) {
  return std::string_view(series.name).substr(0, 6) == "serve_";
}

const BenchSeries* FindSeries(const BenchReport& report, std::string_view name) {
  for (const BenchSeries& series : report.series) {
    if (series.name == name) {
      return &series;
    }
  }
  return nullptr;
}

// Latency object with samples behind it, or null.
const BenchLatency* PopulatedLatency(const BenchSeries* series) {
  if (series == nullptr || !series->latency.has_value() || series->latency->count == 0) {
    return nullptr;
  }
  return &*series->latency;
}

std::string FormatUs(double us) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f us", us);
  return buffer;
}

}  // namespace

GateResult EvaluateServeGate(const BenchReport& candidate, const BenchReport* baseline,
                             const ServeGateOptions& options) {
  GateResult result;
  for (const BenchSeries& series : candidate.series) {
    if (IsServeSeries(series) && series.latency.has_value()) {
      result.applicable = true;
      break;
    }
  }
  if (!result.applicable) {
    result.notes.push_back("no serve series with latency data; serve gate skipped");
    return result;
  }

  const auto fail = [&result](std::string message) {
    result.failures.push_back(std::move(message));
    result.passed = false;
  };

  // Presence: a serve document that never hit the local cache measured a
  // misconfigured storm.
  if (PopulatedLatency(FindSeries(candidate, kServeGetLocalSeries)) == nullptr) {
    fail(std::string(kServeGetLocalSeries) +
         " absent or empty: no local-memory hits were measured");
  }

  // Per-series quantile monotonicity.
  for (const BenchSeries& series : candidate.series) {
    if (!IsServeSeries(series) || !series.latency.has_value() ||
        series.latency->count == 0) {
      continue;
    }
    const BenchLatency& lat = *series.latency;
    if (lat.p50_us > lat.p99_us || lat.p99_us > lat.p999_us) {
      fail(series.name + ": quantiles not monotonic (p50 " + FormatUs(lat.p50_us) +
           ", p99 " + FormatUs(lat.p99_us) + ", p999 " + FormatUs(lat.p999_us) + ")");
    }
  }

  // Modeled ordering across the memory hierarchy (medians, so a handful of
  // contended outliers cannot flip a comparison).
  const BenchLatency* local = PopulatedLatency(FindSeries(candidate, kServeGetLocalSeries));
  const BenchLatency* remote =
      PopulatedLatency(FindSeries(candidate, kServeGetRemoteClientSeries));
  const BenchLatency* server_memory =
      PopulatedLatency(FindSeries(candidate, kServeGetServerMemorySeries));
  const BenchLatency* disk =
      PopulatedLatency(FindSeries(candidate, kServeGetServerDiskSeries));
  const auto check_order = [&](const char* fast_name, const BenchLatency* fast,
                               const char* slow_name, const BenchLatency* slow) {
    if (fast == nullptr || slow == nullptr) {
      result.notes.push_back(std::string("ordering check ") + fast_name + " < " +
                             slow_name + " skipped (a level saw no traffic)");
      return;
    }
    if (fast->p50_us >= slow->p50_us) {
      fail(std::string(fast_name) + " p50 " + FormatUs(fast->p50_us) +
           " >= " + slow_name + " p50 " + FormatUs(slow->p50_us) +
           ": memory-hierarchy ordering violated");
    }
  };
  check_order(kServeGetLocalSeries, local, kServeGetRemoteClientSeries, remote);
  check_order(kServeGetLocalSeries, local, kServeGetServerDiskSeries, disk);
  check_order(kServeGetServerMemorySeries, server_memory, kServeGetServerDiskSeries, disk);

  // Cross-run p99 regression against the baseline.
  if (baseline == nullptr) {
    result.notes.push_back("no baseline document; serve p99 regression check skipped");
    return result;
  }
  bool compared = false;
  for (const BenchSeries& series : candidate.series) {
    if (!IsServeSeries(series)) {
      continue;
    }
    const BenchLatency* cand = PopulatedLatency(&series);
    const BenchLatency* base = PopulatedLatency(FindSeries(*baseline, series.name));
    if (cand == nullptr || base == nullptr) {
      continue;
    }
    compared = true;
    const double ceiling = base->p99_us * (1.0 + options.max_p99_regression);
    if (cand->p99_us > ceiling) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    ": p99 %.1f us vs baseline %.1f us (ceiling %.1f us, slack %.0f%%)",
                    cand->p99_us, base->p99_us, ceiling,
                    options.max_p99_regression * 100.0);
      fail(series.name + detail);
    }
  }
  if (!compared) {
    result.notes.push_back(
        "baseline shares no populated serve series; p99 regression check skipped");
  }
  return result;
}

}  // namespace coopfs
