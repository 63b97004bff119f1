// Serve-latency gate for the coopfs_serve bench series.
//
// The serving harness (src/serve) reports per-level get latency
// distributions as "coopfs.bench/v1" series with the additive per-series
// latency object. This gate turns the properties those distributions must
// have into a CI check:
//
//   * presence — a serve document must report local-memory gets
//     (serve_get_local with a populated latency object); a storm whose hot
//     set never hits the local cache is misconfigured, not measured;
//   * per-series sanity — within every serve series, quantiles are
//     monotonic: p50 <= p99 <= p999;
//   * modeled ordering — the paper's memory hierarchy (Figure 1) must show
//     through the tails: local p50 < remote-client p50, local p50 <
//     server-disk p50, and server-memory p50 < server-disk p50, whenever
//     both levels saw traffic (skipped levels are noted, not failed);
//   * cross-run regression — against a baseline document, each shared serve
//     series' p99 may grow by at most `max_p99_regression` (default 50%,
//     loose because wall-clock overhead rides on the modeled constants).
//
// tools/bench_compare wires this next to the replay-regression, scaling,
// and observability gates; docs/serving.md describes the methodology.
#ifndef COOPFS_SRC_OBS_SERVE_GATE_H_
#define COOPFS_SRC_OBS_SERVE_GATE_H_

#include <string>
#include <vector>

#include "src/obs/bench_report.h"

namespace coopfs {

// Series names the serving harness emits (ServeReport::ToBenchReport).
inline constexpr const char kServeThroughputSeries[] = "serve_throughput";
inline constexpr const char kServeGetTotalSeries[] = "serve_get_total";
inline constexpr const char kServeGetLocalSeries[] = "serve_get_local";
inline constexpr const char kServeGetRemoteClientSeries[] = "serve_get_remote_client";
inline constexpr const char kServeGetServerMemorySeries[] = "serve_get_server_memory";
inline constexpr const char kServeGetServerDiskSeries[] = "serve_get_server_disk";
inline constexpr const char kServePutTotalSeries[] = "serve_put_total";

struct ServeGateOptions {
  // Maximum allowed relative p99 growth per shared serve series against the
  // baseline document: p99(candidate) <= (1 + max_p99_regression) x
  // p99(baseline).
  double max_p99_regression = 0.5;
};

// Evaluates the serve-latency gate over `candidate`. Not applicable when the
// candidate has no serve series with latency data (e.g. a replay-only
// perf_harness document). `baseline` may be null (single-document mode:
// presence/sanity/ordering checks only).
GateResult EvaluateServeGate(const BenchReport& candidate,
                             const BenchReport* baseline = nullptr,
                             const ServeGateOptions& options = {});

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_SERVE_GATE_H_
