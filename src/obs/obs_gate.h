// Observability-overhead gate for the replay_bounded_metrics bench series.
//
// Bounded-memory telemetry (SimulationConfig::metrics_detail == kBounded,
// src/obs/stream_stats.h) only earns its place if it is cheap enough to
// leave on: the sketches sit directly on the simulator's read path, so a
// slow OnRead taxes every replayed event. This gate turns "cheap enough"
// into a CI check over a "coopfs.bench/v1" document:
//
//   * overhead ceiling — the bounded-metrics replay must retain at least
//     `1 - max_overhead` of the untraced replay throughput:
//     ops(replay_bounded_metrics) >= (1 - max_overhead) x ops(baseline).
//     With the default ceiling of 0.15 that is "within 15% of untraced".
//
// The baseline is the untraced serial N-Chance replay
// (replay_serial_nchance), the same workload the bounded series replays
// with sketches attached, so the ratio isolates the telemetry cost.
// tools/bench_compare wires this next to the replay-regression and scaling
// gates; docs/performance.md describes the methodology.
#ifndef COOPFS_SRC_OBS_OBS_GATE_H_
#define COOPFS_SRC_OBS_OBS_GATE_H_

#include <string>
#include <vector>

#include "src/obs/bench_report.h"

namespace coopfs {

// Series names the gate compares. perf_harness emits both.
inline constexpr const char kObsGateBoundedSeries[] = "replay_bounded_metrics";
inline constexpr const char kObsGateBaselineSeries[] = "replay_serial_nchance";

struct ObsGateOptions {
  // Maximum fraction of untraced-replay throughput the bounded-metrics
  // replay may give up: ops(bounded) >= (1 - max_overhead) x ops(baseline).
  double max_overhead = 0.15;
};

// Evaluates the observability-overhead gate over `report`'s replay series.
// Not applicable when the document lacks the bounded series or its
// untraced baseline.
GateResult EvaluateObsGate(const BenchReport& report, const ObsGateOptions& options = {});

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_OBS_GATE_H_
