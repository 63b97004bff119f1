// Scaling-efficiency gate for the parallel_sweep_<T>t bench series.
//
// The paper's figures are produced by sweeping many simulator configurations
// (sweep.h), and the ROADMAP's larger scenario matrices are only affordable
// if adding sweep threads adds throughput. This gate turns that requirement
// into a CI check over a "coopfs.bench/v1" document:
//
//   * 2t/1t floor — the 2-thread sweep must reach at least
//     `efficiency_floor x min(2, host_threads)` times the 1-thread
//     throughput. On a multi-core host with the default floor of 0.85 that
//     is the 1.7x requirement; on a 1-core host (where 2 threads cannot
//     physically beat 1) the attainable speedup is 1 and the floor degrades
//     to "within 15% of serial", catching regressions like a reintroduced
//     lock convoy without demanding impossible speedups.
//   * monotonicity — throughput must not collapse as threads are added:
//     each wider parallel_sweep series must stay within
//     `monotonicity_tolerance` of the best narrower one. Widths beyond
//     host_threads cannot go faster, but they must not fall off a cliff.
//
// The gate is host-aware through the document's `host_threads` field, so
// the same committed baseline passes on the 1-core box that produced it and
// the multi-core CI runner re-measuring it. tools/bench_compare wires this
// next to the replay-regression gate; docs/performance.md describes the
// methodology.
#ifndef COOPFS_SRC_OBS_SCALING_GATE_H_
#define COOPFS_SRC_OBS_SCALING_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/bench_report.h"

namespace coopfs {

struct ScalingGateOptions {
  // Fraction of the attainable speedup the 2-thread sweep must reach:
  // ops(2t) >= floor x min(2, host_threads) x ops(1t).
  double efficiency_floor = 0.85;

  // Widening the sweep may not lose more than this fraction of the best
  // narrower width's throughput: ops(T) >= tolerance x max(ops(T') : T'<T).
  double monotonicity_tolerance = 0.90;

  // Tolerance applied instead of `monotonicity_tolerance` to widths beyond
  // the document's host_threads. The sweep clamps workers to the core
  // count, so those series re-measure the widest real configuration — pure
  // run-to-run noise, not scaling — and need more headroom. Still tight
  // enough to catch a genuine collapse (the pre-arena lock convoy measured
  // 0.69x).
  double oversubscribed_tolerance = 0.75;
};

// Evaluates the scaling gate over `report`'s parallel_sweep_<T>t series.
// Not applicable when the document has no parallel_sweep_1t series or no
// wider companion. A document without `host_threads` (0) fails the gate
// when it is applicable: the check cannot be interpreted without knowing
// the host.
GateResult EvaluateScalingGate(const BenchReport& report,
                               const ScalingGateOptions& options = {});

}  // namespace coopfs

#endif  // COOPFS_SRC_OBS_SCALING_GATE_H_
