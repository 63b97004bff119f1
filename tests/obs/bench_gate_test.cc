// Selftests for the scaling-efficiency gate (src/obs/scaling_gate.h) and the
// bench_compare CLI that wires it into CI.
//
// The in-process tests pin the gate's verdicts and diagnostic wording across
// the host-aware cases: healthy curve, 2t/1t floor miss, monotonicity
// collapse, 1-core degraded floor, and documents from before host_threads
// existed. The subprocess tests run the actual bench_compare binary against
// synthetic coopfs.bench/v1 documents and assert the exit-code contract
// (0 = pass, 1 = gate failed, 2 = load error) plus the stderr messages the
// CI log greps for.
#include "src/obs/scaling_gate.h"

#include "src/obs/obs_gate.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/bench_report.h"

#ifdef __unix__
#include <sys/wait.h>
#endif

namespace coopfs {
namespace {

BenchSeries Series(const std::string& name, double ops_per_sec) {
  BenchSeries series;
  series.name = name;
  series.ops_per_sec = ops_per_sec;
  series.wall_seconds = 1.0;
  series.items = 100;
  return series;
}

// host 4, 1t=100, 2t=180 (1.8x), 4t=320, 8t=310: passes floor and
// monotonicity with the default options.
BenchReport HealthyReport() {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series("parallel_sweep_1t", 100.0));
  report.series.push_back(Series("parallel_sweep_2t", 180.0));
  report.series.push_back(Series("parallel_sweep_4t", 320.0));
  report.series.push_back(Series("parallel_sweep_8t", 310.0));
  return report;
}

bool AnyFailureContains(const GateResult& result, const std::string& needle) {
  for (const std::string& failure : result.failures) {
    if (failure.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ScalingGateTest, NotApplicableWithoutSweepSeries) {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series("replay_serial_nchance", 100.0));
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_FALSE(result.applicable);
  EXPECT_TRUE(result.passed);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ScalingGateTest, NotApplicableWithOnlySerialSweep) {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series("parallel_sweep_1t", 100.0));
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_FALSE(result.applicable);
  EXPECT_TRUE(result.passed);
}

TEST(ScalingGateTest, PassesHealthyCurve) {
  const GateResult result = EvaluateScalingGate(HealthyReport());
  EXPECT_TRUE(result.applicable);
  EXPECT_TRUE(result.passed);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ScalingGateTest, FailsWhenTwoThreadSpeedupMissesFloor) {
  BenchReport report = HealthyReport();
  report.series[1].ops_per_sec = 120.0;  // 1.2x < 0.85 x 2 = 1.7x.
  report.series[2].ops_per_sec = 130.0;  // Keep the curve monotonic so the
  report.series[3].ops_per_sec = 135.0;  // floor is the only violation.
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_TRUE(AnyFailureContains(result, "parallel_sweep_2t/1t"));
  EXPECT_TRUE(AnyFailureContains(result, "below the 1.70x floor"));
}

TEST(ScalingGateTest, FailsWhenWiderWidthCollapses) {
  BenchReport report = HealthyReport();
  report.series[3].ops_per_sec = 150.0;  // 8t < 0.90 x best-so-far (320).
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  EXPECT_TRUE(AnyFailureContains(result, "parallel_sweep_8t"));
  EXPECT_TRUE(AnyFailureContains(result, "non-monotonic scaling"));
}

TEST(ScalingGateTest, FailsWithoutHostThreadsWhenApplicable) {
  BenchReport report = HealthyReport();
  report.host_threads = 0;
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  EXPECT_TRUE(AnyFailureContains(result, "host_threads"));
}

TEST(ScalingGateTest, FailsWhenTwoThreadSeriesMissing) {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series("parallel_sweep_1t", 100.0));
  report.series.push_back(Series("parallel_sweep_4t", 320.0));
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  EXPECT_TRUE(AnyFailureContains(result, "parallel_sweep_2t"));
}

TEST(ScalingGateTest, FailsOnZeroSerialThroughput) {
  BenchReport report = HealthyReport();
  report.series[0].ops_per_sec = 0.0;
  const GateResult result = EvaluateScalingGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
}

// On a 1-core host the attainable speedup is 1, so the floor degrades to
// 0.85x serial: near-parity passes (with an explanatory note), a lock convoy
// that halves throughput still fails.
TEST(ScalingGateTest, OneCoreHostUsesDegradedFloor) {
  BenchReport report = HealthyReport();
  report.host_threads = 1;
  report.series[1].ops_per_sec = 95.0;
  report.series[2].ops_per_sec = 95.0;
  report.series[3].ops_per_sec = 94.0;
  const GateResult near_parity = EvaluateScalingGate(report);
  EXPECT_TRUE(near_parity.applicable);
  EXPECT_TRUE(near_parity.passed)
      << (near_parity.failures.empty() ? std::string() : near_parity.failures[0]);
  EXPECT_FALSE(near_parity.notes.empty());

  report.series[1].ops_per_sec = 50.0;
  const GateResult convoy = EvaluateScalingGate(report);
  EXPECT_FALSE(convoy.passed);
  EXPECT_TRUE(AnyFailureContains(convoy, "parallel_sweep_2t/1t"));
}

TEST(ScalingGateTest, OptionsOverrideFloorAndTolerance) {
  BenchReport report = HealthyReport();
  report.series[1].ops_per_sec = 120.0;  // Fails the default 1.7x floor...
  report.series[2].ops_per_sec = 130.0;
  report.series[3].ops_per_sec = 135.0;
  ScalingGateOptions lax;
  lax.efficiency_floor = 0.55;  // ...but passes a 1.1x floor.
  EXPECT_TRUE(EvaluateScalingGate(report, lax).passed);

  ScalingGateOptions strict;
  strict.monotonicity_tolerance = 1.0;
  BenchReport dip = HealthyReport();
  dip.series[2].ops_per_sec = 170.0;  // 4t within 0.90 of the 2t's 180, not 1.0.
  EXPECT_TRUE(EvaluateScalingGate(dip).passed);
  EXPECT_FALSE(EvaluateScalingGate(dip, strict).passed);
}

// Widths beyond host_threads re-measure the widest real configuration, so
// they get the looser oversubscribed tolerance — a noise-level dip at 8t on
// a 4-thread host passes, a collapse still fails.
TEST(ScalingGateTest, OversubscribedWidthsGetLooserTolerance) {
  BenchReport report = HealthyReport();
  report.series[3].ops_per_sec = 260.0;  // 0.81 of best: < 0.90, >= 0.75.
  EXPECT_TRUE(EvaluateScalingGate(report).passed);

  ScalingGateOptions strict;
  strict.oversubscribed_tolerance = 0.90;
  EXPECT_FALSE(EvaluateScalingGate(report, strict).passed);
}

// ---------------------------------------------------------------------------
// Observability-overhead gate (src/obs/obs_gate.h).
// ---------------------------------------------------------------------------

BenchReport ObsReport(double baseline_ops, double bounded_ops) {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series(kObsGateBaselineSeries, baseline_ops));
  report.series.push_back(Series(kObsGateBoundedSeries, bounded_ops));
  return report;
}

TEST(ObsGateTest, NotApplicableWithoutBoundedSeries) {
  BenchReport report;
  report.host_threads = 4;
  report.series.push_back(Series("replay_serial_nchance", 100.0));
  const GateResult result = EvaluateObsGate(report);
  EXPECT_FALSE(result.applicable);
  EXPECT_TRUE(result.passed);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ObsGateTest, NotApplicableWithoutBaselineSeries) {
  BenchReport report;
  report.series.push_back(Series(kObsGateBoundedSeries, 90.0));
  const GateResult result = EvaluateObsGate(report);
  EXPECT_FALSE(result.applicable);
  EXPECT_TRUE(result.passed);
}

TEST(ObsGateTest, PassesWithinOverheadCeiling) {
  // 90/100 = 0.90x >= the default 0.85x floor.
  const GateResult result = EvaluateObsGate(ObsReport(100.0, 90.0));
  EXPECT_TRUE(result.applicable);
  EXPECT_TRUE(result.passed) << (result.failures.empty() ? "" : result.failures[0]);
}

TEST(ObsGateTest, FailsBeyondOverheadCeiling) {
  const GateResult result = EvaluateObsGate(ObsReport(100.0, 70.0));
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find(kObsGateBoundedSeries), std::string::npos);
  EXPECT_NE(result.failures[0].find("0.85x floor"), std::string::npos);
}

TEST(ObsGateTest, FailsOnZeroBaselineThroughput) {
  const GateResult result = EvaluateObsGate(ObsReport(0.0, 90.0));
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
}

TEST(ObsGateTest, OptionsOverrideCeiling) {
  ObsGateOptions lax;
  lax.max_overhead = 0.40;
  EXPECT_TRUE(EvaluateObsGate(ObsReport(100.0, 70.0), lax).passed);

  ObsGateOptions strict;
  strict.max_overhead = 0.05;
  EXPECT_FALSE(EvaluateObsGate(ObsReport(100.0, 90.0), strict).passed);
}

// ---------------------------------------------------------------------------
// bench_compare CLI: exit codes and the messages CI greps for.
// ---------------------------------------------------------------------------

#if defined(COOPFS_BENCH_COMPARE_PATH) && defined(__unix__)

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined.
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

std::string WriteDoc(const std::string& filename, const BenchReport& report) {
  const std::string path = ::testing::TempDir() + filename;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << report.ToJson();
  EXPECT_TRUE(out.good());
  return path;
}

class BenchCompareCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ifstream binary(COOPFS_BENCH_COMPARE_PATH);
    if (!binary.good()) {
      GTEST_SKIP() << "bench_compare not built at " << COOPFS_BENCH_COMPARE_PATH;
    }
  }

  std::string Tool() { return std::string(COOPFS_BENCH_COMPARE_PATH); }
};

TEST_F(BenchCompareCliTest, HealthyDocumentExitsZero) {
  const std::string doc = WriteDoc("bench_gate_pass.json", HealthyReport());
  const CommandResult result = RunCommand(Tool() + " " + doc);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("scaling gate passed"), std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, FloorFailureExitsOneWithScalingMessage) {
  BenchReport report = HealthyReport();
  report.series[1].ops_per_sec = 120.0;
  report.series[2].ops_per_sec = 130.0;
  report.series[3].ops_per_sec = 135.0;
  const std::string doc = WriteDoc("bench_gate_floor.json", report);
  const CommandResult result = RunCommand(Tool() + " " + doc);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench_compare: SCALING parallel_sweep_2t/1t"),
            std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, MonotonicityFailureExitsOneWithScalingMessage) {
  BenchReport report = HealthyReport();
  report.series[3].ops_per_sec = 150.0;
  const std::string doc = WriteDoc("bench_gate_mono.json", report);
  const CommandResult result = RunCommand(Tool() + " " + doc);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("non-monotonic scaling"), std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, ScalingFloorFlagOverridesDefault) {
  BenchReport report = HealthyReport();
  report.series[1].ops_per_sec = 120.0;
  report.series[2].ops_per_sec = 130.0;
  report.series[3].ops_per_sec = 135.0;
  const std::string doc = WriteDoc("bench_gate_floor_flag.json", report);
  const CommandResult result =
      RunCommand(Tool() + " " + doc + " --scaling-floor 0.55");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST_F(BenchCompareCliTest, NoScalingGateFlagSkipsTheCheck) {
  BenchReport report = HealthyReport();
  report.series[1].ops_per_sec = 120.0;
  report.series[2].ops_per_sec = 130.0;
  report.series[3].ops_per_sec = 135.0;
  const std::string doc = WriteDoc("bench_gate_skip.json", report);
  const CommandResult result =
      RunCommand(Tool() + " " + doc + " " + doc + " --no-scaling-gate");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST_F(BenchCompareCliTest, ObsOverheadFailureExitsOneWithObsMessage) {
  const std::string doc = WriteDoc("bench_gate_obs_fail.json", ObsReport(100.0, 70.0));
  const CommandResult result = RunCommand(Tool() + " " + doc);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(std::string("bench_compare: OBS ") + kObsGateBoundedSeries),
            std::string::npos)
      << result.output;
}

TEST_F(BenchCompareCliTest, ObsOverheadWithinCeilingExitsZero) {
  const std::string doc = WriteDoc("bench_gate_obs_pass.json", ObsReport(100.0, 90.0));
  const CommandResult result = RunCommand(Tool() + " " + doc);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("obs gate passed"), std::string::npos) << result.output;
}

TEST_F(BenchCompareCliTest, ObsOverheadFlagOverridesCeiling) {
  const std::string doc = WriteDoc("bench_gate_obs_flag.json", ObsReport(100.0, 70.0));
  const CommandResult lax = RunCommand(Tool() + " " + doc + " --obs-overhead 0.40");
  EXPECT_EQ(lax.exit_code, 0) << lax.output;
  const CommandResult strict =
      RunCommand(Tool() + " " + WriteDoc("bench_gate_obs_strict.json", ObsReport(100.0, 90.0)) +
                 " --obs-overhead 0.05");
  EXPECT_EQ(strict.exit_code, 1) << strict.output;
}

TEST_F(BenchCompareCliTest, NoObsGateFlagSkipsTheCheck) {
  const std::string doc = WriteDoc("bench_gate_obs_skip.json", ObsReport(100.0, 70.0));
  const CommandResult result = RunCommand(Tool() + " " + doc + " --no-obs-gate");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST_F(BenchCompareCliTest, CorruptDocumentExitsTwo) {
  const std::string path = ::testing::TempDir() + "bench_gate_corrupt.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{ not a bench document";
  out.close();
  const CommandResult result = RunCommand(Tool() + " " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST_F(BenchCompareCliTest, ReplayRegressionStillExitsOne) {
  BenchReport baseline;
  baseline.host_threads = 4;
  baseline.series.push_back(Series("replay_serial_nchance", 100.0));
  BenchReport regressed = baseline;
  regressed.series[0].ops_per_sec = 50.0;
  const std::string base_doc = WriteDoc("bench_gate_replay_base.json", baseline);
  const std::string cand_doc = WriteDoc("bench_gate_replay_cand.json", regressed);
  const CommandResult result = RunCommand(Tool() + " " + base_doc + " " + cand_doc);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("bench_compare: REGRESSION"), std::string::npos)
      << result.output;
}

#endif  // COOPFS_BENCH_COMPARE_PATH && __unix__

}  // namespace
}  // namespace coopfs
