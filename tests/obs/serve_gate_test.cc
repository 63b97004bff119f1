// Unit tests for the serve-latency gate (src/obs/serve_gate.h): when it
// applies, the presence/monotonicity/ordering checks in single-document
// mode, and the p99 regression ceiling against a baseline. Also pins the
// additive BenchLatency round-trip through the coopfs.bench/v1 document.
#include "src/obs/serve_gate.h"

#include <gtest/gtest.h>

#include <string>

namespace coopfs {
namespace {

BenchLatency MakeLatency(std::uint64_t count, double p50, double p99, double p999) {
  BenchLatency latency;
  latency.count = count;
  latency.p50_us = p50;
  latency.p90_us = (p50 + p99) / 2;
  latency.p95_us = (p50 + p99) / 2;
  latency.p99_us = p99;
  latency.p999_us = p999;
  latency.mean_us = p50;
  latency.min_us = p50;
  latency.max_us = p999;
  return latency;
}

BenchSeries MakeSeries(const std::string& name, const BenchLatency& latency) {
  BenchSeries series;
  series.name = name;
  series.unit = "ops/s";
  series.ops_per_sec = 1'000'000.0;
  series.wall_seconds = 0.1;
  series.items = latency.count;
  series.latency = latency;
  return series;
}

// A well-formed serve document: level medians ordered per the paper's memory
// hierarchy, quantiles monotonic within every series.
BenchReport GoodServeReport() {
  BenchReport report;
  report.suite = "coopfs_serve";
  report.series.push_back(
      MakeSeries(kServeThroughputSeries, MakeLatency(10'000, 300, 16'000, 16'200)));
  report.series.push_back(
      MakeSeries(kServeGetLocalSeries, MakeLatency(6'000, 250, 260, 280)));
  report.series.push_back(
      MakeSeries(kServeGetRemoteClientSeries, MakeLatency(1'500, 1'250, 1'300, 1'320)));
  report.series.push_back(
      MakeSeries(kServeGetServerMemorySeries, MakeLatency(1'000, 1'050, 1'100, 1'120)));
  report.series.push_back(
      MakeSeries(kServeGetServerDiskSeries, MakeLatency(1'500, 15'850, 15'900, 15'950)));
  return report;
}

TEST(ServeGateTest, NotApplicableWithoutServeSeries) {
  BenchReport report;
  report.suite = "perf_harness";
  BenchSeries replay;
  replay.name = "replay_nchance";
  replay.ops_per_sec = 5e6;
  report.series.push_back(replay);

  const GateResult result = EvaluateServeGate(report);
  EXPECT_FALSE(result.applicable);
  EXPECT_TRUE(result.passed);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ServeGateTest, WellFormedDocumentPasses) {
  const GateResult result = EvaluateServeGate(GoodServeReport());
  EXPECT_TRUE(result.applicable);
  EXPECT_TRUE(result.passed) << (result.failures.empty() ? "" : result.failures.front());
}

TEST(ServeGateTest, MissingLocalSeriesFails) {
  BenchReport report = GoodServeReport();
  // Drop serve_get_local: a storm that never hits the local cache is a
  // misconfigured measurement.
  report.series.erase(report.series.begin() + 1);
  const GateResult result = EvaluateServeGate(report);
  EXPECT_TRUE(result.applicable);
  EXPECT_FALSE(result.passed);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find(kServeGetLocalSeries), std::string::npos);
}

TEST(ServeGateTest, NonMonotonicQuantilesFail) {
  BenchReport report = GoodServeReport();
  report.series[1].latency->p999_us = 100.0;  // p999 < p99 on serve_get_local.
  const GateResult result = EvaluateServeGate(report);
  EXPECT_FALSE(result.passed);
  bool found = false;
  for (const std::string& failure : result.failures) {
    found = found || failure.find("p999") != std::string::npos;
  }
  EXPECT_TRUE(found) << "expected a monotonicity failure naming p999";
}

TEST(ServeGateTest, InvertedHierarchyOrderingFails) {
  BenchReport report = GoodServeReport();
  // Local median slower than the disk median: the hierarchy is inverted.
  report.series[1].latency = MakeLatency(6'000, 20'000, 20'100, 20'200);
  const GateResult result = EvaluateServeGate(report);
  EXPECT_FALSE(result.passed);
  bool found = false;
  for (const std::string& failure : result.failures) {
    found = found || failure.find(kServeGetLocalSeries) != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(ServeGateTest, UntraffickedLevelsAreNotedNotFailed) {
  BenchReport report = GoodServeReport();
  report.series[2].latency->count = 0;  // No remote-client traffic this run.
  const GateResult result = EvaluateServeGate(report);
  EXPECT_TRUE(result.passed) << (result.failures.empty() ? "" : result.failures.front());
  EXPECT_FALSE(result.notes.empty());
}

TEST(ServeGateTest, BaselineP99RegressionFailsBeyondSlack) {
  const BenchReport baseline = GoodServeReport();
  BenchReport candidate = GoodServeReport();
  candidate.series[1].latency->p99_us = 260.0 * 2.0;  // 2x the baseline p99.
  candidate.series[1].latency->p999_us = 260.0 * 2.0;

  const GateResult result = EvaluateServeGate(candidate, &baseline);
  EXPECT_FALSE(result.passed);
  bool found = false;
  for (const std::string& failure : result.failures) {
    found = found || (failure.find(kServeGetLocalSeries) != std::string::npos &&
                      failure.find("p99") != std::string::npos);
  }
  EXPECT_TRUE(found);

  // A looser ceiling admits the same candidate.
  ServeGateOptions loose;
  loose.max_p99_regression = 1.5;
  const GateResult relaxed = EvaluateServeGate(candidate, &baseline, loose);
  EXPECT_TRUE(relaxed.passed)
      << (relaxed.failures.empty() ? "" : relaxed.failures.front());
}

TEST(ServeGateTest, BaselineWithinSlackPasses) {
  const BenchReport baseline = GoodServeReport();
  BenchReport candidate = GoodServeReport();
  candidate.series[1].latency->p99_us = 260.0 * 1.2;  // +20% < default 50% slack.
  candidate.series[1].latency->p999_us = 260.0 * 1.3;

  const GateResult result = EvaluateServeGate(candidate, &baseline);
  EXPECT_TRUE(result.passed) << (result.failures.empty() ? "" : result.failures.front());
}

TEST(ServeGateTest, BenchLatencyRoundTripsThroughDocument) {
  const BenchReport report = GoodServeReport();
  const std::string json = report.ToJson();
  ASSERT_TRUE(ValidateBenchDocument(json).ok());

  Result<BenchReport> parsed = ParseBenchDocument(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->series.size(), report.series.size());
  for (std::size_t i = 0; i < report.series.size(); ++i) {
    ASSERT_TRUE(parsed->series[i].latency.has_value()) << report.series[i].name;
    EXPECT_EQ(parsed->series[i].latency->count, report.series[i].latency->count);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->p50_us,
                     report.series[i].latency->p50_us);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->p999_us,
                     report.series[i].latency->p999_us);
    EXPECT_DOUBLE_EQ(parsed->series[i].latency->max_us,
                     report.series[i].latency->max_us);
  }

  // The latency object stays additive: a throughput-only series round-trips
  // with the optional empty.
  BenchReport plain;
  BenchSeries series;
  series.name = "replay_baseline";
  series.ops_per_sec = 1e6;
  plain.series.push_back(series);
  Result<BenchReport> plain_parsed = ParseBenchDocument(plain.ToJson());
  ASSERT_TRUE(plain_parsed.ok());
  EXPECT_FALSE(plain_parsed->series[0].latency.has_value());
}

// A latency object with a mistyped field is a validation error, matching the
// additive-extension contract (absent fine, present-but-wrong rejected).
TEST(ServeGateTest, MistypedLatencyFieldFailsValidation) {
  const BenchReport report = GoodServeReport();
  std::string json = report.ToJson();
  const std::string needle = "\"p999_us\": 280";
  const std::size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"p999_us\": \"fast\"");
  EXPECT_FALSE(ValidateBenchDocument(json).ok());
}

}  // namespace
}  // namespace coopfs
