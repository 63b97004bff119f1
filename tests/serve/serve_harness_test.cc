// Functional tests for the serving harness (src/serve/serve_harness.h):
// op-count conservation, per-level accounting, bench-document round-trip,
// both key mixes, and option validation. The randomized multi-thread
// invariant storms live in serve_stress_test.cc.
#include "src/serve/serve_harness.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/serve_gate.h"

namespace coopfs {
namespace {

ServeOptions SmallOptions() {
  ServeOptions options;
  options.client_threads = 2;
  options.num_clients = 8;
  options.ops = 4'000;
  options.warmup_ops = 400;
  options.num_files = 200;
  options.config.client_cache_blocks = 64;
  options.config.server_cache_blocks = 256;
  return options;
}

TEST(ServeHarnessTest, CountsConserveAndLevelsSum) {
  const ServeOptions options = SmallOptions();
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->ops, options.ops);
  EXPECT_EQ(report->get_ops + report->put_ops, report->ops);
  std::uint64_t level_sum = 0;
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    level_sum += report->get_level_counts[level];
    EXPECT_EQ(report->get_level_counts[level], report->get_levels[level].count);
  }
  EXPECT_EQ(level_sum, report->get_ops);
  EXPECT_TRUE(report->consistent);
  EXPECT_GT(report->ops_per_sec, 0.0);
  EXPECT_EQ(report->client_threads, 2u);
  EXPECT_EQ(report->shards, 2u);  // Derived: pow2 >= threads.
}

TEST(ServeHarnessTest, ThroughputCountsWarmupOverTheStormWallTime) {
  const ServeOptions options = SmallOptions();
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The storm's wall time spans warm-up too, so the rate counts every
  // issued op.
  EXPECT_EQ(report->warmup_ops, options.warmup_ops);
  const double issued = static_cast<double>(report->ops + report->warmup_ops);
  EXPECT_NEAR(report->ops_per_sec * report->wall_seconds, issued, 1e-6 * issued);

  const BenchReport bench = report->ToBenchReport();
  ASSERT_FALSE(bench.series.empty());
  EXPECT_EQ(bench.series.front().name, kServeThroughputSeries);
  EXPECT_DOUBLE_EQ(bench.series.front().ops_per_sec, report->ops_per_sec);
  EXPECT_EQ(bench.series.front().items, report->ops + report->warmup_ops);

  // One lock line per shard; every engine call (plus the storm's one
  // SetAccounting pass over the shards) took exactly one shard lock.
  ASSERT_EQ(report->shard_locks.size(), report->shards);
  std::uint64_t acquisitions = 0;
  for (const ShardLockStats& lock : report->shard_locks) {
    acquisitions += lock.acquisitions;
  }
  EXPECT_EQ(acquisitions, report->ops + report->warmup_ops + report->shards);
  const std::string text = report->ToString();
  EXPECT_NE(text.find("lock shard 0"), std::string::npos) << text;
  EXPECT_NE(text.find("lock shard 1"), std::string::npos) << text;
}

TEST(ServeHarnessTest, SeriesRatesSumToTheStormRate) {
  const ServeOptions options = SmallOptions();
  ASSERT_GT(options.warmup_ops, 0u);  // The warm-up share is what must not leak.
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const BenchReport bench = report->ToBenchReport();
  const auto rate = [&bench](const char* name) {
    for (const BenchSeries& series : bench.series) {
      if (series.name == name) {
        return series.ops_per_sec;
      }
    }
    ADD_FAILURE() << "no series " << name;
    return 0.0;
  };
  const double throughput = rate(kServeThroughputSeries);
  const double gets = rate(kServeGetTotalSeries);
  EXPECT_GT(throughput, 0.0);
  EXPECT_NEAR(gets + rate(kServePutTotalSeries), throughput, 1e-9 * throughput);
  EXPECT_NEAR(rate(kServeGetLocalSeries) + rate(kServeGetRemoteClientSeries) +
                  rate(kServeGetServerMemorySeries) + rate(kServeGetServerDiskSeries),
              gets, 1e-9 * throughput);
}

TEST(ServeHarnessTest, ModeledLatenciesDominateEachLevel) {
  ServeOptions options = SmallOptions();
  options.ops = 8'000;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Each level's median must sit at or just above the modeled constant for
  // that level (wall-clock engine overhead only ever adds).
  const SimulationConfig& config = options.config;
  const auto level_stats = [&](CacheLevel level) {
    return report->get_levels[static_cast<std::size_t>(level)];
  };
  if (level_stats(CacheLevel::kLocalMemory).count > 0) {
    EXPECT_GE(level_stats(CacheLevel::kLocalMemory).p50_us,
              static_cast<double>(config.network.memory_copy));
    EXPECT_LT(level_stats(CacheLevel::kLocalMemory).p50_us,
              static_cast<double>(config.disk.access_time));
  }
  if (level_stats(CacheLevel::kServerDisk).count > 0) {
    EXPECT_GE(level_stats(CacheLevel::kServerDisk).p50_us,
              static_cast<double>(config.disk.access_time));
  }
  // Puts are charged the write-through constant.
  if (report->puts.count > 0) {
    EXPECT_GE(report->puts.p50_us, static_cast<double>(config.network.memory_copy +
                                                       2 * config.network.per_hop +
                                                       config.network.block_transfer));
  }
}

TEST(ServeHarnessTest, BenchDocumentRoundTripsAndPassesServeGate) {
  const ServeOptions options = SmallOptions();
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const BenchReport bench = report->ToBenchReport();
  EXPECT_EQ(bench.suite, "coopfs_serve");
  const std::string json = bench.ToJson();
  ASSERT_TRUE(ValidateBenchDocument(json).ok());

  Result<BenchReport> parsed = ParseBenchDocument(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->series.size(), bench.series.size());
  const BenchSeries* total = nullptr;
  for (const BenchSeries& series : parsed->series) {
    if (series.name == kServeThroughputSeries) {
      total = &series;
    }
  }
  ASSERT_NE(total, nullptr);
  ASSERT_TRUE(total->latency.has_value());
  EXPECT_EQ(total->latency->count, report->ops);
  EXPECT_DOUBLE_EQ(total->latency->p999_us, report->total.p999_us);

  const GateResult gate = EvaluateServeGate(*parsed);
  EXPECT_TRUE(gate.applicable);
  EXPECT_TRUE(gate.passed) << (gate.failures.empty() ? "" : gate.failures.front());
}

TEST(ServeHarnessTest, TraceMixRunsAndConserves) {
  ServeOptions options = SmallOptions();
  options.mix = ServeKeyMix::kTrace;
  options.trace_events = 20'000;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mix, "trace");
  EXPECT_EQ(report->ops, options.ops);
  EXPECT_TRUE(report->consistent);
}

TEST(ServeHarnessTest, EightThreadStormCompletes) {
  ServeOptions options = SmallOptions();
  options.client_threads = 8;
  options.num_clients = 32;
  options.ops = 16'000;
  options.warmup_ops = 1'600;
  Result<ServeReport> report = RunServe(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->client_threads, 8u);
  EXPECT_EQ(report->ops, options.ops);
  EXPECT_TRUE(report->consistent);
}

TEST(ServeHarnessTest, RejectsUnrunnableOptions) {
  {
    ServeOptions options = SmallOptions();
    options.client_threads = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.num_clients = 1;  // Fewer clients than threads.
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.ops = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.get_fraction = 1.5;
    EXPECT_FALSE(RunServe(options).ok());
  }
  {
    ServeOptions options = SmallOptions();
    options.num_files = 0;
    EXPECT_FALSE(RunServe(options).ok());
  }
}

}  // namespace
}  // namespace coopfs
