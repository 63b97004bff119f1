// Timeline example: watch cache warm-up and steady-state behaviour over
// simulated time through an attached SnapshotSampler.
//
// Prints hour-by-hour average read latency and disk rate for the baseline
// and N-Chance over a two-day Sprite-like trace — the picture behind the
// paper's decision to discard the first 400k accesses as warm-up (§3).
//
// Usage: warmup_timeline [--events N] [--seed S]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/format.h"
#include "src/core/policy_factory.h"
#include "src/obs/snapshot_sampler.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace {

std::uint64_t FlagValue(int argc, char** argv, const char* name, std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coopfs;

  WorkloadConfig workload = SpriteWorkloadConfig(FlagValue(argc, argv, "--seed", 42));
  workload.num_events = FlagValue(argc, argv, "--events", 300'000);
  std::printf("Generating %llu events over %s...\n\n",
              static_cast<unsigned long long>(workload.num_events),
              FormatMicros(static_cast<double>(workload.duration)).c_str());
  const Trace trace = GenerateWorkload(workload);

  SnapshotSamplerOptions sampler_options;
  sampler_options.include_per_client = false;
  sampler_options.window_top_k = 0;
  SnapshotSampler sampler(sampler_options);
  SimulationConfig config;
  config.warmup_events = 0;  // We want to *see* the warm-up.
  config.snapshot_sampler = &sampler;
  config.sample_interval = 4LL * 3600 * 1'000'000;  // 4-hour buckets.

  Simulator simulator(config, &trace);
  auto baseline = MakePolicy(PolicyKind::kBaseline);
  auto nchance = MakePolicy(PolicyKind::kNChance);
  const Result<SimulationResult> base = simulator.Run(*baseline);
  const Result<SimulationResult> coop = simulator.Run(*nchance);
  if (!base.ok() || !coop.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }

  TableFormatter table({"Sim. time", "Base avg", "Base disk", "N-Chance avg", "N-Chance disk",
                        "Speedup"});
  // Both runs replay the same trace, so their windows line up one-to-one.
  const SnapshotRun& base_run = sampler.runs()[0];
  const SnapshotRun& coop_run = sampler.runs()[1];
  const auto avg_us = [](const StateSample& sample) {
    return sample.CountedTimeUs() / static_cast<double>(sample.CountedReads());
  };
  const auto disk_rate = [](const StateSample& sample) {
    constexpr auto kDisk = static_cast<std::size_t>(CacheLevel::kServerDisk);
    return static_cast<double>(sample.level_reads[kDisk]) /
           static_cast<double>(sample.CountedReads());
  };
  for (std::size_t i = 0; i < base_run.samples.size(); ++i) {
    const StateSample& b = base_run.samples[i];
    const StateSample& n = coop_run.samples[i];
    if (b.CountedReads() == 0) {
      continue;  // Quiet window (e.g. overnight): nothing to average.
    }
    // The run-end sample closes a partial window; label it with the
    // boundary that would have closed it, like every other row.
    const Micros interval = base_run.interval;
    const Micros end =
        b.trigger != SampleTrigger::kRunEnd
            ? b.time
            : base_run.start_time + ((b.time - base_run.start_time) / interval + 1) * interval;
    table.AddRow({FormatMicros(static_cast<double>(end)),
                  FormatDouble(avg_us(b), 0) + " us", FormatPercent(disk_rate(b)),
                  FormatDouble(avg_us(n), 0) + " us", FormatPercent(disk_rate(n)),
                  FormatDouble(avg_us(b) / avg_us(n), 2) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Note the cold start: both start disk-bound; the cooperative advantage only\n"
              "emerges once client caches fill — which is why the paper (and the fig*\n"
              "benches here) discard the warm-up portion of the trace before measuring.\n");
  return 0;
}
