// replay_sprite: the pipeline every paper figure runs. A Sprite-like trace
// of 2,000,000 events is streamed through MakeWorkloadEventSource into one
// Simulator::Run per paper policy, and each result is exported with
// SimulationResultToJson. Single-threaded, no locks.
#include <algorithm>
#include <memory>

#include "coopbench/src/layers.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace coopbench {

namespace {

constexpr std::uint32_t kClients = 42;
constexpr int kSetupRepeats = 5;
constexpr int kPasses = 2;

// Per-call minimum over passes. Both passes replay the same events, so call
// k does the same work in each.
void KeepFaster(Samples& best, Samples& pass) {
  if (best.empty()) {
    best = std::move(pass);
    return;
  }
  for (std::size_t k = 0; k < best.size() && k < pass.size(); ++k) {
    best[k] = std::min(best[k], pass[k]);
  }
}

}  // namespace

void RunReplaySprite(const Options& options, Report& report,
                     std::vector<std::unique_ptr<SpanRecorder>>& recorders) {
  const std::uint64_t events = options.tiny ? 30'000 : 2'000'000;
  coopfs::WorkloadConfig workload = coopfs::SpriteWorkloadConfig(options.seed);
  workload.num_clients = kClients;
  workload.num_events = events;
  coopfs::SimulationConfig config;
  config.num_clients = kClients;
  config.warmup_events = coopfs::SpriteWarmupEvents(events);
  config.seed = options.seed;

  const std::unique_ptr<coopfs::EventSource> generator =
      coopfs::MakeWorkloadEventSource(workload);
  TimedEventSource source(*generator);

  if (options.trace) {
    recorders.push_back(std::make_unique<SpanRecorder>());
    LayerFigures layers;
    TracedReplay(config, source, /*all_layers=*/true, report, *recorders.back(), layers);
    MeasureHarness(options, report, layers);
    EmitLayers(layers, report);
    return;
  }

  EndToEnd e2e;
  // Set-up is the input and what each Run builds before its first event:
  // the whole event stream generated once (and discarded), and one
  // fast-path engine per policy.
  std::vector<double> setups;
  std::vector<coopfs::TraceEvent> chunk(kChunkEvents);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<coopfs::EventSource> fresh = coopfs::MakeWorkloadEventSource(workload);
    while (fresh->NextChunk(chunk) > 0) {
    }
    for (const PaperPolicy& paper : PaperPolicies()) {
      const std::unique_ptr<coopfs::Policy> policy = coopfs::MakePolicy(paper.kind);
      const coopfs::CacheEngine engine(config, kClients, *policy);
    }
    setups.push_back(SecondsSince(start));
  }
  e2e.setup_s = Median(setups);

  // Two passes of the same work: the four Runs, then the benchmark's own
  // timed drive of N-Chance on the fast path (the per-call latencies).
  // Interference from outside the benchmark only ever adds time, so each
  // piece of a Run, and each engine call, counts at its faster pass.
  std::vector<PipelineResult> passes;
  coopfs::SimulationResult nchance;
  Samples get_ns;
  Samples put_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    passes.push_back(RunPipeline(config, source, report, nullptr));
    report.AddAttempted(passes.back().events);
    if (pass == 0) {
      nchance = passes.back().results[kNChanceIndex];
    }
    DriveResult drive = DriveFastPath(config, kClients, coopfs::PolicyKind::kNChance, source,
                                      nullptr, 0, nullptr);
    report.AddAttempted(drive.events);
    CheckDriverCounts(drive, nchance, "nchance", report);
    KeepFaster(get_ns, drive.get_ns);
    KeepFaster(put_ns, drive.admit_ns);
  }
  e2e.get_windows = SplitWindows(get_ns);
  e2e.put_windows = SplitWindows(put_ns);
  double busy_s = passes[0].export_s;
  for (const PipelineResult& pipe : passes) {
    busy_s = std::min(busy_s, pipe.export_s);
  }
  for (std::size_t i = 0; i < PaperPolicies().size(); ++i) {
    const std::vector<double>& first = passes[0].pieces_s[i];
    for (std::size_t piece = 0; piece < first.size(); ++piece) {
      double fastest = first[piece];
      for (const PipelineResult& pipe : passes) {
        if (pipe.pieces_s[i].size() == first.size()) {
          fastest = std::min(fastest, pipe.pieces_s[i][piece]);
        }
      }
      busy_s += fastest;
    }
  }
  e2e.ops_per_s = static_cast<double>(passes[0].events) / busy_s;
  e2e.peak_rss_mib = PeakRssMiB();
  e2e.modeled_read_us = nchance.AverageReadTime();
  EmitEndToEnd(e2e, report);
}

}  // namespace coopbench
