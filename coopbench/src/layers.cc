#include "coopbench/src/layers.h"

#include <algorithm>
#include <iostream>
#include <string>

#include "src/obs/metrics_exporter.h"
#include "src/sim/simulator.h"
#include "src/sim/validation.h"

namespace coopbench {

namespace {

using coopfs::kNumCacheLevels;

// One event in this many gets a span in traced replays.
constexpr std::uint64_t kSpanSampleEvents = 64;

const char* LevelKey(std::size_t level) {
  static constexpr const char* kKeys[kNumCacheLevels] = {"local", "remote_client",
                                                         "server_memory", "server_disk"};
  return kKeys[level];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Wraps one exported result in the coopfs.metrics/v1 document shape that
// ValidateMetricsDocument checks.
std::string MetricsDocument(const std::string& result_json) {
  return "{\"schema\": \"" + std::string(coopfs::kMetricsSchema) + "\", \"results\": [" +
         result_json + "]}";
}

}  // namespace

double TimerCostNs() {
  static const double cost = [] {
    Samples empty;
    for (int i = 0; i < 20'001; ++i) {
      const Clock::time_point a = Clock::now();
      const Clock::time_point b = Clock::now();
      empty.push_back(ClampNs(ElapsedNs(a, b)));
    }
    return QuantileUs(empty, 0.5) * 1000.0;
  }();
  return cost;
}

void EmitEndToEnd(EndToEnd& e2e, Report& report) {
  report.Metric("setup_s", e2e.setup_s, "s");
  report.Metric("peak_rss_mib", e2e.peak_rss_mib, "MiB");
  report.Metric("ops_per_s", e2e.ops_per_s, "1/s");
  report.Metric("modeled_read_us", e2e.modeled_read_us, "us");
  const auto emit = [&](const char* op, Windows& windows) {
    std::size_t count = 0;
    for (const Samples& window : windows) {
      count += window.size();
    }
    std::cout << "samples " << op << " " << count << " in " << windows.size() << " windows\n";
    for (const auto& [tag, q] : {std::pair{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}}) {
      std::vector<double> per_window;
      for (Samples& window : windows) {
        if (!window.empty()) {
          per_window.push_back(QuantileUs(window, q));
        }
      }
      report.Metric(std::string(op) + "_" + tag + "_us", Median(per_window), "us");
    }
  };
  emit("get", e2e.get_windows);
  emit("put", e2e.put_windows);
}

Windows SplitWindows(const Samples& samples) {
  Windows windows(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    windows[w].assign(samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * w / kWindows),
                      samples.begin() +
                          static_cast<std::ptrdiff_t>(samples.size() * (w + 1) / kWindows));
  }
  return windows;
}

void EndState::Add(const EndState& other) {
  client_blocks += other.client_blocks;
  client_capacity += other.client_capacity;
  singlets += other.singlets;
  duplicates += other.duplicates;
}

EndState ReadEndState(coopfs::SimContext& context) {
  EndState state;
  for (coopfs::ClientId c = 0; c < context.num_clients(); ++c) {
    if (const coopfs::BlockCache* cache = context.client_cache_if_materialized(c)) {
      state.client_blocks += cache->size();
    }
    state.client_capacity += context.client_cache_capacity_blocks();
  }
  const coopfs::Directory::DuplicationCounts dup = context.directory().CountDuplication();
  state.singlets = dup.singlets;
  state.duplicates = dup.duplicates;
  return state;
}

void CheckConsistency(coopfs::SimContext& context, const char* where, Report& report) {
  if (report.Corrupting("consistency")) {
    // Drop one cached block's holder entry: the cache now claims a block the
    // directory does not know it holds.
    for (coopfs::ClientId c = 0; c < context.num_clients(); ++c) {
      coopfs::BlockCache& cache = context.client_cache(c);
      if (cache.Mru() != nullptr) {
        context.directory().RemoveHolder(cache.Mru()->block, c);
        break;
      }
    }
  }
  const coopfs::Status status = coopfs::CheckCacheDirectoryConsistency(context);
  report.Check("consistency", status.ok(), std::string(where) + ": " + status.ToString());
}

void EmitLayers(LayerFigures& layers, Report& report) {
  report.Metric("trace.gen_s", layers.gen_s, "s");
  report.Metric("trace.events_per_s",
                Ratio(static_cast<double>(layers.gen_events), layers.gen_s), "1/s");
  report.Metric("sim.self_s", layers.sim_self_s, "s");

  report.Metric("engine.calls.lookup", static_cast<double>(layers.calls.lookup), "count");
  report.Metric("engine.calls.admit", static_cast<double>(layers.calls.admit), "count");
  report.Metric("engine.calls.evict", static_cast<double>(layers.calls.evict), "count");
  report.Metric("engine.calls.readattr", static_cast<double>(layers.calls.readattr), "count");
  report.Metric("engine.calls.reboot", static_cast<double>(layers.calls.reboot), "count");
  report.Metric("engine.busy_s", layers.busy_s, "s");
  for (const double q : {0.50, 0.99}) {
    const std::string tag = q == 0.50 ? "p50" : "p99";
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      report.Metric("engine.lookup_us." + tag + "." + LevelKey(level),
                    QuantileUs(layers.lookup_ns[level], q), "us");
    }
  }
  report.Metric("engine.admit_us.p50", QuantileUs(layers.admit_ns, 0.50), "us");
  report.Metric("engine.admit_us.p99", QuantileUs(layers.admit_ns, 0.99), "us");
  std::uint64_t shard_total = 0;
  std::uint64_t shard_max = 0;
  for (const std::uint64_t ops : layers.shard_ops) {
    shard_total += ops;
    shard_max = std::max(shard_max, ops);
  }
  report.Metric("engine.shard_skew",
                Ratio(static_cast<double>(shard_max),
                      static_cast<double>(shard_total) / layers.shard_ops.size()),
                "ratio");

  const auto reads = static_cast<double>(layers.hits.Total());
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    report.Metric(std::string("core.hit.") + LevelKey(level), layers.hits.Fraction(level),
                  "fraction");
  }
  report.Metric("core.remote_forwards_per_read",
                Ratio(static_cast<double>(layers.counters.remote_forwards),
                      static_cast<double>(layers.lookups)),
                "ratio");
  report.Metric("core.recirculations_per_event",
                Ratio(static_cast<double>(layers.counters.recirculations),
                      static_cast<double>(layers.events)),
                "ratio");
  report.Metric("core.server_load_per_read",
                Ratio(static_cast<double>(layers.server_load_units), reads), "units/read");
  for (std::size_t i = 0; i < PaperPolicies().size(); ++i) {
    report.Metric(std::string("core.") + PaperPolicies()[i].name + ".events_per_s",
                  layers.policy_events_per_s[i], "1/s");
  }

  report.Metric("cache.directory_ops_per_event",
                Ratio(static_cast<double>(layers.counters.directory_ops),
                      static_cast<double>(layers.events)),
                "ratio");
  report.Metric("cache.invalidations_per_write",
                Ratio(static_cast<double>(layers.counters.invalidations),
                      static_cast<double>(layers.admits)),
                "ratio");
  report.Metric("cache.client_fill",
                Ratio(static_cast<double>(layers.end.client_blocks),
                      static_cast<double>(layers.end.client_capacity)),
                "fraction");
  report.Metric("cache.duplicate_fraction",
                Ratio(static_cast<double>(layers.end.duplicates),
                      static_cast<double>(layers.end.singlets + layers.end.duplicates)),
                "fraction");

  report.Metric("obs.export_s", layers.export_s, "s");
  report.Metric("serve.harness_ops_per_s", layers.harness_ops_per_s, "1/s");
  report.Metric("serve.harness_overhead", layers.harness_overhead, "fraction");
  report.Metric("bench.trace_overhead", layers.trace_overhead, "ratio");
}

const std::array<PaperPolicy, 4>& PaperPolicies() {
  static const std::array<PaperPolicy, 4> kPolicies = {{
      {"baseline", coopfs::PolicyKind::kBaseline},
      {"greedy", coopfs::PolicyKind::kGreedy},
      {"central", coopfs::PolicyKind::kCentralCoord},
      {"nchance", coopfs::PolicyKind::kNChance},
  }};
  return kPolicies;
}

DriveResult DriveFastPath(const coopfs::SimulationConfig& config, std::uint32_t num_clients,
                          coopfs::PolicyKind kind, coopfs::EventSource& source,
                          SpanRecorder* spans, std::uint64_t parent_span,
                          const coopfs::CacheEngine* router, bool time_calls) {
  DriveResult drive;
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<coopfs::Policy> policy = coopfs::MakePolicy(kind);
  coopfs::CacheEngine engine(config, num_clients, *policy);
  coopfs::SimContext& context = engine.context();
  std::vector<coopfs::TraceEvent> chunk(kChunkEvents);
  std::int64_t busy_ns = 0;
  std::uint64_t index = 0;
  source.Reset();
  for (std::size_t n = source.NextChunk(chunk); n > 0; n = source.NextChunk(chunk)) {
    for (std::size_t i = 0; i < n; ++i, ++index) {
      const coopfs::TraceEvent& event = chunk[i];
      // The per-event sequence of Simulator::Run.
      context.set_now(event.timestamp);
      context.set_accounting(index >= config.warmup_events);
      context.CountEvent();
      engine.Tick();
      const bool counted = context.accounting();
      if (router != nullptr && event.type != coopfs::EventType::kReboot) {
        ++drive.shard_ops[router->ShardForFile(event.block.file)];
      }
      if (!time_calls) {
        switch (event.type) {
          case coopfs::EventType::kRead:
            engine.Lookup(event.client, event.block);
            break;
          case coopfs::EventType::kWrite:
            engine.Admit(event.client, event.block);
            break;
          case coopfs::EventType::kDelete:
            engine.Evict(event.client, event.block.file);
            break;
          case coopfs::EventType::kReadAttr:
            engine.ReadAttr(event.client, event.block.file);
            break;
          case coopfs::EventType::kReboot:
            engine.Reboot(event.client);
            break;
        }
        continue;
      }
      const char* span_name = nullptr;
      const Clock::time_point t0 = Clock::now();
      Clock::time_point t1;
      switch (event.type) {
        case coopfs::EventType::kRead: {
          const coopfs::EngineOutcome outcome = engine.Lookup(event.client, event.block);
          t1 = Clock::now();
          ++drive.calls.lookup;
          span_name = "engine.lookup";
          if (counted) {
            const auto level = static_cast<std::size_t>(outcome.read.level);
            drive.levels.Add(level);
            ++drive.reads;
            drive.get_ns.push_back(ClampNs(ElapsedNs(t0, t1)));
            drive.get_level.push_back(static_cast<std::uint8_t>(level));
          }
          break;
        }
        case coopfs::EventType::kWrite:
          engine.Admit(event.client, event.block);
          t1 = Clock::now();
          ++drive.calls.admit;
          span_name = "engine.admit";
          if (counted) {
            drive.admit_ns.push_back(ClampNs(ElapsedNs(t0, t1)));
          }
          break;
        case coopfs::EventType::kDelete:
          engine.Evict(event.client, event.block.file);
          t1 = Clock::now();
          ++drive.calls.evict;
          span_name = "engine.evict";
          break;
        case coopfs::EventType::kReadAttr:
          engine.ReadAttr(event.client, event.block.file);
          t1 = Clock::now();
          ++drive.calls.readattr;
          span_name = "engine.readattr";
          break;
        case coopfs::EventType::kReboot:
          engine.Reboot(event.client);
          t1 = Clock::now();
          ++drive.calls.reboot;
          span_name = "engine.reboot";
          break;
      }
      busy_ns += ElapsedNs(t0, t1);
      if (spans != nullptr && index % kSpanSampleEvents == 0) {
        spans->Add(span_name, index, parent_span, t0, t1);
      }
    }
  }
  drive.events = index;
  drive.busy_s = std::max(0.0, (static_cast<double>(busy_ns) -
                                static_cast<double>(index) * TimerCostNs()) /
                                   1e9);
  drive.wall_s = SecondsSince(start);
  drive.counters = context.counters();
  drive.server_load_units = context.server_load().TotalUnits();
  drive.end = ReadEndState(context);
  return drive;
}

void CheckDriverCounts(DriveResult& drive, const coopfs::SimulationResult& run,
                       const char* policy, Report& report) {
  if (report.Corrupting("driver_counts")) {
    drive.levels.Add(0);
  }
  bool same = drive.reads == run.reads;
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    same = same && drive.levels.Get(level) == run.level_counts.Get(level);
  }
  report.Check("driver_counts", same,
               std::string(policy) + ": driver counted " + std::to_string(drive.reads) +
                   " reads, Simulator::Run " + std::to_string(run.reads));
}

PipelineResult RunPipeline(const coopfs::SimulationConfig& config, TimedEventSource& source,
                           Report& report, SpanRecorder* spans, const AfterRun& after_run) {
  PipelineResult pipe;
  coopfs::Simulator simulator(config, &source);
  const coopfs::Trace empty;
  for (std::size_t i = 0; i < PaperPolicies().size(); ++i) {
    const PaperPolicy& paper = PaperPolicies()[i];
    const std::unique_ptr<coopfs::Policy> policy = coopfs::MakePolicy(paper.kind);
    double inspect_s = 0.0;
    const auto inspect = [&](coopfs::SimContext& context) {
      const Clock::time_point start = Clock::now();
      CheckConsistency(context, paper.name, report);
      inspect_s = SecondsSince(start);
    };
    const std::uint64_t run_span = spans != nullptr ? spans->Open("sim.run", i, 0) : 0;
    source.RecordSpans(spans, run_span);
    const double gen_before = source.busy_s();
    std::vector<Clock::time_point> marks;
    source.RecordMarks(&marks);
    const Clock::time_point run_start = Clock::now();
    // Fed an empty trace, Run must refuse ("run" check).
    coopfs::Result<coopfs::SimulationResult> result =
        report.Corrupting("run") ? coopfs::Simulator(config, &empty).Run(*policy, inspect)
                                 : simulator.Run(*policy, inspect);
    const Clock::time_point run_end = Clock::now();
    source.RecordMarks(nullptr);
    pipe.run_s[i] = std::chrono::duration<double>(run_end - run_start).count() - inspect_s;
    pipe.gen_s[i] = source.busy_s() - gen_before;
    marks.insert(marks.begin(), run_start);
    marks.push_back(run_end);
    for (std::size_t m = 1; m < marks.size(); ++m) {
      pipe.pieces_s[i].push_back(std::chrono::duration<double>(marks[m] - marks[m - 1]).count());
    }
    pipe.pieces_s[i].back() -= inspect_s;
    source.RecordSpans(nullptr, 0);
    if (spans != nullptr) {
      spans->Close(run_span);
    }
    if (!report.Check("run", result.ok(), paper.name + std::string(": ") +
                                               result.status().ToString())) {
      if (after_run) {
        after_run(i, pipe);
      }
      continue;
    }
    const std::uint64_t export_span = spans != nullptr ? spans->Open("obs.export", i, 0) : 0;
    const Clock::time_point export_start = Clock::now();
    std::string document = MetricsDocument(coopfs::SimulationResultToJson(*result));
    pipe.export_s += SecondsSince(export_start);
    if (spans != nullptr) {
      spans->Close(export_span);
    }
    pipe.events += result->counters.events_replayed;
    pipe.results[i] = std::move(*result);

    coopfs::SimulationResult& done = pipe.results[i];
    std::uint64_t level_sum = done.level_counts.Total();
    if (report.Corrupting("level_sum")) {
      ++level_sum;
    }
    report.Check("level_sum", level_sum == done.reads,
                 std::string(paper.name) + ": levels sum to " + std::to_string(level_sum) +
                     ", reads " + std::to_string(done.reads));
    if (report.Corrupting("metrics_doc")) {
      document.replace(document.find("\"levels\""), 8, "\"levelz\"");
    }
    const coopfs::Status valid = coopfs::ValidateMetricsDocument(document);
    report.Check("metrics_doc", valid.ok(), std::string(paper.name) + ": " + valid.ToString());
    if (after_run) {
      after_run(i, pipe);
    }
  }
  return pipe;
}

void TracedReplay(const coopfs::SimulationConfig& config, TimedEventSource& source,
                  bool all_layers, Report& report, SpanRecorder& spans, LayerFigures& layers) {
  const std::unique_ptr<coopfs::CacheEngine> router =
      all_layers ? MakeServeEngine(config, config.num_clients) : nullptr;
  double run_wall = 0.0;
  double drive_wall = 0.0;
  const auto drive_policy = [&](std::size_t i, const PipelineResult& pipe) {
    const PaperPolicy& paper = PaperPolicies()[i];
    const bool nchance = i == kNChanceIndex;
    const std::uint64_t drive_span = spans.Open("replay.drive", i, 0);
    DriveResult drive =
        DriveFastPath(config, config.num_clients, paper.kind, source, &spans, drive_span,
                      nchance ? router.get() : nullptr);
    spans.Close(drive_span);
    report.AddAttempted(drive.events);

    const coopfs::SimulationResult& run = pipe.results[i];
    CheckDriverCounts(drive, run, paper.name, report);

    const auto events = static_cast<double>(run.counters.events_replayed);
    layers.policy_events_per_s[i] = Ratio(events, pipe.run_s[i]);
    if (i == 0) {
      // Simulator::Run's own time: its wall time minus that of a bare drive
      // making the same trace pulls and engine calls without the
      // Simulator's bookkeeping. Measured on Baseline, where the engine
      // share of a Run is smallest and so disturbs the difference least.
      const DriveResult bare = DriveFastPath(config, config.num_clients, paper.kind, source,
                                             nullptr, 0, nullptr, /*time_calls=*/false);
      layers.sim_self_s = pipe.run_s[i] - bare.wall_s;
    }
    run_wall += pipe.run_s[i];
    drive_wall += drive.wall_s;
    if (!all_layers) {
      return;
    }
    layers.gen_s += pipe.gen_s[i];
    layers.gen_events += run.counters.events_replayed;
    layers.calls.lookup += drive.calls.lookup;
    layers.calls.admit += drive.calls.admit;
    layers.calls.evict += drive.calls.evict;
    layers.calls.readattr += drive.calls.readattr;
    layers.calls.reboot += drive.calls.reboot;
    layers.busy_s += drive.busy_s;
    if (nchance) {
      // Per-layer engine/core/cache ratios on replay are N-Chance's; the
      // call and busy totals above span all four policies.
      for (std::size_t k = 0; k < drive.get_ns.size(); ++k) {
        layers.lookup_ns[drive.get_level[k]].push_back(drive.get_ns[k]);
      }
      layers.admit_ns = std::move(drive.admit_ns);
      layers.shard_ops = drive.shard_ops;
      layers.hits = run.level_counts;
      layers.counters = drive.counters;
      layers.server_load_units = drive.server_load_units;
      layers.events = drive.events;
      layers.lookups = drive.calls.lookup;
      layers.admits = drive.calls.admit;
      layers.end = drive.end;
    }
  };
  const PipelineResult pipe = RunPipeline(config, source, report, &spans, drive_policy);
  report.AddAttempted(pipe.events);
  layers.export_s = pipe.export_s;
  if (all_layers) {
    layers.trace_overhead = Ratio(drive_wall, run_wall);
  }
}

std::unique_ptr<coopfs::CacheEngine> MakeServeEngine(const coopfs::SimulationConfig& config,
                                                     std::uint32_t num_clients) {
  return std::make_unique<coopfs::CacheEngine>(
      config, num_clients, [] { return coopfs::MakePolicy(coopfs::PolicyKind::kNChance); }, 4);
}

}  // namespace coopbench
