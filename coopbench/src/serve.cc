// serve_sprite and serve_spill: three closed-loop client threads (one fewer
// than the 4-core host) against one concurrent-mode CacheEngine (N-Chance,
// 4 shards, 42 clients x 16 MiB + 128 MiB server). Each thread issues its
// next request only when the previous one returns. Requests are generated
// before timing and a warm-up share fills the caches first.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>

#include "coopbench/src/layers.h"
#include "src/common/rng.h"
#include "src/serve/serve_harness.h"
#include "src/trace/warmup.h"
#include "src/trace/workload.h"

namespace coopbench {

namespace {

constexpr std::uint32_t kClients = 42;
constexpr std::uint32_t kThreads = 3;
constexpr int kSetupRepeats = 3;
// One request in this many gets spans in traced storms.
constexpr std::uint64_t kSpanSampleOps = 64;

// serve_spill's key space: 65,536 files x 16 blocks, Zipf(0.7), 50% puts.
constexpr std::uint32_t kSpillFiles = 65'536;
constexpr std::uint32_t kSpillBlocksPerFile = 16;
constexpr double kSpillZipf = 0.7;
constexpr double kSpillGetFraction = 0.5;

struct Request {
  coopfs::BlockId block;
  coopfs::Micros timestamp = 0;
  coopfs::ClientId client = 0;
  bool is_get = true;
};

struct ServeInput {
  std::vector<std::vector<Request>> threads;  // Per thread, in issue order.
  std::vector<std::uint64_t> warmup;          // Leading warm-up requests per thread.
  coopfs::Trace reference;  // One-stream order for the traced reference replay.
  double gen_s = 0.0;
  std::uint64_t gen_events = 0;
};

// Zipf get/put stream of one serve_spill thread, as a workload EventSource
// so it is generated behind the same timing decorator as the Sprite trace.
class ZipfRequestSource final : public coopfs::EventSource {
 public:
  ZipfRequestSource(const coopfs::ZipfSampler& zipf, std::uint64_t seed,
                    coopfs::ClientId first_client, std::uint32_t clients, std::uint64_t count)
      : zipf_(zipf), seed_(seed), first_client_(first_client), clients_(clients),
        count_(count), rng_(seed) {}

  void Reset() override {
    rng_ = coopfs::Rng(seed_);
    emitted_ = 0;
  }

  std::size_t NextChunk(std::span<coopfs::TraceEvent> out) override {
    std::size_t n = 0;
    for (; n < out.size() && emitted_ < count_; ++n, ++emitted_) {
      coopfs::TraceEvent& event = out[n];
      event.timestamp = static_cast<coopfs::Micros>(emitted_) * 50;
      event.client = first_client_ + static_cast<coopfs::ClientId>(rng_.NextBelow(clients_));
      const std::size_t rank = zipf_.Sample(rng_);
      event.block.file = static_cast<coopfs::FileId>(rank / kSpillBlocksPerFile);
      event.block.block = static_cast<std::uint32_t>(rank % kSpillBlocksPerFile);
      event.type = rng_.NextBool(kSpillGetFraction) ? coopfs::EventType::kRead
                                                    : coopfs::EventType::kWrite;
    }
    return n;
  }

 private:
  const coopfs::ZipfSampler& zipf_;
  std::uint64_t seed_;
  coopfs::ClientId first_client_;
  std::uint32_t clients_;
  std::uint64_t count_;
  coopfs::Rng rng_;
  std::uint64_t emitted_ = 0;
};

// Pulls `source` through the timing decorator, keeping gets and puts.
std::vector<coopfs::TraceEvent> Generate(coopfs::EventSource& generator, ServeInput& input) {
  TimedEventSource source(generator);
  std::vector<coopfs::TraceEvent> events;
  std::vector<coopfs::TraceEvent> chunk(kChunkEvents);
  for (std::size_t n = source.NextChunk(chunk); n > 0; n = source.NextChunk(chunk)) {
    for (std::size_t i = 0; i < n; ++i) {
      if (chunk[i].type == coopfs::EventType::kRead ||
          chunk[i].type == coopfs::EventType::kWrite) {
        events.push_back(chunk[i]);
      }
    }
  }
  input.gen_s += source.busy_s();
  input.gen_events += source.events();
  return events;
}

Request ToRequest(const coopfs::TraceEvent& event) {
  return Request{event.block, event.timestamp, event.client,
                 event.type == coopfs::EventType::kRead};
}

std::size_t ReferenceEvents(const Options& options) {
  if (options.tiny) {
    return 20'000;
  }
  // N-Chance replays serve_spill's stream at ~30k events/s.
  return options.workload == "serve_spill" ? 200'000 : 500'000;
}

// serve_sprite: the gets and puts of the Sprite generator. Each client is
// pinned to one thread, in trace order; clients go to the least-loaded
// thread, heaviest first, so request counts balance.
ServeInput BuildSpriteInput(const Options& options, bool with_reference) {
  ServeInput input;
  coopfs::WorkloadConfig workload = coopfs::SpriteWorkloadConfig(options.seed);
  workload.num_clients = kClients;
  workload.num_events = options.tiny ? 40'000 : 2'000'000;
  const std::unique_ptr<coopfs::EventSource> generator =
      coopfs::MakeWorkloadEventSource(workload);
  std::vector<coopfs::TraceEvent> events = Generate(*generator, input);

  std::vector<std::uint64_t> per_client(kClients, 0);
  for (const coopfs::TraceEvent& event : events) {
    ++per_client[event.client];
  }
  std::vector<coopfs::ClientId> order(kClients);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](coopfs::ClientId a, coopfs::ClientId b) {
    return per_client[a] > per_client[b];
  });
  std::vector<std::uint32_t> owner(kClients, 0);
  std::vector<std::uint64_t> load(kThreads, 0);
  for (const coopfs::ClientId client : order) {
    const auto lightest =
        static_cast<std::uint32_t>(std::min_element(load.begin(), load.end()) - load.begin());
    owner[client] = lightest;
    load[lightest] += per_client[client];
  }
  input.threads.resize(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    input.threads[t].reserve(load[t]);
  }
  for (const coopfs::TraceEvent& event : events) {
    input.threads[owner[event.client]].push_back(ToRequest(event));
  }
  for (const std::vector<Request>& requests : input.threads) {
    input.warmup.push_back(coopfs::SpriteWarmupEvents(requests.size()));
  }
  if (with_reference) {
    events.resize(std::min(events.size(), ReferenceEvents(options)));
    input.reference = std::move(events);
  }
  return input;
}

// serve_spill: thread t draws clients from its own 14 of the 42, keys from
// Zipf(0.7) over 1,048,576 blocks (about 10x the 102,400-block cache).
ServeInput BuildSpillInput(const Options& options, std::uint64_t per_thread,
                           std::uint64_t warmup_per_thread, bool with_reference) {
  ServeInput input;
  const Clock::time_point start = Clock::now();
  const coopfs::ZipfSampler zipf(
      static_cast<std::size_t>(kSpillFiles) * kSpillBlocksPerFile, kSpillZipf);
  input.gen_s += SecondsSince(start);
  const std::uint32_t slice = kClients / kThreads;
  std::vector<std::vector<coopfs::TraceEvent>> streams;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    const std::uint64_t seed = coopfs::SplitMix64(options.seed ^ (0x5b111ull + t)).Next();
    ZipfRequestSource generator(zipf, seed, t * slice, slice, per_thread);
    streams.push_back(Generate(generator, input));
    std::vector<Request>& requests = input.threads.emplace_back();
    requests.reserve(streams.back().size());
    for (const coopfs::TraceEvent& event : streams.back()) {
      requests.push_back(ToRequest(event));
    }
    input.warmup.push_back(warmup_per_thread);
  }
  if (with_reference) {
    // Round-robin over the threads, renumbering time so it never goes back.
    const std::size_t limit = ReferenceEvents(options);
    for (std::size_t i = 0; input.reference.size() < limit && i < per_thread; ++i) {
      for (std::uint32_t t = 0; t < kThreads && input.reference.size() < limit; ++t) {
        coopfs::TraceEvent event = streams[t][i];
        event.timestamp = static_cast<coopfs::Micros>(input.reference.size()) * 50;
        input.reference.push_back(event);
      }
    }
  }
  return input;
}

ServeInput BuildInput(const Options& options, bool with_reference) {
  if (options.workload == "serve_sprite") {
    return BuildSpriteInput(options, with_reference);
  }
  const std::uint64_t per_thread = options.tiny ? 20'000 : 600'000;
  const std::uint64_t warmup = options.tiny ? 5'000 : 100'000;
  return BuildSpillInput(options, per_thread, warmup, with_reference);
}

// What one client thread did.
struct ThreadTally {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  LevelCounts levels;
  double modeled_us = 0.0;
  Samples get_ns;
  std::vector<std::uint8_t> get_level;  // Parallel to get_ns.
  Samples put_ns;
  std::int64_t busy_ns = 0;
  std::array<std::uint64_t, 4> shard_ops{};
  // Where each measurement window starts in get_ns and put_ns.
  std::vector<std::array<std::size_t, 2>> window_starts;
};

// A thread's op count, read by the main thread at window boundaries.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> ops{0};
};

struct Storm {
  std::vector<ThreadTally> threads;
  double wall_s = 0.0;
  std::vector<double> window_ops_per_s;  // Deadline storms only.
  std::uint64_t ops() const {
    std::uint64_t total = 0;
    for (const ThreadTally& tally : threads) {
      total += tally.ops;
    }
    return total;
  }
};

// No per-thread request limit: the storm runs until its deadline.
constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

// Runs every thread's requests from its cursor (wrapping at the end of its
// list) until it has issued `budget[t]` requests, or, when `seconds` > 0,
// until that much time has passed, cut into kWindows equal windows. With
// `spans`, thread t records into spans[t] and counts requests per shard.
Storm RunStorm(coopfs::CacheEngine& engine, const ServeInput& input,
               std::vector<std::size_t>& cursors, const std::vector<std::uint64_t>& budget,
               double seconds, bool record, const std::vector<SpanRecorder*>* spans) {
  Storm storm;
  storm.threads.resize(kThreads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> window{0};
  std::vector<Progress> progress(kThreads);
  const auto client = [&](std::uint32_t t) {
    ThreadTally& tally = storm.threads[t];
    const std::vector<Request>& requests = input.threads[t];
    SpanRecorder* recorder = spans != nullptr ? (*spans)[t] : nullptr;
    if (record) {
      tally.get_ns.reserve(1u << 20);
      tally.get_level.reserve(1u << 20);
      tally.put_ns.reserve(1u << 20);
    }
    // One client thread per CPU, leaving CPU 0 to the main thread.
    PinThread(t + 1);
    std::size_t cursor = cursors[t];
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (std::uint64_t i = 0; i < budget[t]; ++i) {
      if (seconds > 0.0 && stop.load(std::memory_order_relaxed)) {
        break;
      }
      const std::size_t current = window.load(std::memory_order_relaxed);
      while (record && tally.window_starts.size() <= current) {
        tally.window_starts.push_back({tally.get_ns.size(), tally.put_ns.size()});
      }
      const Clock::time_point issued = Clock::now();
      const Request& request = requests[cursor];
      cursor = cursor + 1 == requests.size() ? 0 : cursor + 1;
      Clock::time_point t0;
      Clock::time_point t1;
      if (request.is_get) {
        t0 = Clock::now();
        const coopfs::EngineOutcome outcome =
            engine.Lookup(request.client, request.block, request.timestamp);
        t1 = Clock::now();
        ++tally.gets;
        if (record) {
          const auto level = static_cast<std::uint8_t>(outcome.read.level);
          tally.levels.Add(level);
          tally.modeled_us += static_cast<double>(outcome.latency_us);
          tally.get_ns.push_back(ClampNs(ElapsedNs(t0, t1)));
          tally.get_level.push_back(level);
        }
      } else {
        t0 = Clock::now();
        engine.Admit(request.client, request.block, request.timestamp);
        t1 = Clock::now();
        ++tally.puts;
        if (record) {
          tally.put_ns.push_back(ClampNs(ElapsedNs(t0, t1)));
        }
      }
      tally.busy_ns += ElapsedNs(t0, t1);
      ++tally.ops;
      progress[t].ops.store(tally.ops, std::memory_order_relaxed);
      if (recorder != nullptr) {
        ++tally.shard_ops[engine.ShardForFile(request.block.file)];
        if (i % kSpanSampleOps == 0) {
          const std::uint64_t id = (static_cast<std::uint64_t>(t) << 40) | i;
          const std::uint64_t parent =
              recorder->Add("serve.request", id, 0, issued, Clock::now());
          recorder->Add(request.is_get ? "engine.lookup" : "engine.admit", id, parent, t0, t1);
        }
      }
    }
    cursors[t] = cursor;
  };
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(client, t);
  }
  while (ready.load() < kThreads) {
    std::this_thread::yield();
  }
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  if (seconds > 0.0) {
    std::uint64_t last_ops = 0;
    Clock::time_point last = start;
    for (std::size_t w = 0; w < kWindows; ++w) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * (w + 1) / kWindows)));
      const Clock::time_point now = Clock::now();
      std::uint64_t ops = 0;
      for (const Progress& p : progress) {
        ops += p.ops.load(std::memory_order_relaxed);
      }
      storm.window_ops_per_s.push_back(static_cast<double>(ops - last_ops) /
                                       std::chrono::duration<double>(now - last).count());
      last_ops = ops;
      last = now;
      window.store(w + 1, std::memory_order_relaxed);
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  storm.wall_s = SecondsSince(start);
  return storm;
}

// The samples of each measurement window, across threads.
Windows StormWindows(const Storm& storm, bool gets) {
  Windows windows(kWindows);
  for (const ThreadTally& tally : storm.threads) {
    const Samples& samples = gets ? tally.get_ns : tally.put_ns;
    const std::size_t side = gets ? 0 : 1;
    for (std::size_t w = 0; w < kWindows && w < tally.window_starts.size(); ++w) {
      const std::size_t end = w + 1 < tally.window_starts.size()
                                  ? tally.window_starts[w + 1][side]
                                  : samples.size();
      windows[w].insert(windows[w].end(),
                        samples.begin() + static_cast<std::ptrdiff_t>(tally.window_starts[w][side]),
                        samples.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return windows;
}

// Builds a fresh engine over `input` and runs the warm-up share with
// accounting off.
std::unique_ptr<coopfs::CacheEngine> WarmUp(const coopfs::SimulationConfig& config,
                                            const ServeInput& input,
                                            std::vector<std::size_t>& cursors) {
  std::unique_ptr<coopfs::CacheEngine> engine = MakeServeEngine(config, kClients);
  engine->SetAccounting(false);
  cursors.assign(kThreads, 0);
  RunStorm(*engine, input, cursors, input.warmup, 0.0, false, nullptr);
  engine->SetAccounting(true);
  return engine;
}

// Post-storm output checks: directory consistency of every shard, and the
// per-level get counts summing to the gets issued.
void CheckStorm(coopfs::CacheEngine& engine, const Storm& storm, Report& report) {
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    CheckConsistency(engine.context(s), ("shard " + std::to_string(s)).c_str(), report);
  }
  std::uint64_t gets = 0;
  std::uint64_t level_sum = 0;
  for (const ThreadTally& tally : storm.threads) {
    gets += tally.gets;
    level_sum += tally.levels.Total();
  }
  if (report.Corrupting("level_sum")) {
    ++level_sum;
  }
  report.Check("level_sum", level_sum == gets,
               "levels sum to " + std::to_string(level_sum) + ", gets " + std::to_string(gets));
}

struct EngineTotals {
  coopfs::SimCounters counters;
  std::uint64_t server_load_units = 0;
};

EngineTotals ReadTotals(coopfs::CacheEngine& engine) {
  EngineTotals totals;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    const coopfs::SimCounters& c = engine.context(s).counters();
    totals.counters.remote_forwards += c.remote_forwards;
    totals.counters.recirculations += c.recirculations;
    totals.counters.invalidations += c.invalidations;
    totals.counters.directory_ops += c.directory_ops;
    totals.server_load_units += engine.context(s).server_load().TotalUnits();
  }
  return totals;
}

coopfs::SimulationConfig ServeConfig(const Options& options) {
  coopfs::SimulationConfig config;
  config.num_clients = kClients;
  config.seed = options.seed;
  return config;
}

void RunServeUntraced(const Options& options, Report& report) {
  const coopfs::SimulationConfig config = ServeConfig(options);
  EndToEnd e2e;
  std::vector<double> setups;
  ServeInput input;
  std::unique_ptr<coopfs::CacheEngine> engine;
  std::vector<std::size_t> cursors;
  std::uint64_t warmup_ops = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    input = ServeInput{};
    const Clock::time_point start = Clock::now();
    input = BuildInput(options, false);
    engine = WarmUp(config, input, cursors);
    setups.push_back(SecondsSince(start));
    warmup_ops += std::accumulate(input.warmup.begin(), input.warmup.end(), std::uint64_t{0});
  }
  e2e.setup_s = Median(setups);
  e2e.peak_rss_mib = PeakRssMiB();

  const Storm storm = RunStorm(*engine, input, cursors,
                               std::vector<std::uint64_t>(kThreads, kNoLimit), options.seconds,
                               true, nullptr);
  CheckStorm(*engine, storm, report);
  report.AddAttempted(warmup_ops + storm.ops());
  std::uint64_t gets = 0;
  double modeled_us = 0.0;
  for (const ThreadTally& tally : storm.threads) {
    gets += tally.gets;
    modeled_us += tally.modeled_us;
  }
  e2e.get_windows = StormWindows(storm, true);
  e2e.put_windows = StormWindows(storm, false);
  e2e.ops_per_s = Median(storm.window_ops_per_s);
  std::cout << "window ops/s";
  for (const double rate : storm.window_ops_per_s) {
    std::cout << " " << static_cast<std::uint64_t>(rate);
  }
  std::cout << "\n";
  e2e.modeled_read_us = gets > 0 ? modeled_us / static_cast<double>(gets) : 0.0;
  EmitEndToEnd(e2e, report);
}

void RunServeTraced(const Options& options, Report& report,
                    std::vector<std::unique_ptr<SpanRecorder>>& recorders) {
  const coopfs::SimulationConfig config = ServeConfig(options);
  LayerFigures layers;
  ServeInput input = BuildInput(options, true);
  layers.gen_s = input.gen_s;
  layers.gen_events = input.gen_events;
  std::vector<std::size_t> cursors;
  std::unique_ptr<coopfs::CacheEngine> engine = WarmUp(config, input, cursors);
  const std::vector<std::uint64_t> unlimited(kThreads, kNoLimit);

  // The same storm untraced, then traced, each for half the run.
  const Storm plain = RunStorm(*engine, input, cursors, unlimited, options.seconds / 2, true,
                               nullptr);
  const EngineTotals before = ReadTotals(*engine);
  std::vector<SpanRecorder*> thread_spans;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    recorders.push_back(std::make_unique<SpanRecorder>(recorders.size()));
    thread_spans.push_back(recorders.back().get());
  }
  Storm traced = RunStorm(*engine, input, cursors, unlimited, options.seconds / 2, true,
                          &thread_spans);
  const EngineTotals after = ReadTotals(*engine);
  CheckStorm(*engine, traced, report);
  report.AddAttempted(plain.ops() + traced.ops());

  std::int64_t busy_ns = 0;
  for (ThreadTally& tally : traced.threads) {
    layers.calls.lookup += tally.gets;
    layers.calls.admit += tally.puts;
    busy_ns += tally.busy_ns;
    layers.hits.Merge(tally.levels);
    for (std::size_t i = 0; i < tally.get_ns.size(); ++i) {
      layers.lookup_ns[tally.get_level[i]].push_back(tally.get_ns[i]);
    }
    layers.admit_ns.insert(layers.admit_ns.end(), tally.put_ns.begin(), tally.put_ns.end());
    for (std::size_t s = 0; s < layers.shard_ops.size(); ++s) {
      layers.shard_ops[s] += tally.shard_ops[s];
    }
  }
  layers.busy_s = std::max(0.0, (static_cast<double>(busy_ns) -
                                 static_cast<double>(traced.ops()) * TimerCostNs()) /
                                    1e9);
  layers.counters.remote_forwards =
      after.counters.remote_forwards - before.counters.remote_forwards;
  layers.counters.recirculations = after.counters.recirculations - before.counters.recirculations;
  layers.counters.invalidations = after.counters.invalidations - before.counters.invalidations;
  layers.counters.directory_ops = after.counters.directory_ops - before.counters.directory_ops;
  layers.server_load_units = after.server_load_units - before.server_load_units;
  layers.events = traced.ops();
  layers.lookups = layers.calls.lookup;
  layers.admits = layers.calls.admit;
  for (std::uint32_t s = 0; s < engine->num_shards(); ++s) {
    layers.end.Add(ReadEndState(engine->context(s)));
  }
  layers.trace_overhead = (static_cast<double>(plain.ops()) / plain.wall_s) /
                          (static_cast<double>(traced.ops()) / traced.wall_s);
  engine.reset();

  // The sim, obs and per-policy core figures come from replaying the same
  // requests single-threaded through Simulator::Run.
  coopfs::SimulationConfig reference_config = config;
  reference_config.warmup_events = coopfs::SpriteWarmupEvents(input.reference.size());
  coopfs::MaterializedEventSource materialized(&input.reference);
  TimedEventSource reference(materialized);
  recorders.push_back(std::make_unique<SpanRecorder>(recorders.size()));
  TracedReplay(reference_config, reference, /*all_layers=*/false, report, *recorders.back(),
               layers);

  MeasureHarness(options, report, layers);
  EmitLayers(layers, report);
}

}  // namespace

void MeasureHarness(const Options& options, Report& report, LayerFigures& layers) {
  const std::uint64_t per_thread = options.tiny ? 2'000 : 100'000;
  const std::uint64_t ops = per_thread * kThreads;
  const coopfs::SimulationConfig config = ServeConfig(options);

  const ServeInput input = BuildSpillInput(options, per_thread, 0, false);
  std::vector<std::size_t> cursors(kThreads, 0);
  const std::unique_ptr<coopfs::CacheEngine> engine = MakeServeEngine(config, kClients);
  const Storm own = RunStorm(*engine, input, cursors,
                             std::vector<std::uint64_t>(kThreads, per_thread), 0.0, true, nullptr);

  coopfs::ServeOptions serve;
  serve.client_threads = kThreads;
  serve.shards = engine->num_shards();
  serve.num_clients = kClients;
  serve.policy = coopfs::PolicyKind::kNChance;
  // Asked for zero ops, RunServe must refuse ("harness" check).
  serve.ops = report.Corrupting("harness") ? 0 : ops;
  serve.warmup_ops = 0;
  serve.get_fraction = kSpillGetFraction;
  serve.mix = coopfs::ServeKeyMix::kZipf;
  serve.num_files = kSpillFiles;
  serve.blocks_per_file = kSpillBlocksPerFile;
  serve.zipf_s = kSpillZipf;
  serve.seed = options.seed;
  serve.config = config;
  const coopfs::Result<coopfs::ServeReport> harness = coopfs::RunServe(serve);
  report.AddAttempted(ops * 2);
  if (!report.Check("harness", harness.ok(), "RunServe: " + harness.status().ToString())) {
    return;
  }
  const double own_ops_per_s = static_cast<double>(own.ops()) / own.wall_s;
  layers.harness_ops_per_s = static_cast<double>(harness->ops) / harness->wall_seconds;
  layers.harness_overhead = 1.0 - layers.harness_ops_per_s / own_ops_per_s;
}

void RunServeWorkload(const Options& options, Report& report,
                      std::vector<std::unique_ptr<SpanRecorder>>& recorders) {
  if (options.trace) {
    RunServeTraced(options, report, recorders);
  } else {
    RunServeUntraced(options, report);
  }
}

}  // namespace coopbench
