#include "src/serve/serve_harness.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sketch.h"
#include "src/common/thread_affinity.h"
#include "src/engine/cache_engine.h"
#include "src/sim/validation.h"
#include "src/trace/workload.h"

namespace coopfs {

namespace {

// Simulated-clock spacing between successive requests (admission order, not
// issuing thread). The engine's per-shard clocks only gate delayed-write
// flushing and LRU tie-breaks, so any strictly increasing sequence works;
// 50 us keeps the simulated storm on the same time scale as replayed traces.
constexpr Micros kTicketSpacingUs = 50;

// Counted latencies recorded by one client thread, merged after join. Own
// cache lines per thread, so appends never contend.
struct alignas(64) ThreadSamples {
  std::array<std::vector<double>, kNumCacheLevels> gets;  // By CacheLevel.
  std::vector<double> puts;
};

// One request drawn from the configured key mix.
struct Request {
  ClientId client = 0;
  BlockId block;
  bool is_get = true;
};

// Per-thread request stream: deterministic given (options, thread index).
class RequestStream {
 public:
  RequestStream(const ServeOptions& options, std::uint32_t thread,
                const ZipfSampler* zipf, const std::vector<Request>* pool)
      : options_(options),
        zipf_(zipf),
        pool_(pool),
        rng_(SplitMix64(options.seed ^ (0x5e12e0ull + thread)).Next()) {
    // Contiguous client slice for the Zipf mix: thread t issues on behalf of
    // clients [first_client_, first_client_ + slice_).
    const std::uint32_t base = options.num_clients / options.client_threads;
    const std::uint32_t extra = options.num_clients % options.client_threads;
    first_client_ = thread * base + std::min(thread, extra);
    slice_ = base + (thread < extra ? 1 : 0);
    if (pool_ != nullptr && !pool_->empty()) {
      pool_cursor_ = thread % pool_->size();
    }
  }

  Request Next() {
    if (pool_ != nullptr && !pool_->empty()) {
      // Trace mix: threads interleave the shared pool round-robin, so the
      // aggregate storm replays the trace's client/file/op mix.
      const Request request = (*pool_)[pool_cursor_];
      pool_cursor_ += options_.client_threads;
      if (pool_cursor_ >= pool_->size()) {
        pool_cursor_ %= pool_->size();
      }
      return request;
    }
    Request request;
    request.client =
        first_client_ + static_cast<ClientId>(rng_.NextBelow(slice_ == 0 ? 1 : slice_));
    const std::size_t rank = zipf_->Sample(rng_);
    request.block.file = static_cast<FileId>(rank / options_.blocks_per_file);
    request.block.block = static_cast<std::uint32_t>(rank % options_.blocks_per_file);
    request.is_get = rng_.NextBool(options_.get_fraction);
    return request;
  }

 private:
  const ServeOptions& options_;
  const ZipfSampler* zipf_;
  const std::vector<Request>* pool_;
  Rng rng_;
  ClientId first_client_ = 0;
  std::uint32_t slice_ = 1;
  std::size_t pool_cursor_ = 0;
};

ServeLatencyStats ComputeStats(std::vector<double>& samples) {
  ServeLatencyStats stats;
  stats.count = samples.size();
  if (samples.empty()) {
    return stats;
  }
  std::sort(samples.begin(), samples.end());
  stats.p50_us = QuantileFromSorted(samples, 0.50);
  stats.p90_us = QuantileFromSorted(samples, 0.90);
  stats.p95_us = QuantileFromSorted(samples, 0.95);
  stats.p99_us = QuantileFromSorted(samples, 0.99);
  stats.p999_us = QuantileFromSorted(samples, 0.999);
  stats.mean_us = std::accumulate(samples.begin(), samples.end(), 0.0) /
                  static_cast<double>(samples.size());
  stats.min_us = samples.front();
  stats.max_us = samples.back();
  return stats;
}

BenchLatency ToBenchLatency(const ServeLatencyStats& stats) {
  BenchLatency latency;
  latency.count = stats.count;
  latency.p50_us = stats.p50_us;
  latency.p90_us = stats.p90_us;
  latency.p95_us = stats.p95_us;
  latency.p99_us = stats.p99_us;
  latency.p999_us = stats.p999_us;
  latency.mean_us = stats.mean_us;
  latency.min_us = stats.min_us;
  latency.max_us = stats.max_us;
  return latency;
}

std::uint32_t ResolveShards(const ServeOptions& options) {
  if (options.shards != 0) {
    return options.shards;
  }
  std::uint32_t shards = 1;
  while (shards < options.client_threads && shards < 64) {
    shards *= 2;
  }
  return shards;
}

// Builds the trace-mix request pool: the read/write skeleton of the
// deterministic Sprite-like workload, scaled to this storm's client count.
std::vector<Request> BuildTracePool(const ServeOptions& options) {
  WorkloadConfig workload = SpriteWorkloadConfig(options.seed);
  workload.num_clients = options.num_clients;
  workload.num_events = std::clamp<std::uint64_t>(options.ops + options.warmup_ops,
                                                  10'000, options.trace_events);
  const Trace trace = GenerateWorkload(workload);
  std::vector<Request> pool;
  pool.reserve(trace.size());
  for (const TraceEvent& event : trace) {
    if (event.type != EventType::kRead && event.type != EventType::kWrite) {
      continue;  // Deletes/attrs/reboots are replay concerns, not get/put load.
    }
    Request request;
    request.client = event.client;
    request.block = event.block;
    request.is_get = event.type == EventType::kRead;
    pool.push_back(request);
  }
  return pool;
}

std::string FormatStatsRow(const char* label, const ServeLatencyStats& stats) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "  %-16s %9llu ops  p50 %9.1f  p95 %9.1f  p99 %9.1f  p999 %9.1f  "
                "mean %9.1f us\n",
                label, static_cast<unsigned long long>(stats.count), stats.p50_us,
                stats.p95_us, stats.p99_us, stats.p999_us, stats.mean_us);
  return line;
}

}  // namespace

BenchReport ServeReport::ToBenchReport() const {
  BenchReport report;
  report.suite = "coopfs_serve";
  report.host_threads = std::thread::hardware_concurrency();
  const std::uint64_t rss = CurrentPeakRssBytes();

  const auto make_series = [&](const char* name, const ServeLatencyStats& stats) {
    BenchSeries series;
    series.name = name;
    series.unit = "ops/s";
    series.wall_seconds = wall_seconds;
    series.items = stats.count;
    // Each series' share of the storm rate, so the get and put series sum
    // to serve_throughput and the levels to serve_get_total (the wall time
    // also spans warm-up ops, which no series counts).
    series.ops_per_sec =
        ops > 0 ? ops_per_sec * static_cast<double>(stats.count) / static_cast<double>(ops)
                : 0.0;
    series.peak_rss_bytes = rss;
    if (stats.count > 0) {
      series.latency = ToBenchLatency(stats);
    }
    return series;
  };

  // Throughput's items count every issued op, as ops_per_sec does; the
  // latency object still describes the counted ones.
  BenchSeries throughput = make_series("serve_throughput", total);
  throughput.items = ops + warmup_ops;
  report.series.push_back(std::move(throughput));
  report.series.push_back(make_series("serve_get_total", gets));
  report.series.push_back(make_series(
      "serve_get_local", get_levels[static_cast<std::size_t>(CacheLevel::kLocalMemory)]));
  report.series.push_back(make_series(
      "serve_get_remote_client",
      get_levels[static_cast<std::size_t>(CacheLevel::kRemoteClient)]));
  report.series.push_back(make_series(
      "serve_get_server_memory",
      get_levels[static_cast<std::size_t>(CacheLevel::kServerMemory)]));
  report.series.push_back(make_series(
      "serve_get_server_disk",
      get_levels[static_cast<std::size_t>(CacheLevel::kServerDisk)]));
  report.series.push_back(make_series("serve_put_total", puts));
  return report;
}

std::string ServeReport::ToString() const {
  std::string out = "coopfs_serve: " + policy_name + ", " +
                    std::to_string(client_threads) + " threads, " +
                    std::to_string(shards) + " shards, " + std::to_string(num_clients) +
                    " clients, " + mix + " mix\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "  %llu ops (%llu gets, %llu puts) + %llu warm-up in %.3f s = %.0f ops/s\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(get_ops),
                static_cast<unsigned long long>(put_ops),
                static_cast<unsigned long long>(warmup_ops), wall_seconds, ops_per_sec);
  out += line;
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    out += FormatStatsRow(CacheLevelName(static_cast<CacheLevel>(level)),
                          get_levels[level]);
  }
  out += FormatStatsRow("All gets", gets);
  out += FormatStatsRow("Puts", puts);
  out += FormatStatsRow("Total", total);
  for (std::size_t shard = 0; shard < shard_locks.size(); ++shard) {
    const ShardLockStats& lock = shard_locks[shard];
    const double acquisitions =
        lock.acquisitions > 0 ? static_cast<double>(lock.acquisitions) : 1.0;
    std::snprintf(line, sizeof(line),
                  "  lock shard %-5zu %9llu acquisitions  contended %6.2f%%  parked %6.2f%%\n",
                  shard, static_cast<unsigned long long>(lock.acquisitions),
                  100.0 * static_cast<double>(lock.contended) / acquisitions,
                  100.0 * static_cast<double>(lock.parked) / acquisitions);
    out += line;
  }
  out += consistent ? "  invariants: OK\n"
                    : "  invariants: FAILED (" + consistency_error + ")\n";
  return out;
}

Result<ServeReport> RunServe(const ServeOptions& options) {
  if (options.client_threads == 0) {
    return Status::InvalidArgument("client_threads must be >= 1");
  }
  if (options.num_clients < options.client_threads) {
    return Status::InvalidArgument("num_clients must be >= client_threads");
  }
  if (options.ops == 0) {
    return Status::InvalidArgument("ops must be > 0");
  }
  if (options.get_fraction < 0.0 || options.get_fraction > 1.0) {
    return Status::InvalidArgument("get_fraction must be in [0, 1]");
  }
  if (options.mix == ServeKeyMix::kZipf &&
      (options.num_files == 0 || options.blocks_per_file == 0)) {
    return Status::InvalidArgument("zipf mix needs num_files and blocks_per_file >= 1");
  }
  if (options.mix == ServeKeyMix::kTrace && options.trace_events == 0) {
    return Status::InvalidArgument("trace mix needs trace_events > 0");
  }

  SimulationConfig config = options.config;
  config.num_clients = options.num_clients;
  config.seed = options.seed;
  const std::uint32_t shards = ResolveShards(options);

  const PolicyKind kind = options.policy;
  const PolicyParams params = options.params;
  CacheEngine engine(config, options.num_clients,
                     [kind, params] { return MakePolicy(kind, params); }, shards);
  // The storm has no warm-up/measurement clock of its own inside the engine;
  // client threads drop warm-up latencies before recording them.
  engine.SetAccounting(true);

  // Key-mix inputs shared read-only across threads.
  std::unique_ptr<ZipfSampler> zipf;
  std::vector<Request> pool;
  if (options.mix == ServeKeyMix::kZipf) {
    zipf = std::make_unique<ZipfSampler>(
        static_cast<std::size_t>(options.num_files) * options.blocks_per_file,
        options.zipf_s);
  } else {
    pool = BuildTracePool(options);
    if (pool.empty()) {
      return Status::InvalidArgument("trace mix produced no read/write events");
    }
  }

  // Fixed per-thread op budgets, remainders to the lowest-indexed threads, so
  // counted get/put totals are deterministic regardless of interleaving.
  const std::uint32_t threads = options.client_threads;
  std::vector<std::uint64_t> counted_budget(threads, options.ops / threads);
  std::vector<std::uint64_t> warmup_budget(threads, options.warmup_ops / threads);
  for (std::uint32_t t = 0; t < options.ops % threads; ++t) {
    ++counted_budget[t];
  }
  for (std::uint32_t t = 0; t < options.warmup_ops % threads; ++t) {
    ++warmup_budget[t];
  }

  std::atomic<std::uint64_t> ticket{0};
  std::vector<ThreadSamples> samples(threads);

  // Each client pins itself to its own allowed CPU and reports ready; the
  // clock starts once all are, and only then are they released, so the
  // storm's wall time covers requests alone and the threads really overlap
  // (unpinned threads started together can share one CPU for a whole run).
  std::latch ready(threads);
  std::latch go(1);
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      PinToAllowedCpu(t);
      RequestStream stream(options, t, zipf.get(), pool.empty() ? nullptr : &pool);
      const std::uint64_t total_ops = warmup_budget[t] + counted_budget[t];
      ready.count_down();
      go.wait();
      for (std::uint64_t i = 0; i < total_ops; ++i) {
        const Request request = stream.Next();
        const Micros now = static_cast<Micros>(
                               ticket.fetch_add(1, std::memory_order_relaxed)) *
                           kTicketSpacingUs;
        const auto op_start = std::chrono::steady_clock::now();
        std::vector<double>* sink = &samples[t].puts;
        double latency_us = 0.0;
        if (request.is_get) {
          const EngineOutcome outcome = engine.Lookup(request.client, request.block, now);
          sink = &samples[t].gets[static_cast<std::size_t>(outcome.read.level)];
          latency_us = static_cast<double>(outcome.latency_us);
        } else {
          latency_us = static_cast<double>(engine.Admit(request.client, request.block, now));
        }
        const auto op_end = std::chrono::steady_clock::now();
        latency_us +=
            static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    op_end - op_start)
                                    .count()) /
            1000.0;
        if (i >= warmup_budget[t]) {
          sink->push_back(latency_us);
        }
        if (options.think_time_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(options.think_time_us));
        }
      }
    });
  }
  ready.wait();
  const auto storm_start = std::chrono::steady_clock::now();
  go.count_down();
  for (std::thread& client : clients) {
    client.join();
  }
  const auto storm_end = std::chrono::steady_clock::now();

  // Merge the per-thread samples; ComputeStats sorts, so quantiles are exact
  // and independent of merge order.
  std::array<std::vector<double>, kNumCacheLevels> get_samples;
  std::vector<double> put_samples;
  for (ThreadSamples& thread_samples : samples) {
    for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
      get_samples[level].insert(get_samples[level].end(), thread_samples.gets[level].begin(),
                                thread_samples.gets[level].end());
    }
    put_samples.insert(put_samples.end(), thread_samples.puts.begin(),
                       thread_samples.puts.end());
  }
  samples = {};  // Release the per-thread copies before the aggregates below.

  ServeReport report;
  report.policy_name = PolicyKindName(options.policy);
  report.client_threads = threads;
  report.shards = engine.num_shards();
  report.num_clients = options.num_clients;
  report.mix = ServeKeyMixName(options.mix);
  report.wall_seconds =
      std::chrono::duration<double>(storm_end - storm_start).count();

  std::vector<double> all_gets;
  std::vector<double> all_samples;
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    report.get_level_counts[level] = get_samples[level].size();
    all_gets.insert(all_gets.end(), get_samples[level].begin(), get_samples[level].end());
    report.get_levels[level] = ComputeStats(get_samples[level]);
  }
  all_samples = all_gets;
  all_samples.insert(all_samples.end(), put_samples.begin(), put_samples.end());
  report.gets = ComputeStats(all_gets);
  report.puts = ComputeStats(put_samples);
  report.total = ComputeStats(all_samples);
  report.get_ops = report.gets.count;
  report.put_ops = report.puts.count;
  report.ops = report.total.count;
  report.warmup_ops = options.warmup_ops;
  report.ops_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.ops + report.warmup_ops) / report.wall_seconds
          : 0.0;

  // Client threads have joined: the engine is quiescent, so unsynchronized
  // per-shard state access is safe.
  report.consistent = true;
  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    report.shard_locks.push_back(engine.lock_stats(shard));
    const Status status = CheckCacheDirectoryConsistency(engine.context(shard));
    if (!status.ok()) {
      report.consistent = false;
      report.consistency_error =
          "shard " + std::to_string(shard) + ": " + status.message();
      break;
    }
  }
  if (!report.consistent) {
    return Status::Internal("serve invariants violated: " + report.consistency_error);
  }
  return report;
}

}  // namespace coopfs
