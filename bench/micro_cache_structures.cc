// Micro-benchmarks for the cache substrate data structures, using
// google-benchmark. These are engineering benchmarks (not paper figures):
// the trace-replay rate of the whole simulator is bounded by BlockCache,
// Directory, and LruMap operation costs.
#include <memory>

#include <benchmark/benchmark.h>

#include "src/cache/block_cache.h"
#include "src/cache/directory.h"
#include "src/cache/lru_map.h"
#include "src/common/flat_hash_map.h"
#include "src/common/rng.h"
#include "src/core/policy_factory.h"
#include "src/engine/cache_engine.h"
#include "src/sim/simulator.h"
#include "src/trace/workload.h"

namespace coopfs {
namespace {

void BM_FlatHashMapFind(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  map.Reserve(entries);
  for (std::uint64_t k = 0; k < entries; ++k) {
    map[k * 2] = k;  // Even keys hit, odd keys miss: a 50/50 probe mix.
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(rng.NextBelow(2 * entries)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatHashMapFind)->Arg(2048)->Arg(131072);

void BM_FlatHashMapInsertErase(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  map.Reserve(entries);
  std::uint64_t head = 0;
  for (; head < entries; ++head) {
    map[head] = head;
  }
  for (auto _ : state) {  // Steady-state occupancy: one insert + one erase.
    map[head] = head;
    benchmark::DoNotOptimize(map.Erase(head - entries));
    ++head;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatHashMapInsertErase)->Arg(2048)->Arg(131072);

void BM_BlockCacheHit(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  BlockCache cache(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    cache.Insert(BlockId{i, 0});
  }
  Rng rng(1);
  for (auto _ : state) {
    const BlockId block{static_cast<FileId>(rng.NextBelow(capacity)), 0};
    benchmark::DoNotOptimize(cache.Touch(block));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheHit)->Arg(2048)->Arg(16384);

void BM_BlockCacheMissInsertEvict(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  BlockCache cache(capacity);
  std::uint32_t next = 0;
  for (auto _ : state) {
    while (cache.Full()) {
      cache.EvictLru();
    }
    cache.Insert(BlockId{next++, 0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheMissInsertEvict)->Arg(2048)->Arg(16384);

// N-Chance's singlet-flag reset (another client fetched the block) in a
// cache whose entries are all flag-marked singlets except the oldest and the
// newest: each reset joins the unmarked class between those two, and the
// re-flag that follows leaves it again.
void BM_BlockCacheFlagReset(benchmark::State& state) {
  const auto capacity = static_cast<std::uint32_t>(state.range(0));
  BlockCache cache(capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    CacheEntry& entry = cache.Insert(BlockId{i, 0});
    if (i != 0 && i + 1 != capacity) {
      cache.SetMarks(entry, 0, true);
    }
  }
  Rng rng(4);
  for (auto _ : state) {
    const auto file = static_cast<FileId>(1 + rng.NextBelow(capacity - 2));
    CacheEntry& entry = *cache.Find(BlockId{file, 0});
    cache.SetMarks(entry, 0, false);
    cache.SetMarks(entry, 0, true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheFlagReset)->Arg(2048)->Arg(16384);

void BM_LruMapInsert(benchmark::State& state) {
  LruMap<std::uint64_t, ClientId> map(static_cast<std::size_t>(state.range(0)));
  std::uint64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Insert(next++, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruMapInsert)->Arg(4096)->Arg(65536);

void BM_DirectoryAddRemoveHolder(benchmark::State& state) {
  Directory directory;
  Rng rng(2);
  const std::uint64_t blocks = 100'000;
  for (auto _ : state) {
    const BlockId block{static_cast<FileId>(rng.NextBelow(blocks)), 0};
    const auto client = static_cast<ClientId>(rng.NextBelow(42));
    directory.AddHolder(block, client);
    directory.RemoveHolder(block, client);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryAddRemoveHolder);

void BM_DirectorySingletQuery(benchmark::State& state) {
  Directory directory;
  Rng rng(3);
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    directory.AddHolder(BlockId{i, 0}, static_cast<ClientId>(i % 42));
    if (i % 3 == 0) {
      directory.AddHolder(BlockId{i, 0}, static_cast<ClientId>((i + 1) % 42));
    }
  }
  for (auto _ : state) {
    const BlockId block{static_cast<FileId>(rng.NextBelow(100'000)), 0};
    benchmark::DoNotOptimize(directory.IsSingletHeldBy(block, static_cast<ClientId>(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectorySingletQuery);

// A fast-path CacheEngine::Lookup that hits the requester's own cache (the
// replay's most common read), on a warmed cache of state.range(0) blocks.
// Beforehand another client reads state.range(1) further blocks, so the
// world knows many more blocks than the requester caches, as in a long
// replay. A local hit reads the client cache's index slot and nothing of
// the directory.
void BM_FastPathLocalHit(benchmark::State& state) {
  const auto capacity = static_cast<std::uint32_t>(state.range(0));
  const auto others = static_cast<std::uint32_t>(state.range(1));
  SimulationConfig config;
  config.client_cache_blocks = capacity;
  config.server_cache_blocks = 2 * static_cast<std::size_t>(capacity);
  config.warmup_events = 0;
  const std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kNChance);
  CacheEngine engine(config, 2, *policy);
  for (std::uint32_t i = 0; i < others; ++i) {
    engine.Lookup(1, BlockId{capacity + i, 0});
  }
  for (std::uint32_t i = 0; i < capacity; ++i) {
    engine.Lookup(0, BlockId{i, 0});
  }
  Rng rng(1);
  for (auto _ : state) {
    const BlockId block{static_cast<FileId>(rng.NextBelow(capacity)), 0};
    benchmark::DoNotOptimize(engine.Lookup(0, block));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastPathLocalHit)->Args({2048, 0})->Args({2048, 1 << 20});

// One Zipf(0.7) draw: uniform double, guide-table bucket, short search. At
// 2^20 ranks (serve_spill's key space) the 8 MiB CDF no longer fits in
// cache, so this is the request generator's per-key cost.
void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.7);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1 << 20);

// End-to-end: events per second through the full simulator, per policy.
void BM_SimulatorThroughput(benchmark::State& state) {
  static const Trace* trace = [] {
    WorkloadConfig config = SmallTestWorkloadConfig(5);
    config.num_events = 50'000;
    return new Trace(GenerateWorkload(config));
  }();
  SimulationConfig config;
  config.client_cache_blocks = 256;
  config.server_cache_blocks = 1024;
  config.warmup_events = 0;
  Simulator simulator(config, trace);
  const auto kind = static_cast<PolicyKind>(state.range(0));
  for (auto _ : state) {
    auto policy = MakePolicy(kind);
    benchmark::DoNotOptimize(simulator.Run(*policy));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace->size()));
  state.SetLabel(PolicyKindName(kind));
}
BENCHMARK(BM_SimulatorThroughput)
    ->Arg(static_cast<int>(PolicyKind::kBaseline))
    ->Arg(static_cast<int>(PolicyKind::kGreedy))
    ->Arg(static_cast<int>(PolicyKind::kCentralCoord))
    ->Arg(static_cast<int>(PolicyKind::kNChance))
    ->Arg(static_cast<int>(PolicyKind::kWeightedLru));

}  // namespace
}  // namespace coopfs

BENCHMARK_MAIN();
