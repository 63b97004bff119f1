// What the benchmark measures, shared by its workloads: the end-to-end
// figures of one untraced run, the per-layer figures of one traced run, the
// fast-path replay driver, and the helpers that read end-of-run state.
#ifndef COOPBENCH_SRC_LAYERS_H_
#define COOPBENCH_SRC_LAYERS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coopbench/src/bench_util.h"
#include "src/common/stats.h"
#include "src/core/policy_factory.h"
#include "src/engine/cache_engine.h"
#include "src/sim/config.h"
#include "src/sim/context.h"
#include "src/sim/metrics.h"
#include "src/trace/event_source.h"

namespace coopbench {

using LevelCounts = coopfs::CounterArray<coopfs::kNumCacheLevels>;

// Events pulled per EventSource chunk, as Simulator::Run pulls them.
inline constexpr std::size_t kChunkEvents = 4096;

// Per-call wall times of one class of engine calls, in nanoseconds.
using Samples = std::vector<std::uint32_t>;

// Measurement windows per timed phase. Each latency metric is the median
// over windows of that window's quantile, so a burst of load from outside
// the benchmark moves one window, not the figure.
inline constexpr std::size_t kWindows = 10;

// Per-call samples of one timed phase, cut into windows.
using Windows = std::vector<Samples>;

// End-to-end figures of an untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  // Peak resident memory: at the end of replay, whose per-call sample
  // buffers have a size fixed by the trace; after set-up on serve, before
  // sample buffers that grow with the speed of the run.
  double peak_rss_mib = 0.0;
  double ops_per_s = 0.0;
  double modeled_read_us = 0.0;
  Windows get_windows;
  Windows put_windows;
};

// Cuts time-ordered samples into kWindows consecutive windows.
Windows SplitWindows(const Samples& samples);

// Prints every end-to-end metric (BENCHMARK.json "end_to_end").
void EmitEndToEnd(EndToEnd& e2e, Report& report);

// Engine calls by kind, as the replay driver or the serve threads issue them.
struct EngineCalls {
  std::uint64_t lookup = 0;
  std::uint64_t admit = 0;
  std::uint64_t evict = 0;
  std::uint64_t readattr = 0;
  std::uint64_t reboot = 0;
};

// Cache state read off one SimContext at the end of a run.
struct EndState {
  std::uint64_t client_blocks = 0;
  std::uint64_t client_capacity = 0;
  std::uint64_t singlets = 0;
  std::uint64_t duplicates = 0;

  void Add(const EndState& other);
};

// Reads the fill and duplication figures of `context` (never materializes
// an untouched client cache).
EndState ReadEndState(coopfs::SimContext& context);

// Runs CheckCacheDirectoryConsistency on `context` as output check
// "consistency". When the report asks for it, first breaks one directory
// entry so the check has an inconsistent state to catch.
void CheckConsistency(coopfs::SimContext& context, const char* where, Report& report);

// Per-layer figures of a traced run (BENCHMARK.json "per_layer").
struct LayerFigures {
  // trace: the workload EventSource behind the timing decorator.
  double gen_s = 0.0;
  std::uint64_t gen_events = 0;
  // sim: Simulator::Run wall time minus the trace and engine time in it.
  double sim_self_s = 0.0;
  // obs: SimulationResultToJson time.
  double export_s = 0.0;
  // core: events per second of Simulator::Run, per paper policy.
  std::array<double, 4> policy_events_per_s{};
  // engine
  EngineCalls calls;
  double busy_s = 0.0;
  std::array<Samples, coopfs::kNumCacheLevels> lookup_ns;
  Samples admit_ns;
  std::array<std::uint64_t, 4> shard_ops{};
  // core / cache, over the measured operations
  LevelCounts hits;
  coopfs::SimCounters counters;
  std::uint64_t server_load_units = 0;
  // Events, lookups and admits the counters above cover.
  std::uint64_t events = 0;
  std::uint64_t lookups = 0;
  std::uint64_t admits = 0;
  EndState end;
  // Traced wall time over untraced wall time for the same work.
  double trace_overhead = 0.0;
  // serve: RunServe against the benchmark's own closed loop, same shape.
  double harness_ops_per_s = 0.0;
  double harness_overhead = 0.0;
};

void EmitLayers(LayerFigures& layers, Report& report);

// The four algorithms of the paper's main comparison, in Figure 4 order:
// Baseline, Greedy Forwarding, Centrally Coordinated (80%), N-Chance (n=2).
struct PaperPolicy {
  const char* name;
  coopfs::PolicyKind kind;
};
const std::array<PaperPolicy, 4>& PaperPolicies();
inline constexpr std::size_t kNChanceIndex = 3;

// Result of the benchmark's own per-event drive of the CacheEngine fast path.
struct DriveResult {
  LevelCounts levels;  // Counted (post-warm-up) reads by level.
  std::uint64_t reads = 0;
  EngineCalls calls;
  double busy_s = 0.0;  // Summed call wall time, timer cost removed.
  double wall_s = 0.0;  // The whole replay, end-of-run reads excluded.
  std::uint64_t events = 0;
  // Counted calls only, in replay order.
  Samples get_ns;
  std::vector<std::uint8_t> get_level;  // Parallel to get_ns.
  Samples admit_ns;
  std::array<std::uint64_t, 4> shard_ops{};
  coopfs::SimCounters counters;
  std::uint64_t server_load_units = 0;
  EndState end;
};

// Replays `source` through a fast-path CacheEngine with exactly the per-event
// sequence Simulator::Run uses (clock, accounting gate, event count, Tick,
// dispatch), timing every call unless `time_calls` is false. With a
// recorder, every 64th event gets a span under `parent_span`. `router`, if
// given, counts events per shard of a concurrent engine through
// ShardForFile.
DriveResult DriveFastPath(const coopfs::SimulationConfig& config, std::uint32_t num_clients,
                          coopfs::PolicyKind kind, coopfs::EventSource& source,
                          SpanRecorder* spans, std::uint64_t parent_span,
                          const coopfs::CacheEngine* router, bool time_calls = true);

// Output check "driver_counts": the drive's per-level counted reads must
// equal Simulator::Run's exactly, since both replay the same sequence.
void CheckDriverCounts(DriveResult& drive, const coopfs::SimulationResult& run,
                       const char* policy, Report& report);

// The replay pipeline over one source: Simulator::Run + export for each
// paper policy, each result checked. `after_run`, if given, is called with
// the policy index after each policy, so a traced replay can drive that
// policy right after its Run. Returns the per-policy Run results.
struct PipelineResult {
  std::array<coopfs::SimulationResult, 4> results;
  std::array<double, 4> run_s{};
  std::array<double, 4> gen_s{};  // Trace time inside each Run.
  // Each Run cut at the source's Reset/NextChunk calls into pieces of
  // identical work on every pass (end-of-run checks excluded).
  std::array<std::vector<double>, 4> pieces_s;
  double export_s = 0.0;
  std::uint64_t events = 0;
};
using AfterRun = std::function<void(std::size_t policy, const PipelineResult& pipe)>;
PipelineResult RunPipeline(const coopfs::SimulationConfig& config, TimedEventSource& source,
                           Report& report, SpanRecorder* spans,
                           const AfterRun& after_run = nullptr);

// Traced reference replay: RunPipeline, with DriveFastPath (spans on) right
// after each policy's Run; checks the driver's per-level counts against
// Simulator::Run's and fills the sim/obs/core-throughput figures (and, when
// `all_layers`, the engine/core/cache figures from N-Chance).
void TracedReplay(const coopfs::SimulationConfig& config, TimedEventSource& source,
                  bool all_layers, Report& report, SpanRecorder& spans, LayerFigures& layers);

// serve.harness_*: RunServe and the benchmark's own closed loop, both with
// serve_spill's shape and the same op budget.
void MeasureHarness(const Options& options, Report& report, LayerFigures& layers);

// Wall time one steady_clock interval reports for no work, in nanoseconds:
// subtracted from summed call times so engine.busy_s counts the calls.
double TimerCostNs();

// A concurrent-mode engine with serve's shape (N-Chance, 4 shards).
std::unique_ptr<coopfs::CacheEngine> MakeServeEngine(const coopfs::SimulationConfig& config,
                                                     std::uint32_t num_clients);

// Workload entry points: replay_sprite, and serve_sprite / serve_spill
// (chosen by options.workload).
void RunReplaySprite(const Options& options, Report& report,
                     std::vector<std::unique_ptr<SpanRecorder>>& recorders);
void RunServeWorkload(const Options& options, Report& report,
                      std::vector<std::unique_ptr<SpanRecorder>>& recorders);

}  // namespace coopbench

#endif  // COOPBENCH_SRC_LAYERS_H_
