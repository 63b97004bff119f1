// Perf-regression gate: compares "coopfs.bench/v1" documents.
//
// Usage: bench_compare BASELINE.json CANDIDATE.json [--threshold PCT]
//            [--scaling-floor F] [--mono-tolerance F] [--no-scaling-gate]
//            [--obs-overhead F] [--no-obs-gate]
//            [--serve-p99-slack F] [--no-serve-gate]
//        bench_compare DOC.json [--scaling-floor F] [--mono-tolerance F]
//            [--obs-overhead F] [--no-obs-gate]
//            [--serve-p99-slack F] [--no-serve-gate]
//
// Two-document mode prints a per-series throughput delta table for every
// series present in both documents, then exits non-zero if any replay
// series (name starting with "replay_") in the candidate is more than PCT
// percent slower than the baseline (default 10), or if a baseline replay
// series is missing from the candidate. Non-replay series (microbenches,
// exports) are reported but do not gate: they are noisier and
// machine-dependent, while the replay series are the numbers the paper
// reproduction actually spends its time in.
//
// In both modes the candidate (or sole) document's parallel_sweep_<T>t
// series additionally pass through the scaling-efficiency gate
// (src/obs/scaling_gate.h): the 2t/1t speedup must reach the efficiency
// floor times what the document's host_threads made attainable, and
// throughput must stay monotonic (within tolerance) as threads are added.
// --no-scaling-gate disables that check (two-document mode only).
//
// The candidate document also passes through the observability-overhead
// gate (src/obs/obs_gate.h): the replay_bounded_metrics series must retain
// at least (1 - F) of the replay_serial_nchance throughput (default
// F = 0.15), bounding what the bounded-memory telemetry may cost on the
// replay hot path. --obs-overhead F adjusts the ceiling; --no-obs-gate
// disables the check.
//
// Documents carrying coopfs_serve series (serve_*) additionally pass
// through the serve-latency gate (src/obs/serve_gate.h): local-memory hits
// must be present, per-series quantiles monotonic, per-level medians ordered
// like the memory hierarchy, and — in two-document mode — each shared serve
// series' p99 may grow by at most F (default 0.5) over the baseline.
// --serve-p99-slack F adjusts the slack; --no-serve-gate disables the check.
//
// On any gate failure the tool prints both documents' provenance (git_sha,
// build_type, host_threads) and, in two-document mode, attributes the
// failure: when both runs shipped the perf_harness sidecars
// ("<doc minus .json>.profile.json" / "<...>.timeseries.jsonl"), it diffs
// them through src/obs/run_diff and names the top-3 suspect profiler spans
// and timeseries windows on "bench_compare: SUSPECT" lines — so a tripped
// gate arrives with forensics, not just a ratio.
//
// CI runs this against the committed BENCH_coopfs.json; see
// docs/performance.md for the re-baselining workflow.
//
// Exit codes: 0 = all gates pass, 1 = a gate failed, 2 = usage/load error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/format.h"
#include "src/obs/bench_report.h"
#include "src/obs/obs_gate.h"
#include "src/obs/run_diff.h"
#include "src/obs/scaling_gate.h"
#include "src/obs/serve_gate.h"

namespace coopfs {
namespace {

// Loads and schema-validates one bench document.
std::optional<BenchReport> LoadReport(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<BenchReport> report = ParseBenchDocument(buffer.str());
  if (!report.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 report.status().ToString().c_str());
    return std::nullopt;
  }
  return *std::move(report);
}

const BenchSeries* FindByName(const std::vector<BenchSeries>& series,
                              std::string_view name) {
  for (const BenchSeries& sample : series) {
    if (sample.name == name) {
      return &sample;
    }
  }
  return nullptr;
}

bool IsGated(std::string_view name) { return name.rfind("replay_", 0) == 0; }

// The >10%-slower replay gate (two-document mode). Appends tagged failure
// lines.
void CheckReplayRegressions(const BenchReport& baseline, const BenchReport& candidate,
                            double threshold_pct, std::vector<std::string>* failures) {
  TableFormatter table({"Series", "Baseline", "Candidate", "Delta", "Gate"});
  for (const BenchSeries& base : baseline.series) {
    const BenchSeries* cand = FindByName(candidate.series, base.name);
    if (cand == nullptr) {
      if (IsGated(base.name)) {
        failures->push_back("REGRESSION " + base.name + ": missing from candidate");
      }
      continue;
    }
    const double delta_pct = base.ops_per_sec > 0.0
        ? (cand->ops_per_sec - base.ops_per_sec) / base.ops_per_sec * 100.0
        : 0.0;
    const bool gated = IsGated(base.name);
    const bool regressed = gated && delta_pct < -threshold_pct;
    table.AddRow({base.name, FormatDouble(base.ops_per_sec / 1e6, 2) + " M/s",
                  FormatDouble(cand->ops_per_sec / 1e6, 2) + " M/s",
                  FormatDouble(delta_pct, 1) + " %",
                  regressed ? "FAIL" : (gated ? "ok" : "-")});
    if (regressed) {
      failures->push_back("REGRESSION " + base.name + ": " + FormatDouble(-delta_pct, 1) +
                          "% slower (baseline " +
                          FormatDouble(base.ops_per_sec / 1e6, 2) + " M/s -> candidate " +
                          FormatDouble(cand->ops_per_sec / 1e6, 2) + " M/s, threshold " +
                          FormatDouble(threshold_pct, 1) + "%)");
    }
  }
  std::printf("%s", table.ToString().c_str());
}

// One row of the gate table: a document gate run after the replay check.
struct Gate {
  const char* tag;  // Failure lines print as "bench_compare: <tag> <failure>".
  bool enabled;
  std::function<GateResult()> evaluate;
  std::string pass_line;
  const char* not_applicable_line;
};

// One "git <sha> (<build>, <N> host threads)" provenance line per document,
// printed with the failure block so CI logs are self-contained.
void PrintProvenance(const char* who, const std::string& path, const BenchReport& report) {
  std::fprintf(stderr, "bench_compare: %s %s: git %s (%s, %u host threads)\n", who,
               path.c_str(), report.git_sha.c_str(), report.build_type.c_str(),
               report.host_threads);
}

// "<doc minus a trailing .json>" — the sidecar naming convention shared with
// bench/perf_harness.
std::string SidecarBase(const std::string& path) {
  constexpr std::string_view kJsonSuffix = ".json";
  if (path.size() > kJsonSuffix.size() &&
      path.compare(path.size() - kJsonSuffix.size(), kJsonSuffix.size(), kJsonSuffix) == 0) {
    return path.substr(0, path.size() - kJsonSuffix.size());
  }
  return path;
}

// Failure attribution: diffs the profile and timeseries sidecars shipped
// alongside the two bench documents and prints the top-3 suspects ranked by
// |delta| across both, with absolute values. Missing sidecars are noted, not
// errors — older baselines predate them.
void PrintSuspects(const std::string& baseline_path, const std::string& candidate_path) {
  std::vector<DiffFinding> suspects;
  for (const char* suffix : {".profile.json", ".timeseries.jsonl"}) {
    const std::string base_sidecar = SidecarBase(baseline_path) + suffix;
    const std::string cand_sidecar = SidecarBase(candidate_path) + suffix;
    std::error_code ec;
    if (!std::filesystem::exists(base_sidecar, ec) ||
        !std::filesystem::exists(cand_sidecar, ec)) {
      std::fprintf(stderr, "bench_compare: note: no %s sidecars to attribute with\n",
                   suffix + 1);
      continue;
    }
    Result<DiffReport> diffed = DiffDocumentFiles(base_sidecar, cand_sidecar);
    if (!diffed.ok()) {
      std::fprintf(stderr, "bench_compare: note: sidecar diff failed: %s\n",
                   diffed.status().ToString().c_str());
      continue;
    }
    suspects.insert(suspects.end(), diffed->findings.begin(), diffed->findings.end());
  }
  if (suspects.empty()) {
    return;
  }
  std::sort(suspects.begin(), suspects.end(), [](const DiffFinding& a, const DiffFinding& b) {
    const double da = std::abs(a.delta_pct);
    const double db = std::abs(b.delta_pct);
    if (da != db) {
      return da > db;
    }
    if (a.name != b.name) {
      return a.name < b.name;
    }
    return a.metric < b.metric;
  });
  constexpr std::size_t kTopSuspects = 3;
  if (suspects.size() > kTopSuspects) {
    suspects.resize(kTopSuspects);
  }
  for (const DiffFinding& suspect : suspects) {
    std::fprintf(stderr, "bench_compare: SUSPECT %s\n",
                 FormatDiffFindingLine(suspect).c_str());
  }
}

int Run(int argc, char** argv) {
  double threshold_pct = 10.0;
  ScalingGateOptions scaling;
  bool scaling_gate_enabled = true;
  ObsGateOptions obs;
  bool obs_gate_enabled = true;
  ServeGateOptions serve;
  bool serve_gate_enabled = true;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold_pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--scaling-floor") == 0 && i + 1 < argc) {
      scaling.efficiency_floor = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--mono-tolerance") == 0 && i + 1 < argc) {
      scaling.monotonicity_tolerance = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--no-scaling-gate") == 0) {
      scaling_gate_enabled = false;
    } else if (std::strcmp(argv[i], "--obs-overhead") == 0 && i + 1 < argc) {
      obs.max_overhead = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--no-obs-gate") == 0) {
      obs_gate_enabled = false;
    } else if (std::strcmp(argv[i], "--serve-p99-slack") == 0 && i + 1 < argc) {
      serve.max_p99_regression = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--no-serve-gate") == 0) {
      serve_gate_enabled = false;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CANDIDATE.json"
                 " [--threshold PCT] [--scaling-floor F] [--mono-tolerance F]"
                 " [--no-scaling-gate] [--obs-overhead F] [--no-obs-gate]"
                 " [--serve-p99-slack F] [--no-serve-gate]\n"
                 "       bench_compare DOC.json [--scaling-floor F]"
                 " [--mono-tolerance F] [--obs-overhead F] [--no-obs-gate]"
                 " [--serve-p99-slack F] [--no-serve-gate]\n");
    return 2;
  }

  std::vector<std::string> failures;
  std::optional<BenchReport> baseline;
  std::optional<BenchReport> candidate;
  if (paths.size() == 2) {
    baseline = LoadReport(paths[0]);
    candidate = LoadReport(paths[1]);
    if (!baseline.has_value() || !candidate.has_value()) {
      return 2;
    }
    CheckReplayRegressions(*baseline, *candidate, threshold_pct, &failures);
    if (failures.empty()) {
      std::printf("bench_compare: no replay series regressed more than %s%%\n",
                  FormatDouble(threshold_pct, 1).c_str());
    }
  } else {
    candidate = LoadReport(paths[0]);
    if (!candidate.has_value()) {
      return 2;
    }
  }

  const Gate gates[] = {
      {"SCALING", scaling_gate_enabled, [&] { return EvaluateScalingGate(*candidate, scaling); },
       "scaling gate passed (floor " + FormatDouble(scaling.efficiency_floor, 2) +
           ", monotonicity tolerance " + FormatDouble(scaling.monotonicity_tolerance, 2) + ")",
       "scaling gate not applicable (no sweep series)"},
      {"OBS", obs_gate_enabled, [&] { return EvaluateObsGate(*candidate, obs); },
       "obs gate passed (overhead ceiling " + FormatDouble(obs.max_overhead, 2) + ")",
       "obs gate not applicable (no bounded-metrics series)"},
      {"SERVE", serve_gate_enabled,
       [&] {
         return EvaluateServeGate(*candidate, baseline.has_value() ? &*baseline : nullptr,
                                  serve);
       },
       "serve gate passed (p99 slack " + FormatDouble(serve.max_p99_regression, 2) + ")",
       "serve gate not applicable (no serve series)"},
  };
  for (const Gate& gate : gates) {
    if (!gate.enabled) {
      continue;
    }
    const GateResult result = gate.evaluate();
    for (const std::string& note : result.notes) {
      std::printf("bench_compare: note: %s\n", note.c_str());
    }
    if (!result.applicable) {
      std::printf("bench_compare: %s\n", gate.not_applicable_line);
    } else if (result.passed) {
      std::printf("bench_compare: %s\n", gate.pass_line.c_str());
    } else {
      for (const std::string& failure : result.failures) {
        failures.push_back(std::string(gate.tag) + " " + failure);
      }
    }
  }

  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "bench_compare: %s\n", failure.c_str());
    }
    // Forensics for the failure block: whose builds were compared, and —
    // when both runs shipped sidecars — which spans/windows moved.
    if (baseline.has_value()) {
      PrintProvenance("baseline", paths[0], *baseline);
      PrintProvenance("candidate", paths[1], *candidate);
      PrintSuspects(paths[0], paths[1]);
    } else {
      PrintProvenance("candidate", paths[0], *candidate);
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace coopfs

int main(int argc, char** argv) { return coopfs::Run(argc, argv); }
