// coopbench: the coopfs benchmark driver.
//
//   coopbench --workload <replay_sprite|serve_sprite|serve_spill> --seed <n>
//             --seconds <s> --trace <0|1> [--scale full|tiny]
//             [--spans-out <path>] [--corrupt <check>]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
// (see coopbench/README.md). The last line of standard output is the JSON
// result. --corrupt feeds the named output check a deliberately
// inconsistent result; the benchmark's own tests use it to show each check
// can fail.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "coopbench/src/layers.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "coopbench: " << error
            << "\nusage: coopbench --workload <replay_sprite|serve_sprite|serve_spill> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--spans-out <path>] [--corrupt <check>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  coopbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        return Usage("unknown scale " + value);
      }
      options.tiny = value == "tiny";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--corrupt") {
      options.corrupt = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }

  coopbench::Report report(options.corrupt);
  std::vector<std::unique_ptr<coopbench::SpanRecorder>> recorders;
  if (options.workload == "replay_sprite") {
    coopbench::RunReplaySprite(options, report, recorders);
  } else if (options.workload == "serve_sprite" || options.workload == "serve_spill") {
    coopbench::RunServeWorkload(options, report, recorders);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }

  if (!options.spans_out.empty()) {
    std::vector<const coopbench::SpanRecorder*> all;
    std::size_t count = 0;
    for (const auto& recorder : recorders) {
      all.push_back(recorder.get());
      count += recorder->spans().size();
    }
    if (!coopbench::WriteSpans(options.spans_out, all)) {
      std::cerr << "coopbench: cannot write spans to " << options.spans_out << "\n";
      return 1;
    }
    std::cout << "spans " << count << " written to " << options.spans_out << "\n";
  }
  report.Print();
  return 0;
}
