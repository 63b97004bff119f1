// Shared plumbing of the coopfs benchmark: options, the metric/check report,
// in-memory spans, the timing EventSource decorator, and small statistics.
//
// Everything here sits outside the program: the benchmark times the public
// calls of each coopfs layer and reads the counters they return. Nothing in
// src/ is instrumented.
#ifndef COOPBENCH_SRC_BENCH_UTIL_H_
#define COOPBENCH_SRC_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/trace/event_source.h"

namespace coopbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::int64_t ElapsedNs(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // "full" runs the documented sizes; "tiny" shrinks every input so the
  // benchmark's own tests finish in seconds.
  bool tiny = false;
  // Name of one output check to feed a deliberately inconsistent result
  // (tests of the checks themselves); empty in real runs.
  std::string corrupt;
  // Where the traced run writes its spans; empty = keep them in memory only.
  std::string spans_out;
};

// Collects metrics and output checks, and prints them: one human-readable
// line per metric and failed check, then the one-line JSON result.
class Report {
 public:
  explicit Report(std::string corrupt) : corrupt_(std::move(corrupt)) {}

  void Metric(std::string name, double value, std::string unit);

  // Records one output check. Returns `ok`.
  bool Check(std::string_view check, bool ok, const std::string& detail);

  // True when `check` is the one this run must feed a corrupted result.
  bool Corrupting(std::string_view check) const { return corrupt_ == check; }

  void AddAttempted(std::uint64_t operations) { attempted_ += operations; }

  // Prints every metric, the error rate, and the final JSON line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string corrupt_;
  std::vector<Entry> metrics_;
  std::uint64_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// One timed interval. Spans of one request share `request`; `parent` is the
// id of the enclosing span (0 for roots). Names are string literals.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Append-only span store for one thread. Ids are unique across recorders
// (the recorder index sits in the top bits).
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint32_t index = 0) : index_(index) {}

  // Opens a span now and returns its id; Close(id) ends it.
  std::uint64_t Open(const char* name, std::uint64_t request, std::uint64_t parent);
  void Close(std::uint64_t id);

  // Adds an already-timed span.
  std::uint64_t Add(const char* name, std::uint64_t request, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t index_;
  std::vector<Span> spans_;
};

// Writes all spans as one JSON document ({"spans": [...]}). Returns false
// if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<const SpanRecorder*>& recorders);

// Timing decorator over a workload EventSource: counts the events it hands
// out and the wall time spent producing them (trace.gen_s), and, when given
// a recorder, records one span per chunk under `parent_span`.
class TimedEventSource final : public coopfs::EventSource {
 public:
  explicit TimedEventSource(coopfs::EventSource& inner) : inner_(inner) {}

  void Reset() override;
  std::size_t NextChunk(std::span<coopfs::TraceEvent> out) override;
  std::optional<std::uint64_t> SizeHint() const override { return inner_.SizeHint(); }
  std::uint32_t NumClientsHint() const override { return inner_.NumClientsHint(); }

  void RecordSpans(SpanRecorder* recorder, std::uint64_t parent_span) {
    recorder_ = recorder;
    parent_span_ = parent_span;
  }
  // When set, every Reset and NextChunk appends its start and end time. The
  // marks cut a consumer's run into pieces that do identical work on every
  // replay of the same source.
  void RecordMarks(std::vector<Clock::time_point>* marks) { marks_ = marks; }
  double busy_s() const { return busy_s_; }
  std::uint64_t events() const { return events_; }

 private:
  coopfs::EventSource& inner_;
  SpanRecorder* recorder_ = nullptr;
  std::uint64_t parent_span_ = 0;
  std::vector<Clock::time_point>* marks_ = nullptr;
  double busy_s_ = 0.0;
  std::uint64_t events_ = 0;
};

// Quantile `q` of `samples` in nanoseconds, returned in microseconds
// (nearest rank, ties spread over their nanosecond; reorders the vector).
// 0 for an empty vector.
double QuantileUs(std::vector<std::uint32_t>& samples, double q);

double Median(std::vector<double> values);

// Saturating nanosecond duration for the per-call sample vectors.
inline std::uint32_t ClampNs(std::int64_t ns) {
  return ns < 0 ? 0u : ns > 0xffffffffll ? 0xffffffffu : static_cast<std::uint32_t>(ns);
}

// Pins the calling thread to CPU `index` modulo the CPU count, so it does
// not migrate mid-measurement. Best effort: failure leaves it unpinned.
void PinThread(unsigned index);

// Peak resident set size of this process, in MiB.
double PeakRssMiB();

}  // namespace coopbench

#endif  // COOPBENCH_SRC_BENCH_UTIL_H_
