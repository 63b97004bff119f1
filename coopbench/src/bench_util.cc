#include "coopbench/src/bench_util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

namespace coopbench {

namespace {

// Shortest decimal form that reads back as the same double.
std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

void Report::Metric(std::string name, double value, std::string unit) {
  metrics_.push_back(Entry{std::move(name), value, std::move(unit)});
}

bool Report::Check(std::string_view check, bool ok, const std::string& detail) {
  ++checks_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED [" << check << "]: " << detail << "\n";
  }
  return ok;
}

void Report::Print() const {
  for (const Entry& entry : metrics_) {
    std::cout << "metric " << entry.name << " = " << FormatNumber(entry.value) << " "
              << entry.unit << "\n";
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  std::cout << "checks " << checks_ << " run, " << failed_ << " failed\n";
  std::cout << "error_rate = " << FormatNumber(static_cast<double>(failed_) /
                                               static_cast<double>(attempted))
            << " (" << failed_ << " failed checks / " << attempted
            << " operations attempted)\n";
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json += i == 0 ? "" : ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + FormatNumber(metrics_[i].value) +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

std::uint64_t SpanRecorder::Open(const char* name, std::uint64_t request,
                                 std::uint64_t parent) {
  Span span;
  span.name = name;
  span.id = (static_cast<std::uint64_t>(index_) << 40) | (spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::Close(std::uint64_t id) {
  spans_[(id & ((1ull << 40) - 1)) - 1].end_ns = NowNs();
}

std::uint64_t SpanRecorder::Add(const char* name, std::uint64_t request, std::uint64_t parent,
                                Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = Open(name, request, parent);
  spans_.back().start_ns = ToNs(start);
  spans_.back().end_ns = ToNs(end);
  return id;
}

bool WriteSpans(const std::string& path, const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"schema\": \"coopbench.spans/v1\", \"spans\": [";
  bool first = true;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& span : recorder->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
          << ", \"parent\": " << span.parent << ", \"request\": " << span.request
          << ", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void TimedEventSource::Reset() {
  const Clock::time_point start = Clock::now();
  inner_.Reset();
  const Clock::time_point end = Clock::now();
  busy_s_ += std::chrono::duration<double>(end - start).count();
  if (marks_ != nullptr) {
    marks_->push_back(start);
    marks_->push_back(end);
  }
}

std::size_t TimedEventSource::NextChunk(std::span<coopfs::TraceEvent> out) {
  const Clock::time_point start = Clock::now();
  const std::size_t n = inner_.NextChunk(out);
  const Clock::time_point end = Clock::now();
  busy_s_ += std::chrono::duration<double>(end - start).count();
  events_ += n;
  if (marks_ != nullptr) {
    marks_->push_back(start);
    marks_->push_back(end);
  }
  if (recorder_ != nullptr) {
    recorder_->Add("trace.next_chunk", 0, parent_span_, start, end);
  }
  return n;
}

double QuantileUs(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t n = samples.size();
  const std::size_t rank = std::min(n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(samples.begin(), nth, samples.end());
  const std::uint32_t value = *nth;
  // Nanosecond timings tie heavily around the median; spread each run of
  // equal values uniformly over [value - 0.5, value + 0.5) ns so the
  // quantile moves continuously with the distribution.
  const auto below = static_cast<double>(std::count(samples.begin(), nth, value));
  const auto ties = below + static_cast<double>(std::count(nth, samples.end(), value));
  return (static_cast<double>(value) - 0.5 + (below + 0.5) / ties) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void PinThread(unsigned index) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(index % std::max(1u, std::thread::hardware_concurrency()), &cpus);
  pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

}  // namespace coopbench
