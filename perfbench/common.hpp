// Shared pieces of the repository benchmark: clocks, percentiles,
// process resource usage, a flat JSON result writer, and the span
// recorder the traced runs use.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions; the library's internal tracer stays off.
// Each span has a name, start, end and the id of the span that caused
// it. A layer's self time is its spans' durations minus the part of each
// interval its child spans cover.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "pricing/counterfactual.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process CPU time (user + system) in seconds.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
         double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

// CPU time of the calling thread, in seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Linear-interpolated percentile of an ascending sample; p in [0, 1].
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * double(sorted.size() - 1);
  const auto lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - double(lo)) * (sorted[hi] - sorted[lo]);
}

inline double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

inline std::atomic<std::uint64_t> spin_sink{0};  // keeps the spin loops

// Keep `threads` cores busy for `seconds` before a timed segment. On a
// virtualized host, work that suddenly needs several cores after an
// idle spell runs up to 4x slower for about a second while the host
// schedules the idle vCPUs back in (measured on a 4-vCPU VM: a 3-thread
// integer loop takes 935 ms, then 430, then a steady 300; one thread
// shows no ramp). Without this the first multi-threaded timing of a run
// measures the host, not the program.
inline void warm_up_cpus(std::size_t threads, double seconds) {
  std::vector<std::thread> spinners;
  for (std::size_t t = 0; t < threads; ++t) {
    spinners.emplace_back([seconds] {
      const auto until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
      std::uint64_t x = 1;
      while (Clock::now() < until) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
      }
      spin_sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& s : spinners) s.join();
}

// 64-bit FNV-1a: a cheap fingerprint for byte-identity checks between
// processes (reports are compared by fingerprint across sessions).
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// One flat JSON object, written in insertion order. Numbers keep all
// their digits (%.17g); the result line is parsed by run.py.
class JsonObject {
 public:
  void num(std::string_view key, double value);
  void integer(std::string_view key, std::uint64_t value);
  void nums(std::string_view key, const std::vector<double>& values);
  std::string text() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

// In-memory span store. Thread-safe; each thread appends under one
// mutex, which is fine at the granularity the benchmark records (calls
// into a layer, not instructions).
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  // Open a span; returns its id. Close it with end(id).
  std::uint64_t begin(std::string name, std::uint64_t parent);
  void end(std::uint64_t id);
  void clear();

  // Self time per span name, in milliseconds, summed over every span of
  // that name: duration minus the union of its direct children's
  // intervals (clipped to the parent).
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name,
             std::uint64_t parent = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->begin(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

// Look up a name in self_ms_by_name() output; 0 when absent.
double self_ms(const std::vector<std::pair<std::string, double>>& by_name,
               std::string_view name);

// One strategy's capture series at 1..max_bundles tiers, computed as
// pricing::capture_series does, with a span around bundling_series
// ("bundling.series.optimal" / ".heuristic") and one around pricing the
// bundlings ("pricing.price"). Both traced rebuilds (run_grid and the
// serve snapshot) use it.
std::vector<double> traced_capture_series(
    const manytiers::pricing::Market& market,
    manytiers::pricing::Strategy strategy, std::size_t max_bundles,
    SpanRecorder& spans, std::uint64_t parent);

// The options every workload receives from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool cold_only = false;  // grid set-up sessions: one cold repetition
};

// Workload entry points. Each prints one result object (see
// JsonObject) as the last line of stdout and returns the exit code.
int run_grid_workload(const RunConfig& config);
int run_serve_workload(const RunConfig& config);

}  // namespace perfbench
