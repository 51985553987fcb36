// manytiers_perfbench: one measurement session of one benchmark
// workload. run.py builds this binary, runs one or more sessions per
// workload and turns their result objects into the benchmark's metrics.
//
//   manytiers_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--cold-only]
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

void JsonObject::num(std::string_view k, double value) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
}

void JsonObject::integer(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObject::nums(std::string_view k, const std::vector<double>& values) {
  key(k);
  body_ += '[';
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body_ += ',';
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    body_ += buf;
  }
  body_ += ']';
}

std::uint64_t SpanRecorder::begin(std::string name, std::uint64_t parent) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = now;
}

void SpanRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_ms_by_name()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::size_t c : children[i]) {
      const auto lo = std::max(spans_[c].start, span.start);
      const auto hi = std::min(spans_[c].end, span.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    Clock::duration covered{0};
    Clock::time_point reach = span.start;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    by_name[span.name] +=
        std::chrono::duration<double, std::milli>(span.end - span.start -
                                                  covered)
            .count();
  }
  return {by_name.begin(), by_name.end()};
}

double self_ms(const std::vector<std::pair<std::string, double>>& by_name,
               std::string_view name) {
  for (const auto& [n, ms] : by_name) {
    if (n == name) return ms;
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload grid_costmodels|grid_alpha_sweep|serve_quotes|"
               "serve_reload --seed N --seconds S --trace 0|1 [--cold-only]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        config.trace = v == "1";
      } else if (arg == "--cold-only") {
        config.cold_only = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (!(config.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  try {
    if (config.workload == "grid_costmodels" ||
        config.workload == "grid_alpha_sweep") {
      return perfbench::run_grid_workload(config);
    }
    if (config.workload == "serve_quotes" ||
        config.workload == "serve_reload") {
      return perfbench::run_serve_workload(config);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown workload \"" << config.workload << "\"\n";
  return usage(argv[0]);
}
