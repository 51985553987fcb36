// Grid workloads: a named batch grid evaluated by driver::run_grid and
// rendered by driver::write_report, repeated for the session's time.
//
//   grid_costmodels   costmodels grid, n_flows = 2000, 3 workers
//   grid_alpha_sweep  alpha-sweep grid, n_flows = 100000, 3 workers
//
// Untraced session: the first repetition is the cold set-up sample;
// every later one is a warm sample of wall and process CPU time. Every
// repetition's report (timing fields off) must be byte-identical.
//
// Traced session: warm run_grid repetitions alternate with a rebuild of
// the same evaluation from the public calls (generate, cost model,
// calibrate, bundling_series, price_bundles/profit_capture, write),
// spans around each call. The rebuild's report must equal run_grid's
// byte for byte; the registry counts must repeat exactly.
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "driver/grid.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "obs/registry.hpp"
#include "pricing/counterfactual.hpp"
#include "pricing/engine.hpp"
#include "util/parallel.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

namespace driver = manytiers::driver;
namespace pricing = manytiers::pricing;
namespace workload = manytiers::workload;
namespace obs = manytiers::obs;

constexpr std::size_t kWorkers = 3;
constexpr double kWarmUpSeconds = 1.2;  // see warm_up_cpus

driver::ExperimentGrid workload_grid(const RunConfig& config) {
  driver::ExperimentGrid grid;
  if (config.workload == "grid_costmodels") {
    grid = driver::costmodels_grid();
    grid.base.n_flows = 2000;
  } else {
    grid = driver::alpha_sweep_grid();
    grid.base.n_flows = 100000;
  }
  grid.base.seed = config.seed;
  return grid;
}

struct Timed {
  std::string report;  // write_report output, timing fields off
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// The measured operation: run_grid + write_report.
Timed timed_run_grid(const driver::ExperimentGrid& grid) {
  driver::RunOptions options;
  options.threads = kWorkers;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const driver::BatchReport report = driver::run_grid(grid, options);
  std::ostringstream os;
  driver::write_report(os, report, /*include_timing=*/false);
  Timed out;
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.report = os.str();
  return out;
}

// run_grid rebuilt from the public calls with a span around each one.
// Mirrors driver/runner.cpp (task order, market dedup, envelope fold)
// so the report is byte-identical to run_grid's.
std::string traced_run_grid(const driver::ExperimentGrid& grid,
                            SpanRecorder& spans) {
  const ScopedSpan root(&spans, "driver.run_grid");
  const auto cells = driver::enumerate_cells(grid);
  const std::size_t n_points = driver::points_per_cell(grid);
  const std::size_t n_dem = grid.demand_kinds.size();
  const std::size_t n_cost = grid.cost_kinds.size();
  const std::size_t n_strat = grid.strategies.size();

  std::vector<workload::FlowSet> flows;
  for (const auto kind : grid.datasets) {
    const ScopedSpan span(&spans, "workload.generate", root.id());
    flows.push_back(workload::generate_dataset(
        kind, {.seed = grid.base.seed, .n_flows = grid.base.n_flows}));
  }
  std::vector<std::unique_ptr<manytiers::cost::CostModel>> cost_models;
  for (const auto kind : grid.cost_kinds) {
    cost_models.push_back(driver::make_cost_model(kind, grid.base.theta));
  }

  struct Task {
    std::size_t cell = 0;
    std::size_t point = 0;
    std::size_t market = 0;
  };
  std::vector<Task> tasks;
  std::unordered_map<std::size_t, std::size_t> market_slot;
  std::vector<std::size_t> market_keys;
  for (std::size_t g = 0; g < cells.size() * n_points; ++g) {
    const std::size_t c = g / n_points;
    const std::size_t p = g % n_points;
    const std::size_t cost_i = (c / n_strat) % n_cost;
    const std::size_t dem_i = (c / n_strat / n_cost) % n_dem;
    const std::size_t ds_i = c / n_strat / n_cost / n_dem;
    const std::size_t key =
        ((ds_i * n_dem + dem_i) * n_cost + cost_i) * n_points + p;
    const auto [it, inserted] =
        market_slot.try_emplace(key, market_keys.size());
    if (inserted) market_keys.push_back(key);
    tasks.push_back({c, p, it->second});
  }

  std::vector<std::optional<pricing::Market>> markets(market_keys.size());
  manytiers::util::parallel_for(
      market_keys.size(),
      [&](std::size_t m) {
        const std::size_t key = market_keys[m];
        const std::size_t p = key % n_points;
        const std::size_t cost_i = (key / n_points) % n_cost;
        const std::size_t dem_i = (key / n_points / n_cost) % n_dem;
        const std::size_t ds_i = key / n_points / n_cost / n_dem;
        pricing::DemandSpec spec;
        spec.kind = grid.demand_kinds[dem_i];
        spec.alpha = grid.base.alpha;
        spec.no_purchase_share = grid.base.s0;
        double blended_price = grid.base.blended_price;
        switch (grid.sweep.kind) {
          case driver::SweepAxis::Kind::None:
            break;
          case driver::SweepAxis::Kind::Alpha:
            spec.alpha = grid.sweep.values[p];
            break;
          case driver::SweepAxis::Kind::BlendedPrice:
            blended_price = grid.sweep.values[p];
            break;
          case driver::SweepAxis::Kind::NoPurchaseShare:
            spec.no_purchase_share = grid.sweep.values[p];
            break;
        }
        const ScopedSpan span(&spans, "pricing.calibrate", root.id());
        markets[m].emplace(pricing::Market::calibrate(
            flows[ds_i], spec, *cost_models[cost_i], blended_price));
      },
      kWorkers);

  std::vector<std::vector<double>> series(tasks.size());
  manytiers::util::parallel_for(
      tasks.size(),
      [&](std::size_t t) {
        series[t] = traced_capture_series(*markets[tasks[t].market],
                                          cells[tasks[t].cell].strategy,
                                          grid.max_bundles, spans, root.id());
      },
      kWorkers);

  driver::BatchReport report;
  report.grid_name = grid.name;
  report.signature = driver::grid_signature(grid);
  report.max_bundles = grid.max_bundles;
  report.points_per_cell = n_points;
  report.threads = kWorkers;
  for (const auto& cell : cells) {
    driver::CellResult result;
    result.cell = cell;
    result.sweep = driver::empty_envelope(grid.max_bundles);
    report.cells.push_back(std::move(result));
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    auto& sweep = report.cells[tasks[t].cell].sweep;
    for (std::size_t b = 0; b < grid.max_bundles; ++b) {
      const double capture = series[t][b] + 0.0;  // as run_grid: no -0.0
      sweep.min_capture[b] = std::min(sweep.min_capture[b], capture);
      sweep.max_capture[b] = std::max(sweep.max_capture[b], capture);
    }
    ++sweep.points;
  }
  const ScopedSpan span(&spans, "driver.report_write", root.id());
  std::ostringstream os;
  driver::write_report(os, report, /*include_timing=*/false);
  return os.str();
}

// The exact counts a run_grid repetition leaves in the registry.
struct Counts {
  std::uint64_t dp_fills = 0, dp_cells = 0, dp_fastpath = 0,
                dp_fallbacks = 0, tasks = 0, markets = 0;
  bool same_dp(const Counts& o) const {
    return dp_fills == o.dp_fills && dp_cells == o.dp_cells &&
           dp_fastpath == o.dp_fastpath && dp_fallbacks == o.dp_fallbacks;
  }
};

Counts read_counts() {
  obs::Registry& r = obs::Registry::instance();
  Counts c;
  c.dp_fills = r.counter("bundling.dp_fills").value();
  c.dp_cells = r.counter("bundling.dp_cells").value();
  c.dp_fastpath = r.counter("bundling.dp_fastpath").value();
  c.dp_fallbacks = r.counter("bundling.dp_fallbacks").value();
  c.tasks = r.counter("driver.tasks").value();
  c.markets = r.counter("driver.markets_calibrated").value();
  return c;
}

int untraced_session(const RunConfig& config) {
  const driver::ExperimentGrid grid = workload_grid(config);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::vector<double> warm_wall, warm_cpu;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_report;
  double cold_wall = 0.0, last_wall = 0.0;
  warm_up_cpus(kWorkers, kWarmUpSeconds);
  do {
    const Timed rep = timed_run_grid(grid);
    ++attempted;
    if (attempted == 1) {
      first_report = rep.report;
      cold_wall = rep.wall_s;
    } else {
      if (rep.report != first_report) ++failed;
      warm_wall.push_back(rep.wall_s);
      warm_cpu.push_back(rep.cpu_s);
    }
    last_wall = rep.wall_s;
    // Start another repetition only if it should end by about half a
    // repetition past the deadline.
  } while (!config.cold_only &&
           (warm_wall.size() < 3 ||
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(0.5 * last_wall)) <
                deadline));

  JsonObject out;
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.num("cold_wall_s", cold_wall);
  out.nums("warm_wall_s", warm_wall);
  out.nums("warm_cpu_s", warm_cpu);
  out.integer("tasks", driver::enumerate_cells(grid).size() *
                           driver::points_per_cell(grid));
  out.integer("report_fnv", fnv1a(first_report));
  out.num("peak_rss_mb", peak_rss_mb());
  std::cout << out.text() << std::endl;
  return 0;
}

int traced_session(const RunConfig& config) {
  const driver::ExperimentGrid grid = workload_grid(config);
  obs::set_enabled(true);  // registry counts; the library tracer stays off
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> plain_wall, traced_wall, efficiency;
  std::map<std::string, std::vector<double>> layer_ms;
  std::optional<Counts> counts;
  std::string reference;
  std::size_t report_bytes = 0;
  SpanRecorder spans;
  warm_up_cpus(kWorkers, kWarmUpSeconds);
  for (std::size_t rep = 0;; ++rep) {
    // Untraced run_grid; the first one (cold) only sets the reference.
    obs::Registry::instance().reset();
    const Timed plain = timed_run_grid(grid);
    const Counts c = read_counts();
    ++attempted;
    if (rep == 0) {
      reference = plain.report;
      report_bytes = reference.size();
      counts = c;
    } else {
      plain_wall.push_back(plain.wall_s);
      efficiency.push_back(plain.cpu_s / (plain.wall_s * double(kWorkers)));
      if (plain.report != reference) ++failed;
    }
    if (!(c.same_dp(*counts) && c.tasks == counts->tasks &&
          c.markets == counts->markets)) {
      ++failed;
      std::cerr << "registry counts differ between repetitions\n";
    }

    // Traced rebuild from the public calls.
    obs::Registry::instance().reset();
    spans.clear();
    const auto t0 = Clock::now();
    const std::string traced = traced_run_grid(grid, spans);
    const double wall = seconds_since(t0);
    ++attempted;
    if (traced != reference) {
      ++failed;
      std::cerr << "traced rebuild's report differs from run_grid's\n";
    }
    if (!read_counts().same_dp(*counts)) {
      ++failed;
      std::cerr << "traced rebuild's DP counts differ from run_grid's\n";
    }
    if (rep == 0) continue;  // cold; keep only warm traced samples
    traced_wall.push_back(wall);
    for (const auto& [name, ms] : spans.self_ms_by_name()) {
      layer_ms[name].push_back(ms);
    }
    if (Clock::now() >= deadline && rep >= 2) break;
  }

  const double dp_runs = double(counts->dp_fastpath + counts->dp_fallbacks);
  JsonObject out;
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  const auto layer = [&](const char* span_name) {
    const auto it = layer_ms.find(span_name);
    return it == layer_ms.end() ? 0.0 : median(it->second);
  };
  out.num("workload.generate_ms", layer("workload.generate"));
  out.num("pricing.calibrate_ms", layer("pricing.calibrate"));
  out.integer("pricing.markets", counts->markets);
  out.num("bundling.series_ms.optimal", layer("bundling.series.optimal"));
  out.num("bundling.series_ms.heuristic", layer("bundling.series.heuristic"));
  out.integer("bundling.dp_fills", counts->dp_fills);
  out.integer("bundling.dp_cells", counts->dp_cells);
  out.num("bundling.dp_fastpath_ratio",
          dp_runs > 0.0 ? double(counts->dp_fastpath) / dp_runs : 0.0);
  out.num("pricing.price_ms", layer("pricing.price"));
  out.num("driver.report_write_ms", layer("driver.report_write"));
  out.integer("driver.report_bytes", report_bytes);
  out.num("driver.self_ms", layer("driver.run_grid"));
  out.num("driver.parallel_efficiency", median(efficiency));
  out.integer("driver.tasks", counts->tasks);
  out.integer("driver.markets_calibrated", counts->markets);
  out.num("driver.calib_dedup_ratio",
          double(counts->tasks) / double(counts->markets));
  out.num("obs.trace_overhead_ratio",
          median(traced_wall) / median(plain_wall) - 1.0);
  out.num("peak_rss_mb", peak_rss_mb());
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace

std::vector<double> traced_capture_series(const pricing::Market& market,
                                          pricing::Strategy strategy,
                                          std::size_t max_bundles,
                                          SpanRecorder& spans,
                                          std::uint64_t parent) {
  std::vector<manytiers::bundling::Bundling> bundlings;
  {
    const ScopedSpan span(&spans,
                          strategy == pricing::Strategy::Optimal
                              ? "bundling.series.optimal"
                              : "bundling.series.heuristic",
                          parent);
    bundlings = pricing::bundling_series(market, strategy, max_bundles);
  }
  const ScopedSpan span(&spans, "pricing.price", parent);
  std::vector<double> captures;
  for (const auto& bundling : bundlings) {
    captures.push_back(pricing::profit_capture(
        market, pricing::price_bundles(market, bundling).profit));
  }
  return captures;
}

int run_grid_workload(const RunConfig& config) {
  return config.trace ? traced_session(config) : untraced_session(config);
}

}  // namespace perfbench
