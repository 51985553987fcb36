// Fill-time scaling curves for the bundling DP kernel: naive O(n^2 B)
// reference vs the divide-and-conquer O(n B log n) fast path, over a
// grid of market sizes and bundle counts for both paper objectives.
//
// Modes:
//   bench_dp_scaling                 both kernels, speedup table, and a
//                                    self-gate: exits 1 if the fast path
//                                    is not >= 3x at the largest quick
//                                    config or the kernels' tables are
//                                    not byte-identical.
//   bench_dp_scaling --kernel naive  one kernel only, kernel-free
//   bench_dp_scaling --kernel dc     BENCH_JSON names (dp_fill_ced_n...),
//                                    so tools/bench_diff.py can compare
//                                    a naive log against a dc log
//                                    key-by-key (--min-speedup gate in
//                                    tools/check.sh).
//   --full                           adds n in {50k, 100k} and B = 32;
//                                    requires >= 5x at n=50k B=10 and
//                                    adds a thread-scaling leg.
//
// The default (both-kernel) mode also fills the calibrated paper
// markets the grids run — every dataset x cost model x demand model at
// n=2000, B=6 — timing the per-flow naive fill against the merged
// (equal-cost runs as one item) auto fill. Those rows never run under
// --kernel, so the naive-vs-dc speedup gate in tools/check.sh never
// sees them: markets with m <= 3 distinct costs cannot show a D&C
// speedup, and the merge, not the kernel, is what they measure.
#include "bench_common.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bundling/dp_kernel.hpp"
#include "bundling/objectives.hpp"
#include "driver/grid.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace manytiers;

struct Instance {
  std::vector<double> v, c;
};

Instance random_instance(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  Instance inst;
  inst.v.reserve(n);
  inst.c.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.v.push_back(rng.uniform(0.5, 3.0));
    inst.c.push_back(rng.uniform(0.2, 5.0));
  }
  return inst;
}

bundling::DpKernelOptions kernel_options(bundling::DpKernel kernel,
                                         std::size_t threads = 0) {
  bundling::DpKernelOptions opt;
  opt.kernel = kernel;
  opt.threads = threads;
  return opt;
}

bool tables_identical(const bundling::DpTables& a,
                      const bundling::DpTables& b) {
  return a.n == b.n && a.b_max == b.b_max &&
         std::memcmp(a.best.data(), b.best.data(),
                     a.best.size() * sizeof(double)) == 0 &&
         std::memcmp(a.split.data(), b.split.data(),
                     a.split.size() * sizeof(std::uint32_t)) == 0;
}

// Naive fills past n=50k x B=10 (2.5e10 candidate evals, minutes of
// wall time) would run for the better part of an hour; skip the
// reference beyond that and log the omission (bench logs must not
// silently pretend the naive curve covers the full grid). The budget is
// set just above the n=50k B=10 config because that is the acceptance
// measurement for the dc kernel's >= 5x full-mode gate.
constexpr double kMaxNaiveEvals = 2.6e10;

struct Config {
  std::size_t n;
  std::size_t b;
};

// "EU ISP" -> "eu_isp", "dest-type" -> "dest_type": BENCH_JSON name parts.
std::string slug(std::string_view name) {
  std::string out;
  for (const char ch : name) {
    out += std::isalnum(static_cast<unsigned char>(ch))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(ch)))
               : '_';
  }
  return out;
}

// One calibrated market: per-flow naive fill vs merged auto fill of the
// same objective. Returns false when the two fills' optimum values at
// the top bundle count disagree beyond rounding.
template <class Objective>
bool calibrated_row(util::TextTable& table, const std::string& label,
                    const std::string& key, const Objective& merged,
                    const Objective& flat, std::size_t b) {
  const std::size_t n = flat.ps.items();
  const std::size_t m = merged.ps.items();
  const std::size_t b_merged = std::min(b, m);
  bundling::DpTables flat_tables, merged_tables;
  const double naive_ms = bench::run_timed(
      "dp_calib_" + key + "_perflow_naive", n, 1,
      [&] {
        flat_tables = bundling::fill_dp_tables(
            n, std::min(b, n), flat,
            kernel_options(bundling::DpKernel::kNaive, 1));
      },
      bench::TimingOptions{.warmup = 0, .reps = 3});
  const double merged_ms = bench::run_timed(
      "dp_calib_" + key + "_merged_auto", n, 1,
      [&] {
        merged_tables = bundling::fill_dp_tables(
            m, b_merged, merged, kernel_options(bundling::DpKernel::kAuto, 1),
            n);
      },
      bench::TimingOptions{.warmup = 1, .reps = 5});
  table.add_row({label, std::to_string(n), std::to_string(m),
                 std::string(merged_tables.decision.kernel()) + " (" +
                     merged_tables.decision.why + ")",
                 util::format_double(naive_ms, 2),
                 util::format_double(merged_ms * 1e3, 1),
                 util::format_double(merged_ms > 0.0 ? naive_ms / merged_ms
                                                     : 0.0,
                                     1)});
  const double want = flat_tables.best_at(std::min(b, n), n);
  const double got = merged_tables.best_at(b_merged, m);
  return std::abs(got - want) <= 1e-12 * std::abs(want);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  const char* forced_kernel = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      forced_kernel = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--full] [--kernel naive|dc]\n";
      return 2;
    }
  }
  const bool run_naive = forced_kernel == nullptr ||
                         std::strcmp(forced_kernel, "naive") == 0;
  const bool run_dc =
      forced_kernel == nullptr || std::strcmp(forced_kernel, "dc") == 0;
  if (!run_naive && !run_dc) {
    std::cerr << "unknown kernel '" << forced_kernel << "'\n";
    return 2;
  }

  bench::header("DP kernel scaling — naive vs divide-and-conquer fill",
                "Interval-DP table fill times over market size and bundle "
                "count for the CED and logit objectives.");

  std::vector<Config> configs{{1000, 4}, {1000, 10}, {10000, 4}, {10000, 10}};
  if (full) {
    configs.push_back({1000, 32});
    configs.push_back({10000, 32});
    for (const std::size_t n : {50000u, 100000u}) {
      for (const std::size_t b : {4u, 10u, 32u}) configs.push_back({n, b});
    }
  }

  bool ok = true;
  double speedup_quick_gate = 0.0;  // n=10000, B=10
  double speedup_full_gate = 0.0;   // n=50000, B=10 (acceptance criterion)

  for (const char* obj_name : {"ced", "logit"}) {
    const bool is_ced = std::strcmp(obj_name, "ced") == 0;
    std::cout << (is_ced ? "Constant Elasticity Demand objective:\n"
                         : "Logit Demand objective:\n");
    util::TextTable table({"n  B", "naive ms", "dc ms", "speedup"});
    for (const auto& cfg : configs) {
      const auto inst = random_instance(42 + cfg.n, cfg.n);
      const auto ced = is_ced
                           ? bundling::make_ced_objective(inst.v, inst.c, 1.6)
                           : bundling::CedObjective{};
      const auto logit =
          is_ced ? bundling::LogitObjective{}
                 : bundling::make_logit_objective(inst.v, inst.c, 1.1);

      const auto fill = [&](const bundling::DpKernelOptions& opt) {
        return is_ced
                   ? bundling::fill_dp_tables(ced.ps.items(), cfg.b, ced, opt)
                   : bundling::fill_dp_tables(logit.ps.items(), cfg.b, logit,
                                              opt);
      };

      const double naive_evals = static_cast<double>(cfg.n) *
                                 static_cast<double>(cfg.n) *
                                 static_cast<double>(cfg.b);
      const bool naive_feasible = naive_evals <= kMaxNaiveEvals;
      // Big naive fills take minutes; one rep is plenty at that scale.
      const bench::TimingOptions heavy{.warmup = 0, .reps = 1};
      const bench::TimingOptions light{.warmup = 1, .reps = 3};
      const std::string suffix = std::string("_") + obj_name + "_n" +
                                 std::to_string(cfg.n) + "_b" +
                                 std::to_string(cfg.b);
      // Forced single-kernel runs use kernel-free names so naive and dc
      // logs share keys for bench_diff.py.
      const bool suffix_kernel = forced_kernel == nullptr;

      double naive_ms = 0.0;
      double dc_ms = 0.0;
      bundling::DpTables naive_tables, dc_tables;
      if (run_naive) {
        if (!naive_feasible) {
          std::cout << "  n=" << cfg.n << " B=" << cfg.b
                    << ": naive skipped (" << naive_evals
                    << " evals exceeds budget)\n";
        } else {
          naive_ms = bench::run_timed(
              std::string("dp_fill") + suffix +
                  (suffix_kernel ? "_naive" : ""),
              cfg.n, 1,
              [&] {
                naive_tables =
                    fill(kernel_options(bundling::DpKernel::kNaive, 1));
              },
              naive_evals > 1e9 ? heavy : light);
        }
      }
      if (run_dc) {
        dc_ms = bench::run_timed(
            std::string("dp_fill") + suffix + (suffix_kernel ? "_dc" : ""),
            cfg.n, 1,
            [&] {
              dc_tables =
                  fill(kernel_options(bundling::DpKernel::kDivideConquer, 1));
            },
            light);
      }

      if (run_naive && run_dc && naive_feasible) {
        if (!tables_identical(naive_tables, dc_tables)) {
          std::cout << "  ERROR: kernel outputs differ at n=" << cfg.n
                    << " B=" << cfg.b << " (" << obj_name << ")\n";
          ok = false;
        }
        const double speedup = dc_ms > 0.0 ? naive_ms / dc_ms : 0.0;
        table.add_row(std::to_string(cfg.n) + "  " + std::to_string(cfg.b),
                      {naive_ms, dc_ms, speedup}, 2);
        if (is_ced && cfg.n == 10000 && cfg.b == 10) {
          speedup_quick_gate = speedup;
        }
        if (is_ced && cfg.n == 50000 && cfg.b == 10) {
          speedup_full_gate = speedup;
        }
      } else if (run_dc) {
        table.add_row(std::to_string(cfg.n) + "  " + std::to_string(cfg.b),
                      {naive_ms, dc_ms, 0.0}, 2);
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (run_naive && run_dc) {
    constexpr std::size_t kCalibratedFlows = 2000;
    constexpr std::size_t kCalibratedBundles = 6;
    std::cout << "Calibrated paper markets (n=" << kCalibratedFlows
              << " per dataset, B=" << kCalibratedBundles
              << "): per-flow naive fill vs merged auto fill\n";
    util::TextTable table({"market", "n", "m", "kernel (why)",
                           "per-flow naive ms", "merged auto us", "speedup"});
    const bench::Defaults d{.n_flows = kCalibratedFlows};
    for (const auto dataset : {workload::DatasetKind::EuIsp,
                               workload::DatasetKind::Internet2,
                               workload::DatasetKind::Cdn}) {
      const auto flows = bench::dataset(dataset, d);
      for (const auto cost_kind :
           {driver::CostKind::Linear, driver::CostKind::Concave,
            driver::CostKind::Regional, driver::CostKind::DestType}) {
        const auto cost = driver::make_cost_model(cost_kind, d.theta);
        for (const auto demand_kind : {demand::DemandKind::ConstantElasticity,
                                       demand::DemandKind::Logit}) {
          const auto m = bench::market(flows, demand_kind, *cost, d);
          const bool is_ced =
              demand_kind == demand::DemandKind::ConstantElasticity;
          const std::string demand = is_ced ? "ced" : "logit";
          const std::string label = std::string(workload::to_string(dataset)) +
                                    "/" + demand + "/" +
                                    std::string(driver::to_string(cost_kind));
          const std::string key =
              slug(workload::to_string(dataset)) + "_" +
              slug(driver::to_string(cost_kind)) + "_" + demand + "_n" +
              std::to_string(kCalibratedFlows) + "_b" +
              std::to_string(kCalibratedBundles);
          const auto& v = m.valuations();
          const auto& c = m.costs();
          const double alpha = m.demand_spec().alpha;
          const bool agree =
              is_ced ? calibrated_row(table, label, key,
                                      bundling::make_ced_objective(v, c, alpha),
                                      bundling::make_ced_objective(
                                          v, c, alpha, /*merge_ties=*/false),
                                      kCalibratedBundles)
                     : calibrated_row(
                           table, label, key,
                           bundling::make_logit_objective(v, c, alpha),
                           bundling::make_logit_objective(
                               v, c, alpha, /*merge_ties=*/false),
                           kCalibratedBundles);
          if (!agree) {
            std::cout << "  ERROR: merged and per-flow optima differ on "
                      << label << "\n";
            ok = false;
          }
        }
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // Thread-scaling leg: rows at n >= 50k cross the parallel threshold,
  // so the dc fill should gain from extra workers while remaining
  // bit-identical (asserted by ctest; here we just report the curve).
  if (full && run_dc) {
    std::cout << "Thread scaling (dc kernel, CED, B=10):\n";
    const std::size_t hw = util::default_thread_count();
    for (const std::size_t n : {50000u, 100000u}) {
      const auto inst = random_instance(42 + n, n);
      const auto obj = bundling::make_ced_objective(inst.v, inst.c, 1.6);
      double base_ms = 0.0;
      std::vector<std::size_t> leg_threads{1};
      if (hw != 1) leg_threads.push_back(hw);
      for (const std::size_t threads : leg_threads) {
        const double ms = bench::run_timed(
            "dp_fill_threads_ced_n" + std::to_string(n) + "_b10", n, threads,
            [&] {
              bundling::fill_dp_tables(
                  obj.ps.items(), std::size_t{10}, obj,
                  kernel_options(bundling::DpKernel::kDivideConquer, threads));
            },
            bench::TimingOptions{.warmup = 1, .reps = 3});
        if (threads == 1) base_ms = ms;
        std::cout << "  n=" << n << " threads=" << threads << ": "
                  << util::format_double(ms, 2) << " ms"
                  << (threads > 1 && ms > 0.0
                          ? "  (speedup " +
                                util::format_double(base_ms / ms, 2) + "x)"
                          : "")
                  << '\n';
      }
    }
    std::cout << '\n';
  }

  if (run_naive && run_dc) {
    std::cout << "Gate: speedup at n=10000 B=10 (CED) = "
              << util::format_double(speedup_quick_gate, 2)
              << "x (require >= 3x)\n";
    if (speedup_quick_gate < 3.0) ok = false;
    if (full) {
      std::cout << "Gate: speedup at n=50000 B=10 (CED) = "
                << util::format_double(speedup_full_gate, 2)
                << "x (require >= 5x)\n";
      if (speedup_full_gate < 5.0) ok = false;
    }
    std::cout << (ok ? "All kernel outputs byte-identical; speedup gates "
                       "passed.\n"
                     : "ERROR: gate failure (see above).\n");
  }
  return ok ? 0 : 1;
}
