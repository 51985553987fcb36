// Cross-checks for the layered DP kernel (bundling/dp_kernel.hpp): the
// divide-and-conquer fast path, the parallel row fills, and the flat
// uint32-split tables must all be bit-identical to the naive reference
// fill — best AND split tables, compared as raw bytes, plus the
// extracted Bundlings — on seeded random markets and on adversarial tie
// instances. A synthetic non-monotone objective must trip the probe and
// take the (counted) fallback path. On the calibrated paper markets the
// grids run, the merged fill (equal-cost runs as single items) is held
// to the per-flow naive fill as the oracle.
#include "bundling/dp_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bundling/objectives.hpp"
#include "bundling/optimal.hpp"
#include "cost/cost.hpp"
#include "obs/registry.hpp"
#include "pricing/engine.hpp"
#include "pricing/scenario.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace manytiers::bundling {
namespace {

struct RandomInstance {
  std::vector<double> v, c;
};

RandomInstance random_instance(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  RandomInstance inst;
  for (std::size_t i = 0; i < n; ++i) {
    inst.v.push_back(rng.uniform(0.5, 3.0));
    inst.c.push_back(rng.uniform(0.2, 5.0));
  }
  return inst;
}

// Bitwise table comparison: memcmp catches -0.0 vs 0.0 and NaN-pattern
// differences that operator== would wave through.
void expect_tables_identical(const DpTables& a, const DpTables& b,
                             const char* label) {
  ASSERT_EQ(a.n, b.n) << label;
  ASSERT_EQ(a.b_max, b.b_max) << label;
  ASSERT_EQ(a.best.size(), b.best.size()) << label;
  ASSERT_EQ(a.split.size(), b.split.size()) << label;
  EXPECT_EQ(0, std::memcmp(a.best.data(), b.best.data(),
                           a.best.size() * sizeof(double)))
      << label << ": best tables differ";
  EXPECT_EQ(0, std::memcmp(a.split.data(), b.split.data(),
                           a.split.size() * sizeof(std::uint32_t)))
      << label << ": split tables differ";
}

// Fills over the objective's DP items (one per run of equal-cost
// flows), so the item count, not the flow count, sizes the tables.
template <class Objective>
void cross_check(const Objective& obj, std::size_t b_max, const char* label) {
  const std::size_t items = obj.ps.items();
  b_max = std::min(b_max, items);
  DpKernelOptions naive;
  naive.kernel = DpKernel::kNaive;
  DpKernelOptions autok;
  autok.kernel = DpKernel::kAuto;
  const auto ref = fill_dp_tables(items, b_max, obj, naive);
  const auto fast = fill_dp_tables(items, b_max, obj, autok);
  expect_tables_identical(ref, fast, label);
  for (std::size_t b = 1; b <= b_max; ++b) {
    EXPECT_EQ(extract_dp_bundling(ref, obj.ps.order, b, obj.ps.runs),
              extract_dp_bundling(fast, obj.ps.order, b, obj.ps.runs))
        << label << " b=" << b;
  }
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(DpKernelCrossCheck, CedSeededRandomMarkets) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::size_t n : {16u, 40u, 300u}) {
      const auto inst = random_instance(seed, n);
      const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
      ASSERT_EQ(obj.ps.items(), n);  // continuous costs: no ties
      fast.reset();
      cross_check(obj, std::min<std::size_t>(8, n), "ced");
      // The real CED objective is totally monotone: the probe must have
      // let the divide-and-conquer path run (one auto fill above).
      EXPECT_EQ(fast.value(), 1u) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(DpKernelCrossCheck, LogitSeededRandomMarkets) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    for (const std::size_t n : {25u, 120u, 300u}) {
      const auto inst = random_instance(seed + 100, n);
      const auto obj = make_logit_objective(inst.v, inst.c, 1.2);
      ASSERT_EQ(obj.ps.items(), n);
      fast.reset();
      cross_check(obj, std::min<std::size_t>(6, n), "logit");
      EXPECT_EQ(fast.value(), 1u) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(DpKernelCrossCheck, EqualCostTies) {
  // Every flow at the same unit cost: the merged objective has a single
  // item. Scored per flow, segment values tie all over the table;
  // whatever path auto takes there (ulp-level probe violations may
  // legitimately force the fallback), the tables must match the naive
  // reference exactly — lowest-split-wins everywhere.
  const std::size_t n = 64;
  std::vector<double> v, c;
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(rng.uniform(0.5, 3.0));
    c.push_back(2.5);
  }
  const auto ced = make_ced_objective(v, c, 1.5);
  ASSERT_EQ(ced.ps.items(), 1u);
  cross_check(ced, 8, "ced equal costs");
  cross_check(make_ced_objective(v, c, 1.5, /*merge_ties=*/false), 8,
              "ced equal costs, per flow");
  const auto logit = make_logit_objective(v, c, 1.1);
  ASSERT_EQ(logit.ps.items(), 1u);
  cross_check(logit, 8, "logit equal costs");
  cross_check(make_logit_objective(v, c, 1.1, /*merge_ties=*/false), 8,
              "logit equal costs, per flow");
}

TEST(DpKernelCrossCheck, EqualCostRunsMergeIntoItems) {
  // Three cost levels: the DP sees three items whose prefix sums are
  // bitwise the per-flow sums at each run end, and every extracted
  // bundle is a union of whole runs.
  const std::vector<double> v{1.0, 2.0, 1.5, 0.7, 2.2, 1.1, 0.9};
  const std::vector<double> c{3.0, 1.0, 3.0, 2.0, 1.0, 2.0, 3.0};
  const auto ced = make_ced_objective(v, c, 1.8);
  EXPECT_EQ(ced.ps.runs, (std::vector<std::size_t>{0, 2, 4, 7}));
  const auto flat = make_ced_objective(v, c, 1.8, /*merge_ties=*/false);
  EXPECT_EQ(flat.ps.items(), v.size());
  for (std::size_t r = 0; r < ced.ps.runs.size(); ++r) {
    EXPECT_EQ(ced.ps.w[r], flat.ps.w[ced.ps.runs[r]]) << "r=" << r;
    EXPECT_EQ(ced.ps.wc[r], flat.ps.wc[ced.ps.runs[r]]) << "r=" << r;
  }
  cross_check(ced, 3, "ced three runs");
  const auto t = fill_dp_tables(ced.ps.items(), std::size_t{3}, ced);
  // More bundles than items repeats the all-items optimum.
  EXPECT_EQ(extract_dp_bundling(t, ced.ps.order, 5, ced.ps.runs),
            extract_dp_bundling(t, ced.ps.order, 3, ced.ps.runs));
  // Three bundles over three items: one bundle per cost level, every
  // flow of the run in it, in stable-sort order.
  EXPECT_EQ(extract_dp_bundling(t, ced.ps.order, 3, ced.ps.runs),
            (Bundling{{1, 4}, {3, 5}, {0, 2, 6}}));
}

TEST(DpKernelCrossCheck, DuplicateValuations) {
  const std::size_t n = 48;
  std::vector<double> v(n, 1.75);
  std::vector<double> c;
  util::Rng rng(123);
  for (std::size_t i = 0; i < n; ++i) c.push_back(rng.uniform(0.2, 5.0));
  const auto ced = make_ced_objective(v, c, 2.0);
  cross_check(ced, 6, "ced duplicate valuations");
  const auto logit = make_logit_objective(v, c, 1.3);
  cross_check(logit, 6, "logit duplicate valuations");
}

TEST(DpKernelCrossCheck, SingleFlowBundles) {
  // b_max == n: every row down to singleton bundles, including the
  // k == b diagonal where the candidate range is exactly one index.
  const std::size_t n = 12;
  const auto inst = random_instance(77, n);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.4);
  cross_check(obj, n, "singleton bundles");
}

TEST(DpKernelCrossCheck, TinyInstances) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    const auto inst = random_instance(31 + n, n);
    const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
    cross_check(obj, n, "tiny");
  }
}

// Rewards long segments quadratically: supermodular in segment length,
// which violates the inverse quadrangle inequality at every quadruple —
// the probe must catch it and route the fill to the naive kernel.
struct NonMonotoneObjective {
  double operator()(std::size_t i, std::size_t j) const {
    const double len = static_cast<double>(j - i);
    return len * len;
  }
};

TEST(DpKernelFallback, NonMonotoneObjectiveTakesNaivePath) {
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  obs::Counter& fallbacks =
      obs::Registry::instance().counter("bundling.dp_fallbacks");
  const NonMonotoneObjective obj;
  const std::size_t n = 50;
  fast.reset();
  fallbacks.reset();
  DpKernelOptions autok;  // probe + fallback
  const auto t = fill_dp_tables(n, 5, obj, autok);
  EXPECT_EQ(fast.value(), 0u);
  EXPECT_EQ(fallbacks.value(), 1u);
  DpKernelOptions naive;
  naive.kernel = DpKernel::kNaive;
  const auto ref = fill_dp_tables(n, 5, obj, naive);
  expect_tables_identical(ref, t, "non-monotone fallback");
  // One giant bundle is optimal for a supermodular length reward; the
  // fallback must still find it.
  const auto order = identity_order(n);
  const auto b = extract_dp_bundling(t, order, 5);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].size(), n);
}

TEST(DpKernelDecision, RecordsKernelAndReason) {
  const auto inst = random_instance(6, 40);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
  DpKernelOptions opt;
  const auto probed = fill_dp_tables(std::size_t{40}, std::size_t{3}, obj, opt);
  EXPECT_STREQ(probed.decision.kernel(), "dc");
  EXPECT_STREQ(probed.decision.why, "probe_pass");
  const auto small = fill_dp_tables(std::size_t{3}, std::size_t{3}, obj, opt);
  EXPECT_STREQ(small.decision.kernel(), "naive");
  EXPECT_STREQ(small.decision.why, "small");
  const auto failed =
      fill_dp_tables(std::size_t{50}, std::size_t{3}, NonMonotoneObjective{},
                     opt);
  EXPECT_STREQ(failed.decision.kernel(), "naive");
  EXPECT_STREQ(failed.decision.why, "probe_fail");
  opt.kernel = DpKernel::kDivideConquer;
  const auto forced = fill_dp_tables(std::size_t{40}, std::size_t{3}, obj, opt);
  EXPECT_STREQ(forced.decision.kernel(), "dc");
  EXPECT_STREQ(forced.decision.why, "forced");
  opt.kernel = DpKernel::kNaive;
  const auto naive = fill_dp_tables(std::size_t{40}, std::size_t{3}, obj, opt);
  EXPECT_STREQ(naive.decision.kernel(), "naive");
  EXPECT_STREQ(naive.decision.why, "forced");
}

TEST(DpKernelFallback, ProbeRejectsTinyN) {
  // n < 4 has no quadruple to test; auto must take (and count) the
  // naive path rather than run an unprobed D&C.
  const obs::ScopedEnable metrics;
  obs::Counter& fallbacks =
      obs::Registry::instance().counter("bundling.dp_fallbacks");
  const auto inst = random_instance(5, 3);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.6);
  fallbacks.reset();
  fill_dp_tables(std::size_t{3}, std::size_t{3}, obj);
  EXPECT_EQ(fallbacks.value(), 1u);
}

TEST(DpKernelParallel, BitIdenticalAcrossThreadCountsAndChunkings) {
  // Force the parallel path with a tiny threshold and compare against
  // the fully serial fill for both kernels at several thread counts.
  // Chunk boundaries are a function of the options, not the thread
  // count, so every variant must produce byte-identical tables.
  const std::size_t n = 3000;
  const auto inst = random_instance(2024, n);
  const auto obj = make_ced_objective(inst.v, inst.c, 1.7);
  ASSERT_EQ(obj.ps.items(), n);

  for (const DpKernel kernel : {DpKernel::kNaive, DpKernel::kDivideConquer}) {
    DpKernelOptions serial;
    serial.kernel = kernel;
    serial.parallel_row_threshold = SIZE_MAX;  // never parallel
    const auto ref = fill_dp_tables(n, 6, obj, serial);
    for (const std::size_t threads : {1u, 2u, 5u}) {
      DpKernelOptions par;
      par.kernel = kernel;
      par.parallel_row_threshold = 64;
      par.parallel_grain = 128;
      par.max_chunks = 8;
      par.threads = threads;
      const auto got = fill_dp_tables(n, 6, obj, par);
      expect_tables_identical(ref, got,
                              kernel == DpKernel::kNaive ? "naive parallel"
                                                         : "dc parallel");
    }
  }
}

TEST(DpKernelMemory, FlatTablesStayUnderDocumentedBudget) {
  // 100k flows x B=32 must fit the documented 12-bytes-per-cell budget:
  // (b_max+1)*(n+1)*(8+4) bytes across exactly two flat allocations —
  // under 40 MiB, where the old vector-of-vectors size_t layout needed
  // ~53 MiB plus per-row allocator overhead. The objective here is a
  // cheap strictly-monotone length penalty so the fill itself runs the
  // fast path in well under a second.
  const obs::ScopedEnable metrics;
  obs::Counter& fast =
      obs::Registry::instance().counter("bundling.dp_fastpath");
  struct ConcaveLength {
    double operator()(std::size_t i, std::size_t j) const {
      const double len = static_cast<double>(j - i);
      return -len * len;
    }
  };
  const std::size_t n = 100000;
  const std::size_t b_max = 32;
  fast.reset();
  const auto t = fill_dp_tables(n, b_max, ConcaveLength{});
  EXPECT_EQ(fast.value(), 1u) << "expected the D&C fast path at 100k flows";
  const std::size_t budget = (b_max + 1) * (n + 1) *
                             (sizeof(double) + sizeof(std::uint32_t));
  EXPECT_LE(t.bytes(), budget + (1u << 12));  // tiny allocator slack
  EXPECT_LT(t.bytes(), 40u * 1024 * 1024);
  // Sanity: a concave length penalty splits as evenly as possible.
  const auto order = identity_order(n);
  const auto b = extract_dp_bundling(t, order, b_max);
  EXPECT_EQ(b.size(), b_max);
}

TEST(DpKernelGuards, RejectsNOverUint32) {
  const NonMonotoneObjective obj;
  EXPECT_THROW(
      fill_dp_tables(std::size_t{std::numeric_limits<std::uint32_t>::max()},
                     std::size_t{2}, obj),
      std::invalid_argument);
}

TEST(DpKernelOptionsEnv, KernelOverrideParses) {
  ASSERT_EQ(setenv("MANYTIERS_DP_KERNEL", "naive", 1), 0);
  EXPECT_EQ(dp_kernel_options_from_env().kernel, DpKernel::kNaive);
  ASSERT_EQ(setenv("MANYTIERS_DP_KERNEL", "dc", 1), 0);
  EXPECT_EQ(dp_kernel_options_from_env().kernel, DpKernel::kDivideConquer);
  ASSERT_EQ(setenv("MANYTIERS_DP_KERNEL", "auto", 1), 0);
  EXPECT_EQ(dp_kernel_options_from_env().kernel, DpKernel::kAuto);
  ASSERT_EQ(setenv("MANYTIERS_DP_KERNEL", "garbage", 1), 0);
  EXPECT_EQ(dp_kernel_options_from_env().kernel, DpKernel::kAuto);
  ASSERT_EQ(unsetenv("MANYTIERS_DP_KERNEL"), 0);
  EXPECT_EQ(dp_kernel_options_from_env().kernel, DpKernel::kAuto);
}

// --- Calibrated paper markets: merged fill vs the per-flow oracle ---
//
// Every dataset x cost model x demand model the grids run. ced_optimal /
// logit_optimal fill over runs of equal unit cost; the per-flow naive
// fill (interval_dp_all over unmerged prefix sums) is the oracle.
// Checked per market:
//   (a) the merged fill is bit-identical under forced naive, dc and auto;
//   (b) for every bundle count, the priced profit matches the oracle's
//       within 1e-12 relative;
//   (c) no bundle splits a run of equal cost, and there are at most as
//       many bundles as distinct costs.

constexpr std::size_t kCalibratedFlows = 300;
constexpr std::size_t kCalibratedBundles = 6;

struct CostCase {
  const char* name;
  std::unique_ptr<cost::CostModel> (*make)(double theta);
};

std::unique_ptr<cost::CostModel> concave(double theta) {
  return cost::make_concave_cost(theta);
}

const CostCase kCosts[] = {
    {"linear", &cost::make_linear_cost},
    {"concave", &concave},
    {"regional", &cost::make_regional_cost},
    {"dest-type", &cost::make_dest_type_cost},
};

// Sets MANYTIERS_DP_KERNEL for one scope, so the std::function entry
// points (which read the env) run the naive reference fill.
class ScopedKernelEnv {
 public:
  explicit ScopedKernelEnv(const char* kernel) {
    setenv("MANYTIERS_DP_KERNEL", kernel, 1);
  }
  ~ScopedKernelEnv() { unsetenv("MANYTIERS_DP_KERNEL"); }
  ScopedKernelEnv(const ScopedKernelEnv&) = delete;
  ScopedKernelEnv& operator=(const ScopedKernelEnv&) = delete;
};

template <class Objective>
void check_market(const pricing::Market& market, const Objective& obj,
                  const Objective& flat, const std::vector<Bundling>& merged,
                  const std::string& label) {
  const auto& c = market.costs();
  const std::size_t items = obj.ps.items();
  const std::size_t b_max = std::min(kCalibratedBundles, items);

  // (a) One item set, three kernels, one set of bytes.
  DpKernelOptions opt;
  opt.kernel = DpKernel::kNaive;
  const auto naive = fill_dp_tables(items, b_max, obj, opt);
  opt.kernel = DpKernel::kDivideConquer;
  const auto dc = fill_dp_tables(items, b_max, obj, opt);
  opt.kernel = DpKernel::kAuto;
  const auto autok = fill_dp_tables(items, b_max, obj, opt);
  expect_tables_identical(naive, dc, (label + ": naive vs dc").c_str());
  expect_tables_identical(naive, autok, (label + ": naive vs auto").c_str());

  // (b) Profit per bundle count against the per-flow naive oracle.
  ASSERT_EQ(flat.ps.items(), market.size()) << label;
  std::vector<Bundling> oracle;
  {
    const ScopedKernelEnv naive_env("naive");
    oracle = interval_dp_all(
        flat.ps.order, kCalibratedBundles,
        [&flat](std::size_t i, std::size_t k) { return flat(i, k); });
  }
  ASSERT_EQ(merged.size(), kCalibratedBundles) << label;
  for (std::size_t b = 1; b <= kCalibratedBundles; ++b) {
    const double got = pricing::price_bundles(market, merged[b - 1]).profit;
    const double want = pricing::price_bundles(market, oracle[b - 1]).profit;
    EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
        << label << " B=" << b << ": merged " << got << " vs per-flow "
        << want;
  }

  // (c) Whole runs only, at most one bundle per distinct cost.
  for (std::size_t b = 1; b <= kCalibratedBundles; ++b) {
    const Bundling& bundling = merged[b - 1];
    EXPECT_LE(bundling.size(), items) << label << " B=" << b;
    std::map<double, std::size_t> bundle_of_cost;
    for (std::size_t x = 0; x < bundling.size(); ++x) {
      for (const std::size_t i : bundling[x]) {
        const auto [it, fresh] = bundle_of_cost.emplace(c[i], x);
        EXPECT_TRUE(fresh || it->second == x)
            << label << " B=" << b << ": cost " << c[i]
            << " split across bundles " << it->second << " and " << x;
      }
    }
    EXPECT_EQ(bundle_of_cost.size(), items) << label << " B=" << b;
  }
}

TEST(CalibratedOracle, MergedDpMatchesPerFlowNaiveOnEveryPaperMarket) {
  for (const auto dataset : {workload::DatasetKind::EuIsp,
                             workload::DatasetKind::Internet2,
                             workload::DatasetKind::Cdn}) {
    const auto flows = workload::generate_dataset(
        dataset, {.seed = 42, .n_flows = kCalibratedFlows});
    for (const auto& cost_case : kCosts) {
      const auto cost_model = cost_case.make(0.2);
      for (const auto kind : {demand::DemandKind::ConstantElasticity,
                              demand::DemandKind::Logit}) {
        pricing::DemandSpec spec;
        spec.kind = kind;
        const auto market =
            pricing::Market::calibrate(flows, spec, *cost_model, 20.0);
        const std::string label = std::string(workload::to_string(dataset)) +
                                  "/" + cost_case.name + "/" +
                                  (kind == demand::DemandKind::Logit
                                       ? "logit"
                                       : "ced");
        const auto& v = market.valuations();
        const auto& c = market.costs();
        const double alpha = spec.alpha;
        if (kind == demand::DemandKind::ConstantElasticity) {
          check_market(market, make_ced_objective(v, c, alpha),
                       make_ced_objective(v, c, alpha, /*merge_ties=*/false),
                       ced_optimal_series(v, c, alpha, kCalibratedBundles),
                       label);
        } else {
          check_market(market, make_logit_objective(v, c, alpha),
                       make_logit_objective(v, c, alpha, /*merge_ties=*/false),
                       logit_optimal_series(v, c, alpha, kCalibratedBundles),
                       label);
        }
      }
    }
  }
}

}  // namespace
}  // namespace manytiers::bundling
