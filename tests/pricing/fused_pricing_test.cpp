// price_bundles reads each bundle's flows in place and computes each
// logit weight once; these tests hold it to the two-pass arithmetic it
// replaced, bit for bit, on every calibrated paper market.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "driver/grid.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "pricing/counterfactual.hpp"
#include "pricing/engine.hpp"
#include "workload/generators.hpp"

namespace manytiers::pricing {
namespace {

// --- The two-pass reference: gather copies, then the original loops. ---

std::vector<double> gather(const std::vector<double>& xs,
                           const bundling::Bundle& bundle) {
  std::vector<double> out;
  out.reserve(bundle.size());
  for (const std::size_t i : bundle) out.push_back(xs[i]);
  return out;
}

double ced_bundle_price(double alpha, const std::vector<double>& v,
                        const std::vector<double>& c) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double w = std::pow(v[i], alpha);
    num += c[i] * w;
    den += w;
  }
  return alpha * num / ((alpha - 1.0) * den);
}

double logit_bundle_valuation(double alpha, const std::vector<double>& v) {
  const double vmax = *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (const double x : v) sum += std::exp(alpha * (x - vmax));
  return vmax + std::log(sum) / alpha;
}

double logit_bundle_cost(double alpha, const std::vector<double>& v,
                         const std::vector<double>& c) {
  const double vmax = *std::max_element(v.begin(), v.end());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double w = std::exp(alpha * (v[i] - vmax));
    num += c[i] * w;
    den += w;
  }
  return num / den;
}

// Shares with every exponential evaluated twice: once into the
// denominator, once more for the share itself.
std::vector<double> logit_shares(double alpha, const std::vector<double>& v,
                                 const std::vector<double>& p) {
  double max_u = 0.0;
  std::vector<double> utils(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    utils[i] = alpha * (v[i] - p[i]);
    max_u = std::max(max_u, utils[i]);
  }
  double denom = std::exp(-max_u);
  for (const double u : utils) denom += std::exp(u - max_u);
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::exp(utils[i] - max_u) / denom;
  }
  return out;
}

struct Reference {
  std::vector<double> bundle_prices;
  double profit = 0.0;
};

Reference two_pass_price(const Market& market,
                         const bundling::Bundling& bundles) {
  const auto& v = market.valuations();
  const auto& c = market.costs();
  const double alpha = market.demand_spec().alpha;
  Reference ref;
  std::vector<double> flow_prices(market.size());
  if (market.demand_spec().kind == demand::DemandKind::ConstantElasticity) {
    for (const auto& bundle : bundles) {
      ref.bundle_prices.push_back(
          ced_bundle_price(alpha, gather(v, bundle), gather(c, bundle)));
    }
  } else {
    std::vector<double> bundle_v, bundle_c;
    for (const auto& bundle : bundles) {
      const auto bv = gather(v, bundle);
      bundle_v.push_back(logit_bundle_valuation(alpha, bv));
      bundle_c.push_back(logit_bundle_cost(alpha, bv, gather(c, bundle)));
    }
    ref.bundle_prices =
        market.logit().optimal_prices(bundle_v, bundle_c).prices;
  }
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    for (const std::size_t i : bundles[b]) flow_prices[i] = ref.bundle_prices[b];
  }
  if (market.demand_spec().kind == demand::DemandKind::ConstantElasticity) {
    ref.profit = market.ced().total_profit(v, c, flow_prices);
  } else {
    const auto s = logit_shares(alpha, v, flow_prices);
    double profit = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      profit += s[i] * (flow_prices[i] - c[i]);
    }
    ref.profit = market.logit().market_size() * profit;
  }
  return ref;
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

constexpr Strategy kStrategies[] = {
    Strategy::Optimal,       Strategy::DemandWeighted,
    Strategy::CostWeighted,  Strategy::ProfitWeighted,
    Strategy::CostDivision,  Strategy::IndexDivision,
    Strategy::ClassAwareProfitWeighted};

TEST(FusedPricing, MatchesTwoPassReferenceOnEveryPaperMarket) {
  constexpr std::size_t kFlows = 2000;
  constexpr std::size_t kMaxBundles = 6;
  const driver::BaseParams base;
  std::size_t checked = 0;
  for (const auto dataset : {workload::DatasetKind::EuIsp,
                             workload::DatasetKind::Internet2,
                             workload::DatasetKind::Cdn}) {
    const auto flows =
        workload::generate_dataset(dataset, {.seed = 42, .n_flows = kFlows});
    for (const auto cost_kind :
         {driver::CostKind::Linear, driver::CostKind::Concave,
          driver::CostKind::Regional, driver::CostKind::DestType}) {
      const auto cost_model = driver::make_cost_model(cost_kind, base.theta);
      for (const auto kind : {demand::DemandKind::ConstantElasticity,
                              demand::DemandKind::Logit}) {
        DemandSpec spec;
        spec.kind = kind;
        spec.alpha = base.alpha;
        spec.no_purchase_share = base.s0;
        const auto market = Market::calibrate(flows, spec, *cost_model,
                                              base.blended_price);
        for (const Strategy strategy : kStrategies) {
          const auto bundlings =
              bundling_series(market, strategy, kMaxBundles);
          for (std::size_t b = 0; b < bundlings.size(); ++b) {
            const std::string label =
                std::string(workload::to_string(dataset)) + "/" +
                std::string(driver::to_string(kind)) + "/" +
                std::string(driver::to_string(cost_kind)) + "/" +
                std::string(to_string(strategy)) + " B=" +
                std::to_string(b + 1);
            const auto fused = price_bundles(market, bundlings[b]);
            const auto ref = two_pass_price(market, bundlings[b]);
            ASSERT_EQ(fused.bundle_prices.size(), ref.bundle_prices.size())
                << label;
            for (std::size_t k = 0; k < ref.bundle_prices.size(); ++k) {
              EXPECT_TRUE(
                  same_bytes(fused.bundle_prices[k], ref.bundle_prices[k]))
                  << label << " bundle " << k;
            }
            EXPECT_TRUE(same_bytes(fused.profit, ref.profit)) << label;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3u * 4u * 2u * std::size(kStrategies) * kMaxBundles);
}

// The gathered public entry points run the same loops as the in-place
// ones, so they agree bit for bit on any member order.
TEST(FusedPricing, GatheredAndInPlaceBundleEntryPointsAgree) {
  const auto flows =
      workload::generate_dataset(workload::DatasetKind::Cdn,
                                 {.seed = 7, .n_flows = 300});
  const auto cost_model =
      driver::make_cost_model(driver::CostKind::Linear, 0.2);
  const bundling::Bundle members{17, 3, 250, 4, 99, 0, 298};
  DemandSpec spec;
  spec.kind = demand::DemandKind::ConstantElasticity;
  const auto ced = Market::calibrate(flows, spec, *cost_model, 20.0);
  const auto cv = gather(ced.valuations(), members);
  const auto cc = gather(ced.costs(), members);
  EXPECT_TRUE(same_bytes(
      ced.ced().bundle_price(ced.valuations(), ced.costs(), members),
      ced.ced().bundle_price(cv, cc)));
  EXPECT_TRUE(same_bytes(ced.ced().bundle_price(cv, cc),
                         ced_bundle_price(spec.alpha, cv, cc)));

  spec.kind = demand::DemandKind::Logit;
  const auto logit = Market::calibrate(flows, spec, *cost_model, 20.0);
  const auto lv = gather(logit.valuations(), members);
  const auto lc = gather(logit.costs(), members);
  const auto aggregate =
      logit.logit().bundle_aggregate(logit.valuations(), logit.costs(),
                                     members);
  EXPECT_TRUE(same_bytes(aggregate.valuation,
                         logit.logit().bundle_valuation(lv)));
  EXPECT_TRUE(same_bytes(aggregate.cost, logit.logit().bundle_cost(lv, lc)));
  EXPECT_TRUE(same_bytes(aggregate.valuation,
                         logit_bundle_valuation(spec.alpha, lv)));
  EXPECT_TRUE(
      same_bytes(aggregate.cost, logit_bundle_cost(spec.alpha, lv, lc)));
  const auto shares = logit.logit().shares(lv, lc);
  const auto ref_shares = logit_shares(spec.alpha, lv, lc);
  ASSERT_EQ(shares.size(), ref_shares.size());
  EXPECT_EQ(std::memcmp(shares.data(), ref_shares.data(),
                        shares.size() * sizeof(double)),
            0);
}

TEST(FusedPricing, InPlaceEntryPointsValidateMembers) {
  const demand::CedModel ced(1.5);
  const demand::LogitModel logit(1.5, 100.0);
  const std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> c{0.5, 0.5, 0.5};
  const std::vector<double> short_c{0.5, 0.5};
  const std::vector<double> bad_v{1.0, -2.0, 3.0};
  const std::vector<std::size_t> ok{0, 2};
  const std::vector<std::size_t> out_of_range{0, 3};
  const std::vector<std::size_t> none;
  EXPECT_THROW(ced.bundle_price(v, c, none), std::invalid_argument);
  EXPECT_THROW(ced.bundle_price(v, short_c, ok), std::invalid_argument);
  EXPECT_THROW(ced.bundle_price(v, c, out_of_range), std::invalid_argument);
  // Per-flow validation still applies to every member read.
  EXPECT_THROW(ced.bundle_price(bad_v, c, std::vector<std::size_t>{1}),
               std::invalid_argument);
  EXPECT_NO_THROW(ced.bundle_price(bad_v, c, ok));
  EXPECT_THROW(logit.bundle_aggregate(v, c, none), std::invalid_argument);
  EXPECT_THROW(logit.bundle_aggregate(v, short_c, ok), std::invalid_argument);
  EXPECT_THROW(logit.bundle_aggregate(v, c, out_of_range),
               std::invalid_argument);
}

// Datasets generate side by side and markets price in place; the
// alpha-sweep report stays byte-identical at any worker count.
TEST(FusedPricing, AlphaSweepReportIsByteIdenticalAcrossThreadCounts) {
  auto grid = driver::alpha_sweep_grid();
  grid.base.n_flows = 5000;
  const auto report_bytes = [&](std::size_t threads) {
    driver::RunOptions options;
    options.threads = threads;
    options.per_point = true;
    std::ostringstream os;
    driver::write_report(os, driver::run_grid(grid, options),
                         /*include_timing=*/false);
    return os.str();
  };
  const std::string serial = report_bytes(1);
  for (const std::size_t threads : {2u, 3u, 5u}) {
    EXPECT_EQ(report_bytes(threads), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace manytiers::pricing
