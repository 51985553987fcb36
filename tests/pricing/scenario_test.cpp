#include "pricing/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "driver/grid.hpp"
#include "obs/registry.hpp"
#include "workload/generators.hpp"

namespace manytiers::pricing {
namespace {

workload::FlowSet small_flows() {
  workload::FlowSet fs("small");
  const double demands[] = {100.0, 40.0, 5.0, 70.0, 12.0};
  const double distances[] = {2.0, 30.0, 500.0, 80.0, 1500.0};
  for (int i = 0; i < 5; ++i) {
    workload::Flow f;
    f.demand_mbps = demands[i];
    f.distance_miles = distances[i];
    f.region = geo::classify_distance(distances[i]);
    fs.add(f);
  }
  return fs;
}

TEST(Market, CedCalibrationPopulatesEverything) {
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.valuations().size(), 5u);
  EXPECT_EQ(m.costs().size(), 5u);
  EXPECT_GT(m.gamma(), 0.0);
  EXPECT_DOUBLE_EQ(m.blended_price(), 20.0);
  EXPECT_NO_THROW(m.ced());
  EXPECT_THROW(m.logit(), std::logic_error);
  for (const double c : m.costs()) EXPECT_GT(c, 0.0);
}

TEST(Market, LogitCalibrationPopulatesEverything) {
  DemandSpec spec;
  spec.kind = demand::DemandKind::Logit;
  spec.alpha = 1.1;
  spec.no_purchase_share = 0.2;
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), spec, *cost, 20.0);
  EXPECT_NO_THROW(m.logit());
  EXPECT_THROW(m.ced(), std::logic_error);
  EXPECT_NEAR(m.logit().market_size(), 227.0 / 0.8, 1e-9);
}

TEST(Market, CostsAreGammaTimesRelative) {
  const auto cost = cost::make_linear_cost(0.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m.costs()[i], m.gamma() * m.relative_costs()[i], 1e-12);
  }
}

TEST(Market, DestTypeCostExpandsFlows) {
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 10u);  // each flow split into on-net/off-net
  EXPECT_EQ(m.cost_class_count(), 2u);
}

TEST(Market, RegionalCostYieldsThreeClasses) {
  const auto cost = cost::make_regional_cost(1.1);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.cost_class_count(), 3u);
  // All metro flows share a relative cost of 1.
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.flows()[i].region == geo::Region::Metro) {
      EXPECT_DOUBLE_EQ(m.relative_costs()[i], 1.0);
    }
  }
}

TEST(Market, ContinuousCostIsSingleClass) {
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.cost_class_count(), 1u);
}

TEST(Market, CalibrationValidates) {
  const auto cost = cost::make_linear_cost(0.2);
  EXPECT_THROW(
      Market::calibrate(workload::FlowSet("e"), DemandSpec{}, *cost, 20.0),
      std::invalid_argument);
  EXPECT_THROW(Market::calibrate(small_flows(), DemandSpec{}, *cost, 0.0),
               std::invalid_argument);
  EXPECT_THROW(prepare_inputs(workload::FlowSet("e"), *cost),
               std::invalid_argument);

  // The shared-inputs overload: null, empty and mis-sized inputs and a
  // non-positive blended price are all typed argument errors.
  EXPECT_THROW(Market::calibrate(nullptr, DemandSpec{}, 20.0),
               std::invalid_argument);
  EXPECT_THROW(Market::calibrate(std::make_shared<const MarketInputs>(),
                                 DemandSpec{}, 20.0),
               std::invalid_argument);
  auto short_costs = std::make_shared<MarketInputs>(
      *prepare_inputs(small_flows(), *cost));
  short_costs->relative_costs.pop_back();
  EXPECT_THROW(Market::calibrate(short_costs, DemandSpec{}, 20.0),
               std::invalid_argument);
  const auto inputs = prepare_inputs(small_flows(), *cost);
  EXPECT_THROW(Market::calibrate(inputs, DemandSpec{}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Market::calibrate(inputs, DemandSpec{}, -20.0),
               std::invalid_argument);
}

// The by-value overload reports an empty flow set before a bad blended
// price.
TEST(Market, EmptyFlowSetThrowsBeforeThePriceCheck) {
  const auto cost = cost::make_linear_cost(0.2);
  try {
    Market::calibrate(workload::FlowSet("e"), DemandSpec{}, *cost, 0.0);
    FAIL() << "calibrate accepted an empty flow set";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty flow set"), std::string::npos)
        << e.what();
  }
}

TEST(Market, CopiesAndSiblingsShareOneInputs) {
  const auto cost = cost::make_dest_type_cost(0.1);
  const auto inputs = prepare_inputs(small_flows(), *cost);
  DemandSpec logit;
  logit.kind = demand::DemandKind::Logit;
  const auto ced = Market::calibrate(inputs, DemandSpec{}, 20.0);
  const auto other = Market::calibrate(inputs, logit, 25.0);
  const Market copy = ced;
  for (const Market* m : {&ced, &other, &copy}) {
    EXPECT_EQ(&m->flows(), &inputs->flows);
    EXPECT_EQ(&m->relative_costs(), &inputs->relative_costs);
    EXPECT_EQ(&m->cost_classes(), &inputs->classes);
  }
  // What a market fits stays its own.
  EXPECT_NE(&ced.valuations(), &other.valuations());
  EXPECT_NE(&ced.costs(), &copy.costs());
  EXPECT_EQ(ced.size(), 10u);
}

TEST(Market, TopologyRetagKeepsInputsShared) {
  const auto cost = cost::make_linear_cost(0.2);
  const auto inputs = prepare_inputs(small_flows(), *cost);
  auto m = Market::calibrate(inputs, DemandSpec{}, 20.0);
  const Market copy = m;
  m.tag_topology_epoch(4);
  EXPECT_EQ(&m.flows(), &inputs->flows);
  EXPECT_EQ(&m.relative_costs(), &copy.relative_costs());
  EXPECT_EQ(&m.cost_classes(), &copy.cost_classes());
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// The shared-inputs overload fits exactly what the by-value overload
// fits, on every paper dataset, cost model and demand model.
TEST(Market, SharedInputsCalibrateBitForBitLikeByValue) {
  const driver::BaseParams base;
  std::size_t checked = 0;
  for (const auto dataset : {workload::DatasetKind::EuIsp,
                             workload::DatasetKind::Internet2,
                             workload::DatasetKind::Cdn}) {
    const auto flows =
        workload::generate_dataset(dataset, {.seed = 42, .n_flows = 2000});
    for (const auto cost_kind :
         {driver::CostKind::Linear, driver::CostKind::Concave,
          driver::CostKind::Regional, driver::CostKind::DestType}) {
      const auto model = driver::make_cost_model(cost_kind, base.theta);
      const auto inputs = prepare_inputs(flows, *model);
      for (const auto kind : {demand::DemandKind::ConstantElasticity,
                              demand::DemandKind::Logit}) {
        const std::string label =
            std::string(workload::to_string(dataset)) + "/" +
            std::string(driver::to_string(kind)) + "/" +
            std::string(driver::to_string(cost_kind));
        DemandSpec spec;
        spec.kind = kind;
        spec.alpha = base.alpha;
        spec.no_purchase_share = base.s0;
        const auto by_value =
            Market::calibrate(flows, spec, *model, base.blended_price);
        const auto shared =
            Market::calibrate(inputs, spec, base.blended_price);
        EXPECT_TRUE(same_bytes(shared.valuations(), by_value.valuations()))
            << label;
        EXPECT_TRUE(same_bytes(shared.costs(), by_value.costs())) << label;
        const double g_shared = shared.gamma();
        const double g_by_value = by_value.gamma();
        EXPECT_EQ(std::memcmp(&g_shared, &g_by_value, sizeof(double)), 0)
            << label;
        EXPECT_TRUE(
            same_bytes(shared.relative_costs(), by_value.relative_costs()))
            << label;
        EXPECT_EQ(shared.cost_classes(), by_value.cost_classes()) << label;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3u * 4u * 2u);
}

// The load-bearing calibration invariant, across every cost model, both
// demand models, and a spread of theta: re-optimizing a single blended
// bundle must recover exactly the observed blended rate P0.
enum class CostKind { Linear, Concave, Regional, DestType };

std::unique_ptr<cost::CostModel> make_cost(CostKind kind, double theta) {
  switch (kind) {
    case CostKind::Linear: return cost::make_linear_cost(theta);
    case CostKind::Concave: return cost::make_concave_cost(theta);
    case CostKind::Regional: return cost::make_regional_cost(1.0 + theta);
    case CostKind::DestType: return cost::make_dest_type_cost(0.05 + theta);
  }
  throw std::logic_error("unknown cost kind");
}

class CalibrationInvariant
    : public ::testing::TestWithParam<
          std::tuple<CostKind, demand::DemandKind, double>> {};

TEST_P(CalibrationInvariant, BlendedRateIsSingleBundleOptimum) {
  const auto [cost_kind, demand_kind, theta] = GetParam();
  const auto flows = workload::generate_eu_isp({.seed = 21, .n_flows = 60});
  DemandSpec spec;
  spec.kind = demand_kind;
  const auto model = make_cost(cost_kind, theta);
  const double p0 = 20.0;
  const auto m = Market::calibrate(flows, spec, *model, p0);

  switch (demand_kind) {
    case demand::DemandKind::ConstantElasticity:
      EXPECT_NEAR(m.ced().bundle_price(m.valuations(), m.costs()), p0,
                  1e-6 * p0);
      break;
    case demand::DemandKind::Logit: {
      const std::vector<double> vb{m.logit().bundle_valuation(m.valuations())};
      const std::vector<double> cb{
          m.logit().bundle_cost(m.valuations(), m.costs())};
      EXPECT_NEAR(m.logit().optimal_prices(vb, cb).prices[0], p0, 1e-5 * p0);
      break;
    }
  }
  // And demand at P0 reproduces the observed flows.
  const std::vector<double> prices(m.size(), p0);
  switch (demand_kind) {
    case demand::DemandKind::ConstantElasticity:
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_NEAR(m.ced().quantity(m.valuations()[i], p0),
                    m.flows()[i].demand_mbps,
                    1e-6 * m.flows()[i].demand_mbps);
      }
      break;
    case demand::DemandKind::Logit: {
      const auto q = m.logit().quantities(m.valuations(), prices);
      for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_NEAR(q[i], m.flows()[i].demand_mbps,
                    1e-6 * m.flows()[i].demand_mbps);
      }
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CalibrationInvariant,
    ::testing::Combine(
        ::testing::Values(CostKind::Linear, CostKind::Concave,
                          CostKind::Regional, CostKind::DestType),
        ::testing::Values(demand::DemandKind::ConstantElasticity,
                          demand::DemandKind::Logit),
        ::testing::Values(0.05, 0.2, 0.5)));

TEST(Market, TopologyEpochRetagSwapsTheProfitCache) {
  const auto cost = cost::make_linear_cost(0.2);
  auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.topology_epoch(), 0u);
  const double blended = m.blended_profit();  // primes the cache
  const double maximum = m.max_profit();

  const obs::ScopedEnable metrics;  // counters are off by default
  static obs::Counter& invalidations =
      obs::Registry::instance().counter("market.profit_cache_invalidations");
  const std::uint64_t before = invalidations.value();

  // Same-epoch tag: a no-op that keeps the primed cache.
  m.tag_topology_epoch(0);
  EXPECT_EQ(m.topology_epoch(), 0u);
  EXPECT_EQ(invalidations.value(), before);

  // New epoch: the cache is swapped for a fresh one. The market's
  // calibrated state did not change, so re-priming lands on the same
  // bits — the invalidation is observable only through the counter.
  m.tag_topology_epoch(7);
  EXPECT_EQ(m.topology_epoch(), 7u);
  EXPECT_EQ(invalidations.value(), before + 1);
  EXPECT_EQ(m.blended_profit(), blended);
  EXPECT_EQ(m.max_profit(), maximum);

  // Re-tagging the new epoch is again a no-op.
  m.tag_topology_epoch(7);
  EXPECT_EQ(invalidations.value(), before + 1);
}

TEST(Market, CopiesTakenBeforeARetagKeepTheirCache) {
  const auto cost = cost::make_linear_cost(0.2);
  auto m = Market::calibrate(small_flows(), DemandSpec{}, *cost, 20.0);
  const double blended = m.blended_profit();
  const Market copy = m;
  m.tag_topology_epoch(3);
  // The copy still answers from the old, self-consistent cache and
  // keeps its original epoch; the re-tagged original re-primes.
  EXPECT_EQ(copy.topology_epoch(), 0u);
  EXPECT_EQ(copy.blended_profit(), blended);
  EXPECT_EQ(m.blended_profit(), blended);
}

TEST(Market, WorksOnGeneratedDatasets) {
  const auto flows = workload::generate_eu_isp({.seed = 1, .n_flows = 100});
  const auto cost = cost::make_linear_cost(0.2);
  const auto m = Market::calibrate(flows, DemandSpec{}, *cost, 20.0);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_GT(m.gamma(), 0.0);
  // Costs must be below the blended price on average (the ISP profits).
  double mean_cost = 0.0;
  for (const double c : m.costs()) mean_cost += c;
  mean_cost /= double(m.size());
  EXPECT_LT(mean_cost, 20.0);
}

}  // namespace
}  // namespace manytiers::pricing
