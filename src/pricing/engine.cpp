#include "pricing/engine.hpp"

#include <cmath>
#include <stdexcept>

namespace manytiers::pricing {

PricedBundling price_bundles(const Market& market,
                             const bundling::Bundling& bundles) {
  bundling::validate(bundles, market.size());
  PricedBundling out;
  out.bundles = bundles;
  out.bundle_prices.resize(bundles.size());
  out.flow_prices.resize(market.size());
  const auto& v = market.valuations();
  const auto& c = market.costs();

  switch (market.demand_spec().kind) {
    case demand::DemandKind::ConstantElasticity: {
      const auto& model = market.ced();
      for (std::size_t b = 0; b < bundles.size(); ++b) {
        out.bundle_prices[b] = model.bundle_price(v, c, bundles[b]);
      }
      break;
    }
    case demand::DemandKind::Logit: {
      const auto& model = market.logit();
      // Collapse each bundle to its aggregate valuation and cost (Eqs.
      // 10-11), then solve the equal-markup optimum across bundles.
      std::vector<double> bundle_v(bundles.size()), bundle_c(bundles.size());
      for (std::size_t b = 0; b < bundles.size(); ++b) {
        const auto aggregate = model.bundle_aggregate(v, c, bundles[b]);
        bundle_v[b] = aggregate.valuation;
        bundle_c[b] = aggregate.cost;
      }
      out.bundle_prices = model.optimal_prices(bundle_v, bundle_c).prices;
      break;
    }
  }
  for (std::size_t b = 0; b < bundles.size(); ++b) {
    for (const std::size_t i : bundles[b]) {
      out.flow_prices[i] = out.bundle_prices[b];
    }
  }
  // Profit is always evaluated at flow granularity; for the logit model
  // this equals the bundle-aggregate formula exactly (Eq. 10/11 are the
  // log-sum-exp collapse of the flow-level shares).
  switch (market.demand_spec().kind) {
    case demand::DemandKind::ConstantElasticity:
      out.profit = market.ced().total_profit(v, c, out.flow_prices);
      break;
    case demand::DemandKind::Logit:
      out.profit = market.logit().total_profit(v, c, out.flow_prices);
      break;
  }
  return out;
}

// Both baselines are invariants of the calibrated market; Market
// computes them once (lazily, thread-safe) and these entry points just
// read the cache, so a strategy x bundle-count grid pays the O(n)
// blended evaluation and the logit price solve once per market instead
// of once per capture.
double blended_profit(const Market& market) {
  return market.blended_profit();
}

double max_profit(const Market& market) { return market.max_profit(); }

double profit_capture(const Market& market, double profit) {
  const double original = market.blended_profit();
  const double maximum = market.max_profit();
  const double headroom = maximum - original;
  if (!(headroom > 1e-12 * std::max(1.0, std::abs(maximum)))) {
    return 1.0;  // no headroom: any bundling trivially captures everything
  }
  return (profit - original) / headroom;
}

double capture_of(const Market& market, const bundling::Bundling& bundles) {
  return profit_capture(market, price_bundles(market, bundles).profit);
}

std::vector<double> potential_profits(const Market& market) {
  switch (market.demand_spec().kind) {
    case demand::DemandKind::ConstantElasticity: {
      const auto& model = market.ced();
      std::vector<double> out(market.size());
      for (std::size_t i = 0; i < market.size(); ++i) {
        out[i] = model.potential_profit(market.valuations()[i],
                                        market.costs()[i]);
      }
      return out;
    }
    case demand::DemandKind::Logit: {
      // Eq. 13: potential profit is proportional to observed demand.
      return market.flows().demands();
    }
  }
  throw std::logic_error("potential_profits: unknown demand kind");
}

}  // namespace manytiers::pricing
