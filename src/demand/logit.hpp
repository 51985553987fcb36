// Logit demand (paper §3.2.2).
//
// Each of K consumers picks the flow with the highest utility
// u_ij = alpha (v_i - p_i) + eps_ij (Gumbel eps), or opts out. Market
// shares follow the logit formula (Eq. 6); demands are NOT separable — the
// outside option s0 couples every price.
//
//   s_i = exp(alpha (v_i - p_i)) / (sum_j exp(alpha (v_j - p_j)) + 1)
//   Q_i = K s_i                                                   (Eq. 7)
//   Pi  = K sum_i s_i (p_i - c_i)                                 (Eq. 8)
//   p*_i = c_i + 1 / (alpha s0)                                   (Eq. 9)
//
// Eq. 9 says every flow carries the same markup m = 1/(alpha s0) at the
// optimum; s0 itself depends on the prices, so m solves the 1-D fixed
// point m = (1 + sum_i e^{alpha (v_i - c_i - m)})/alpha, which this class
// solves exactly by bisection. The paper's gradient-descent heuristic is
// also provided (`gradient_prices`) and agrees to numerical tolerance.
#pragma once

#include <span>
#include <vector>

#include "demand/demand.hpp"

namespace manytiers::demand {

class LogitModel {
 public:
  // alpha > 0 is the elasticity; market_size K > 0 is the consumer count.
  LogitModel(double alpha, double market_size);

  double alpha() const { return alpha_; }
  double market_size() const { return market_size_; }

  // Market shares s_i for the given prices (Eq. 6); same length as v.
  std::vector<double> shares(std::span<const double> valuations,
                             std::span<const double> prices) const;
  // Share of consumers who buy nothing: s0 = 1 - sum_i s_i.
  double no_purchase_share(std::span<const double> valuations,
                           std::span<const double> prices) const;

  // Demand for each flow: Q_i = K s_i (Eq. 7).
  std::vector<double> quantities(std::span<const double> valuations,
                                 std::span<const double> prices) const;

  // Total profit at the given prices (Eq. 8).
  double total_profit(std::span<const double> valuations,
                      std::span<const double> costs,
                      std::span<const double> prices) const;

  // Expected consumer surplus: the standard logit welfare measure
  // K/alpha * ln(sum_i e^{alpha (v_i - p_i)} + 1).
  double consumer_surplus(std::span<const double> valuations,
                          std::span<const double> prices) const;

  struct PricingResult {
    std::vector<double> prices;
    double markup = 0.0;  // common p_i - c_i at the optimum
    double profit = 0.0;
    bool converged = false;
  };

  // Exact profit-maximizing prices via the equal-markup fixed point.
  PricingResult optimal_prices(std::span<const double> valuations,
                               std::span<const double> costs) const;

  // The paper's heuristic: projected gradient ascent from p = c upward.
  PricingResult gradient_prices(std::span<const double> valuations,
                                std::span<const double> costs) const;

  // Potential profit ranking weight (Eq. 13): proportional to share at the
  // blended calibration point, i.e. to observed demand.
  double potential_profit_weight(double observed_demand) const;

  // --- Bundling (Eq. 10 / Eq. 11) ---
  double bundle_valuation(std::span<const double> valuations) const;
  double bundle_cost(std::span<const double> valuations,
                     std::span<const double> costs) const;

  // Both aggregates at once for the flows `members` of the full valuation
  // and cost columns, read in place. Each flow's weight
  // e^{alpha (v_i - max v)} is computed once and feeds both sums; the
  // gathered bundle_valuation/bundle_cost run the same loop, so the result
  // equals them over the members in the same order, bit for bit.
  struct BundleAggregate {
    double valuation = 0.0;  // Eq. 10
    double cost = 0.0;       // Eq. 11
  };
  BundleAggregate bundle_aggregate(std::span<const double> valuations,
                                   std::span<const double> costs,
                                   std::span<const std::size_t> members) const;

  // --- Calibration (paper §4.1.2 / §4.1.3) ---

  // Fit valuations from observed demands at blended rate P0, given the
  // fraction s0 of the market that buys nothing; also returns K.
  static ValuationFit fit_valuations(std::span<const double> demands,
                                     double blended_price,
                                     double no_purchase_share, double alpha);

  // Cost scale gamma making P0 the optimal single blended price, given
  // relative costs f(d_i):
  //   gamma = E (alpha P0 - 1 - E) / (alpha sum f(d_i) e_i),
  //   e_i = e^{alpha (v_i - P0)}, E = sum e_i.
  double fit_gamma(std::span<const double> valuations,
                   std::span<const double> relative_costs,
                   double blended_price) const;

 private:
  double alpha_;
  double market_size_;
};

}  // namespace manytiers::demand
