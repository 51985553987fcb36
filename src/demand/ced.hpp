// Constant-elasticity demand (paper §3.2.1).
//
//   Q_i(p_i) = (v_i / p_i)^alpha,      alpha in (1, inf)
//
// Demands are separable, so each flow (or bundle) is priced independently.
// All the closed forms from the paper are implemented here:
//   * per-flow profit-maximizing price       p*_i = alpha c_i / (alpha - 1)   (Eq. 4)
//   * bundle profit-maximizing price                                          (Eq. 5)
//   * potential profit of a flow                                              (Eq. 12)
//   * valuation fit from observed demand      v_i = q_i^(1/alpha) P0          (§4.1.2)
//   * cost-scale fit                           gamma                          (§4.1.3)
#pragma once

#include <span>
#include <vector>

#include "demand/demand.hpp"

namespace manytiers::demand {

class CedModel {
 public:
  // alpha is the price sensitivity; must be > 1 for finite optima.
  explicit CedModel(double alpha);

  double alpha() const { return alpha_; }

  // Quantity demanded at unit price p (Eq. 2).
  double quantity(double valuation, double price) const;

  // Profit contribution of one flow at price p: Q(p) * (p - c) (Eq. 3 term).
  double flow_profit(double valuation, double cost, double price) const;

  // Profit-maximizing price for a single flow (Eq. 4).
  double optimal_price(double cost) const;

  // Profit at the optimal single-flow price (Eq. 12, "potential profit").
  double potential_profit(double valuation, double cost) const;

  // Consumer surplus of one flow at price p: the area under the demand
  // curve above p, v^alpha p^(1-alpha) / (alpha - 1). Finite because
  // alpha > 1. Used for the welfare accounting of paper Fig. 1.
  double consumer_surplus(double valuation, double price) const;

  // Profit-maximizing common price for a bundle of flows (Eq. 5).
  double bundle_price(std::span<const double> valuations,
                      std::span<const double> costs) const;
  // The same price for the flows `members` of the full valuation and
  // cost columns, read in place instead of gathered into copies. Both
  // overloads run one loop, so the result equals the gathered overload's
  // over the members in the same order, bit for bit.
  double bundle_price(std::span<const double> valuations,
                      std::span<const double> costs,
                      std::span<const std::size_t> members) const;

  // Total profit when every flow i is charged prices[i].
  double total_profit(std::span<const double> valuations,
                      std::span<const double> costs,
                      std::span<const double> prices) const;

  // --- Calibration (paper §4.1.2 / §4.1.3) ---

  // Valuations from observed demands q_i at blended rate P0.
  ValuationFit fit_valuations(std::span<const double> demands,
                              double blended_price) const;

  // Cost scale gamma such that the blended rate P0 is the single-bundle
  // profit-maximizing price, given relative costs f(d_i).
  double fit_gamma(std::span<const double> valuations,
                   std::span<const double> relative_costs,
                   double blended_price) const;

 private:
  double alpha_;
};

}  // namespace manytiers::demand
