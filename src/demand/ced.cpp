#include "demand/ced.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace manytiers::demand {

namespace {
void require_positive(double x, const char* what) {
  if (!(x > 0.0)) {
    throw std::invalid_argument(std::string(what) + " must be > 0");
  }
}
void require_same_nonempty(std::span<const double> a, std::span<const double> b,
                           const char* what) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": inputs must be equal-size and non-empty");
  }
}

// Eq. 5 over the flows at(0), ..., at(count - 1):
// P* = alpha * sum(c v^alpha) / ((alpha - 1) * sum(v^alpha)).
template <typename At>
double bundle_price_over(double alpha, std::span<const double> valuations,
                         std::span<const double> costs, std::size_t count,
                         At at) {
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = at(k);
    require_positive(valuations[i], "valuation");
    require_positive(costs[i], "cost");
    const double w = std::pow(valuations[i], alpha);
    num += costs[i] * w;
    den += w;
  }
  return alpha * num / ((alpha - 1.0) * den);
}
}  // namespace

CedModel::CedModel(double alpha) : alpha_(alpha) {
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("CedModel: alpha must be > 1");
  }
}

double CedModel::quantity(double valuation, double price) const {
  require_positive(valuation, "valuation");
  require_positive(price, "price");
  return std::pow(valuation / price, alpha_);
}

double CedModel::flow_profit(double valuation, double cost, double price) const {
  require_positive(cost, "cost");
  return quantity(valuation, price) * (price - cost);
}

double CedModel::optimal_price(double cost) const {
  require_positive(cost, "cost");
  return alpha_ * cost / (alpha_ - 1.0);
}

double CedModel::potential_profit(double valuation, double cost) const {
  // Eq. 12: pi_i = v^alpha / alpha * (alpha c / (alpha - 1))^(1 - alpha).
  require_positive(valuation, "valuation");
  require_positive(cost, "cost");
  return std::pow(valuation, alpha_) / alpha_ *
         std::pow(optimal_price(cost), 1.0 - alpha_);
}

double CedModel::consumer_surplus(double valuation, double price) const {
  require_positive(valuation, "valuation");
  require_positive(price, "price");
  // integral_p^inf (v/x)^alpha dx = v^alpha p^(1-alpha) / (alpha - 1).
  return std::pow(valuation, alpha_) * std::pow(price, 1.0 - alpha_) /
         (alpha_ - 1.0);
}

double CedModel::bundle_price(std::span<const double> valuations,
                              std::span<const double> costs) const {
  require_same_nonempty(valuations, costs, "bundle_price");
  return bundle_price_over(alpha_, valuations, costs, valuations.size(),
                           [](std::size_t k) { return k; });
}

double CedModel::bundle_price(std::span<const double> valuations,
                              std::span<const double> costs,
                              std::span<const std::size_t> members) const {
  if (members.empty() || valuations.size() != costs.size()) {
    throw std::invalid_argument(
        "bundle_price: need a non-empty bundle over equal-size columns");
  }
  return bundle_price_over(alpha_, valuations, costs, members.size(),
                           [&](std::size_t k) {
                             if (members[k] >= valuations.size()) {
                               throw std::invalid_argument(
                                   "bundle_price: member out of range");
                             }
                             return members[k];
                           });
}

double CedModel::total_profit(std::span<const double> valuations,
                              std::span<const double> costs,
                              std::span<const double> prices) const {
  require_same_nonempty(valuations, costs, "total_profit");
  if (prices.size() != valuations.size()) {
    throw std::invalid_argument("total_profit: price vector size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    total += flow_profit(valuations[i], costs[i], prices[i]);
  }
  return total;
}

ValuationFit CedModel::fit_valuations(std::span<const double> demands,
                                      double blended_price) const {
  require_positive(blended_price, "blended price");
  if (demands.empty()) {
    throw std::invalid_argument("fit_valuations: no demands");
  }
  ValuationFit fit;
  fit.valuations.reserve(demands.size());
  for (const double q : demands) {
    require_positive(q, "demand");
    // From Eq. 2 at p = P0: v = q^(1/alpha) * P0.
    fit.valuations.push_back(std::pow(q, 1.0 / alpha_) * blended_price);
  }
  return fit;
}

double CedModel::fit_gamma(std::span<const double> valuations,
                           std::span<const double> relative_costs,
                           double blended_price) const {
  require_same_nonempty(valuations, relative_costs, "fit_gamma");
  require_positive(blended_price, "blended price");
  // gamma = P0 (alpha - 1) sum(v^alpha) / (alpha sum(f(d) v^alpha)): makes
  // P0 the optimal single-bundle price (invert Eq. 5 with c = gamma f(d)).
  double sum_w = 0.0, sum_fw = 0.0;
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    require_positive(valuations[i], "valuation");
    require_positive(relative_costs[i], "relative cost");
    const double w = std::pow(valuations[i], alpha_);
    sum_w += w;
    sum_fw += relative_costs[i] * w;
  }
  return blended_price * (alpha_ - 1.0) * sum_w / (alpha_ * sum_fw);
}

}  // namespace manytiers::demand
