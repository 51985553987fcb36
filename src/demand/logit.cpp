#include "demand/logit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/optimize.hpp"

namespace manytiers::demand {

namespace {
void require_same_nonempty(std::span<const double> a, std::span<const double> b,
                           const char* what) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": inputs must be equal-size and non-empty");
  }
}

// Eqs. 10-11 over the flows at(0), ..., at(count - 1), computed stably
// around the largest valuation:
//   v_b = max_v + ln(sum_i w_i) / alpha,  c_b = sum_i c_i w_i / sum_i w_i,
//   w_i = e^{alpha (v_i - max_v)}.
// The cost sum is skipped when kWithCost is false (costs may be empty).
template <bool kWithCost, typename At>
LogitModel::BundleAggregate aggregate_over(double alpha,
                                           std::span<const double> valuations,
                                           std::span<const double> costs,
                                           std::size_t count, At at) {
  double vmax = valuations[at(0)];
  for (std::size_t k = 1; k < count; ++k) {
    vmax = std::max(vmax, valuations[at(k)]);
  }
  double sum = 0.0, num = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = at(k);
    const double w = std::exp(alpha * (valuations[i] - vmax));
    if constexpr (kWithCost) num += costs[i] * w;
    sum += w;
  }
  return {vmax + std::log(sum) / alpha, num / sum};
}
}  // namespace

LogitModel::LogitModel(double alpha, double market_size)
    : alpha_(alpha), market_size_(market_size) {
  if (!(alpha > 0.0)) throw std::invalid_argument("LogitModel: alpha must be > 0");
  if (!(market_size > 0.0)) {
    throw std::invalid_argument("LogitModel: market size must be > 0");
  }
}

std::vector<double> LogitModel::shares(std::span<const double> valuations,
                                       std::span<const double> prices) const {
  require_same_nonempty(valuations, prices, "shares");
  // Numerically stable softmax against the outside option's utility 0.
  // `out` holds the utilities, then each e^{u_i - max_u} (computed once),
  // then the shares.
  double max_u = 0.0;
  std::vector<double> out(valuations.size());
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    out[i] = alpha_ * (valuations[i] - prices[i]);
    max_u = std::max(max_u, out[i]);
  }
  double denom = std::exp(-max_u);  // the outside option
  for (double& e : out) {
    e = std::exp(e - max_u);
    denom += e;
  }
  for (double& e : out) e /= denom;
  return out;
}

double LogitModel::no_purchase_share(std::span<const double> valuations,
                                     std::span<const double> prices) const {
  const auto s = shares(valuations, prices);
  double total = 0.0;
  for (double si : s) total += si;
  return std::max(0.0, 1.0 - total);
}

std::vector<double> LogitModel::quantities(
    std::span<const double> valuations, std::span<const double> prices) const {
  auto s = shares(valuations, prices);
  for (auto& si : s) si *= market_size_;
  return s;
}

double LogitModel::total_profit(std::span<const double> valuations,
                                std::span<const double> costs,
                                std::span<const double> prices) const {
  require_same_nonempty(valuations, costs, "total_profit");
  if (prices.size() != valuations.size()) {
    throw std::invalid_argument("total_profit: price vector size mismatch");
  }
  const auto s = shares(valuations, prices);
  double profit = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    profit += s[i] * (prices[i] - costs[i]);
  }
  return market_size_ * profit;
}

double LogitModel::consumer_surplus(std::span<const double> valuations,
                                    std::span<const double> prices) const {
  require_same_nonempty(valuations, prices, "consumer_surplus");
  // Stable log-sum-exp including the outside option's utility 0.
  double max_u = 0.0;
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    max_u = std::max(max_u, alpha_ * (valuations[i] - prices[i]));
  }
  double sum = std::exp(-max_u);
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    sum += std::exp(alpha_ * (valuations[i] - prices[i]) - max_u);
  }
  return market_size_ / alpha_ * (max_u + std::log(sum));
}

LogitModel::PricingResult LogitModel::optimal_prices(
    std::span<const double> valuations, std::span<const double> costs) const {
  require_same_nonempty(valuations, costs, "optimal_prices");
  // At the optimum every flow carries markup m = 1/(alpha s0), and with
  // p_i = c_i + m the fixed point is m = g(m), g(m) = (1 + S e^{-alpha m})
  // / alpha where S = sum_i e^{alpha(v_i - c_i)}. h(m) = m - g(m) is
  // strictly increasing, so bisection is exact. S is kept in log space
  // (stable log-sum-exp) so large alpha * (v - c) cannot overflow.
  double umax = alpha_ * (valuations[0] - costs[0]);
  for (std::size_t i = 1; i < valuations.size(); ++i) {
    umax = std::max(umax, alpha_ * (valuations[i] - costs[i]));
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    sum += std::exp(alpha_ * (valuations[i] - costs[i]) - umax);
  }
  const double log_s = umax + std::log(sum);
  const auto g = [&](double m) {
    const double ex = log_s - alpha_ * m;
    return (1.0 + (ex > 700.0 ? std::exp(700.0) : std::exp(ex))) / alpha_;
  };
  // h(lo) < 0 (g explodes as m -> 0) and h(hi) > 0 by construction.
  const double lo = std::max(1e-12, (log_s - 700.0) / alpha_);
  const double hi = (2.0 + std::max(0.0, log_s)) / alpha_;
  const double m = util::find_root([&](double x) { return x - g(x); }, lo, hi,
                                   1e-13 * std::max(1.0, hi));
  PricingResult res;
  res.markup = m;
  res.prices.resize(costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) res.prices[i] = costs[i] + m;
  res.profit = total_profit(valuations, costs, res.prices);
  res.converged = true;
  return res;
}

LogitModel::PricingResult LogitModel::gradient_prices(
    std::span<const double> valuations, std::span<const double> costs) const {
  require_same_nonempty(valuations, costs, "gradient_prices");
  const std::vector<double> v(valuations.begin(), valuations.end());
  const std::vector<double> c(costs.begin(), costs.end());
  util::GradientAscentOptions opts;
  opts.lower_bounds = c;  // prices below cost are never profitable here
  opts.tol = 1e-12;
  // Start from a uniform small markup over cost.
  std::vector<double> p0 = c;
  for (auto& p : p0) p += 1.0 / alpha_;
  const auto objective = [&](std::span<const double> p) {
    return total_profit(v, c, p);
  };
  auto res = util::gradient_ascent(objective, std::move(p0), opts);
  PricingResult out;
  out.prices = std::move(res.x);
  out.profit = res.value;
  out.converged = res.converged;
  double markup = 0.0;
  for (std::size_t i = 0; i < out.prices.size(); ++i) {
    markup += out.prices[i] - c[i];
  }
  out.markup = markup / double(out.prices.size());
  return out;
}

double LogitModel::potential_profit_weight(double observed_demand) const {
  if (!(observed_demand > 0.0)) {
    throw std::invalid_argument("potential_profit_weight: demand must be > 0");
  }
  // Eq. 13: pi_i = K s_i / (alpha s0) is proportional to observed demand.
  return observed_demand;
}

double LogitModel::bundle_valuation(std::span<const double> valuations) const {
  if (valuations.empty()) {
    throw std::invalid_argument("bundle_valuation: empty bundle");
  }
  return aggregate_over<false>(alpha_, valuations, {}, valuations.size(),
                               [](std::size_t k) { return k; })
      .valuation;
}

double LogitModel::bundle_cost(std::span<const double> valuations,
                               std::span<const double> costs) const {
  require_same_nonempty(valuations, costs, "bundle_cost");
  return aggregate_over<true>(alpha_, valuations, costs, valuations.size(),
                              [](std::size_t k) { return k; })
      .cost;
}

LogitModel::BundleAggregate LogitModel::bundle_aggregate(
    std::span<const double> valuations, std::span<const double> costs,
    std::span<const std::size_t> members) const {
  if (members.empty() || valuations.size() != costs.size()) {
    throw std::invalid_argument(
        "bundle_aggregate: need a non-empty bundle over equal-size columns");
  }
  return aggregate_over<true>(alpha_, valuations, costs, members.size(),
                              [&](std::size_t k) {
                                if (members[k] >= valuations.size()) {
                                  throw std::invalid_argument(
                                      "bundle_aggregate: member out of range");
                                }
                                return members[k];
                              });
}

ValuationFit LogitModel::fit_valuations(std::span<const double> demands,
                                        double blended_price,
                                        double no_purchase_share,
                                        double alpha) {
  if (demands.empty()) throw std::invalid_argument("fit_valuations: no demands");
  if (!(blended_price > 0.0)) {
    throw std::invalid_argument("fit_valuations: blended price must be > 0");
  }
  if (!(no_purchase_share > 0.0 && no_purchase_share < 1.0)) {
    throw std::invalid_argument("fit_valuations: s0 must be in (0, 1)");
  }
  if (!(alpha > 0.0)) throw std::invalid_argument("fit_valuations: alpha must be > 0");
  double total = 0.0;
  for (double q : demands) {
    if (!(q > 0.0)) throw std::invalid_argument("fit_valuations: demand must be > 0");
    total += q;
  }
  ValuationFit fit;
  // Q_i = K s_i with sum_i s_i = 1 - s0 pins K = sum q / (1 - s0).
  fit.market_size = total / (1.0 - no_purchase_share);
  fit.valuations.reserve(demands.size());
  for (double q : demands) {
    const double share = q * (1.0 - no_purchase_share) / total;
    // §4.1.2: v_i = (ln s_i - ln s0)/alpha + P0.
    fit.valuations.push_back(
        (std::log(share) - std::log(no_purchase_share)) / alpha +
        blended_price);
  }
  return fit;
}

double LogitModel::fit_gamma(std::span<const double> valuations,
                             std::span<const double> relative_costs,
                             double blended_price) const {
  require_same_nonempty(valuations, relative_costs, "fit_gamma");
  if (!(blended_price > 0.0)) {
    throw std::invalid_argument("fit_gamma: blended price must be > 0");
  }
  // First-order condition for the blended price P0 with c_i = gamma f(d_i):
  //   gamma = E (alpha P0 - 1 - E) / (alpha sum_i f(d_i) e_i),
  // with e_i = e^{alpha (v_i - P0)} and E = sum_i e_i (§4.1.3).
  double e_sum = 0.0, fe_sum = 0.0;
  for (std::size_t i = 0; i < valuations.size(); ++i) {
    if (!(relative_costs[i] > 0.0)) {
      throw std::invalid_argument("fit_gamma: relative costs must be > 0");
    }
    const double e = std::exp(alpha_ * (valuations[i] - blended_price));
    e_sum += e;
    fe_sum += relative_costs[i] * e;
  }
  const double gamma =
      e_sum * (alpha_ * blended_price - 1.0 - e_sum) / (alpha_ * fe_sum);
  if (!(gamma > 0.0)) {
    throw std::domain_error(
        "fit_gamma: calibration infeasible (alpha * P0 <= 1/s0); the blended "
        "rate cannot be profit-maximizing for these parameters");
  }
  return gamma;
}

}  // namespace manytiers::demand
