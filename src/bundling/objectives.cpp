#include "bundling/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace manytiers::bundling {

namespace {

void require_sizes(std::span<const double> valuations,
                   std::span<const double> costs) {
  if (valuations.empty() || valuations.size() != costs.size()) {
    throw std::invalid_argument(
        "optimal bundling: valuations/costs must be equal-size, non-empty");
  }
}

}  // namespace

PrefixSums build_prefix_sums(std::span<const double> valuations,
                             std::span<const double> costs,
                             const std::function<double(double)>& weight,
                             bool merge_ties) {
  require_sizes(valuations, costs);
  // Before the sort: a NaN would break the comparator's strict weak
  // ordering (and, since NaN != NaN, the tie-run detection below).
  for (const double c : costs) {
    if (!std::isfinite(c) || !(c > 0.0)) {
      throw std::invalid_argument(
          "optimal bundling: costs must be finite and > 0");
    }
  }
  PrefixSums ps;
  ps.order.resize(valuations.size());
  std::iota(ps.order.begin(), ps.order.end(), std::size_t{0});
  std::stable_sort(ps.order.begin(), ps.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return costs[a] < costs[b];
                   });
  // Accumulate flow by flow in sorted order, but keep the sums only at
  // the end of each run of exactly-equal costs: an item's prefix sums
  // are then bitwise the per-flow prefix sums at its run end.
  ps.runs.push_back(0);
  ps.w.push_back(0.0);
  ps.wc.push_back(0.0);
  double w = 0.0;
  double wc = 0.0;
  for (std::size_t r = 0; r < ps.order.size(); ++r) {
    const std::size_t i = ps.order[r];
    const double wi = weight(valuations[i]);
    w += wi;
    wc += wi * costs[i];
    if (!merge_ties || r + 1 == ps.order.size() ||
        costs[ps.order[r + 1]] != costs[i]) {
      ps.runs.push_back(r + 1);
      ps.w.push_back(w);
      ps.wc.push_back(wc);
    }
  }
  return ps;
}

CedObjective make_ced_objective(std::span<const double> valuations,
                                std::span<const double> costs, double alpha,
                                bool merge_ties) {
  if (!(alpha > 1.0)) throw std::invalid_argument("ced_optimal: alpha must be > 1");
  require_sizes(valuations, costs);
  for (const double v : valuations) {
    if (!std::isfinite(v) || !(v > 0.0)) {
      throw std::invalid_argument(
          "ced_optimal: valuations must be finite and > 0");
    }
  }
  const double vmax = *std::max_element(valuations.begin(), valuations.end());
  CedObjective obj;
  obj.ps = build_prefix_sums(
      valuations, costs,
      [alpha, vmax](double v) { return std::pow(v / vmax, alpha); },
      merge_ties);
  obj.alpha = alpha;
  obj.kappa = std::pow(alpha, -alpha) * std::pow(alpha - 1.0, alpha - 1.0);
  return obj;
}

LogitObjective make_logit_objective(std::span<const double> valuations,
                                    std::span<const double> costs,
                                    double alpha, bool merge_ties) {
  if (!(alpha > 0.0)) {
    throw std::invalid_argument("logit_optimal: alpha must be > 0");
  }
  require_sizes(valuations, costs);
  for (const double v : valuations) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("logit_optimal: valuations must be finite");
    }
  }
  const double vmax = *std::max_element(valuations.begin(), valuations.end());
  LogitObjective obj;
  obj.ps = build_prefix_sums(
      valuations, costs,
      [alpha, vmax](double v) { return std::exp(alpha * (v - vmax)); },
      merge_ties);
  obj.alpha = alpha;
  obj.cmin = *std::min_element(costs.begin(), costs.end());
  return obj;
}

}  // namespace manytiers::bundling
