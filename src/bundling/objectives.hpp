// The paper's segment objectives for the interval DP, shared by the
// optimal-bundling entry points, the DP-kernel benches, and the
// cross-check tests.
//
// Both objectives score a cost-sorted segment [i, j) of DP items from
// prefix sums of the model weights: they are positively homogeneous
// convex functions of (W, C) = (sum of weights, sum of weight * unit
// cost), which is what makes them totally monotone for the
// divide-and-conquer fast path (DESIGN.md §6). An item is a run of flows
// with exactly equal unit cost: the same convexity makes splitting such
// a run never profitable, so the DP runs over m <= n items instead of n
// flows (DESIGN.md §6). Instantiating fill_dp_tables<CedObjective> (or
// <LogitObjective>) compiles the inner loop down to two prefix-sum loads
// and one fused expression with no std::function dispatch.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace manytiers::bundling {

struct PrefixSums {
  std::vector<std::size_t> order;  // flow indices sorted by unit cost
  // m+1 offsets into `order`: item r is the run of equal-cost flows
  // order[runs[r] .. runs[r+1]).
  std::vector<std::size_t> runs;
  std::vector<double> w;   // m+1 prefix sums of weights, at run ends
  std::vector<double> wc;  // m+1 prefix sums of weight * cost, at run ends

  std::size_t items() const { return runs.empty() ? 0 : runs.size() - 1; }
};

// Stable-sort by unit cost, group exactly-equal costs (plain ==) into
// runs, and accumulate weight prefix sums flow by flow, kept at run
// ends. `weight` maps a valuation to the model's bundle weight, already
// normalized by the caller for overflow safety (both objectives are
// homogeneous in the weights, so normalization does not change the
// argmax). With `merge_ties` false every flow is its own item: the
// unmerged oracle the tests and benches compare against. Throws
// std::invalid_argument on empty/mismatched inputs or a cost that is not
// finite and > 0.
PrefixSums build_prefix_sums(std::span<const double> valuations,
                             std::span<const double> costs,
                             const std::function<double(double)>& weight,
                             bool merge_ties = true);

// Sort + prefix sums + the model's segment objective, built once and
// shared between the single-count entry points and the series variants
// so both run the same arithmetic.
struct CedObjective {
  PrefixSums ps;
  double alpha = 0.0;
  double kappa = 0.0;
  // Bundle profit at its optimal price, up to the weight normalization:
  // W * cbar^(1-alpha) * alpha^-alpha * (alpha-1)^(alpha-1). Inline so
  // the templated kernel's inner loop sees the loads and the pow.
  double operator()(std::size_t i, std::size_t j) const {
    const double w = ps.w[j] - ps.w[i];
    const double c_bar = (ps.wc[j] - ps.wc[i]) / w;
    return kappa * w * std::pow(c_bar, 1.0 - alpha);
  }
};

// Validates alpha > 1 and every valuation finite and > 0.
CedObjective make_ced_objective(std::span<const double> valuations,
                                std::span<const double> costs, double alpha,
                                bool merge_ties = true);

struct LogitObjective {
  PrefixSums ps;
  double alpha = 0.0;
  double cmin = 0.0;
  // Bundle quality W * e^{-alpha cbar}, shifted by cmin for stability
  // (multiplies every segment by the same e^{alpha cmin} constant).
  double operator()(std::size_t i, std::size_t j) const {
    const double w = ps.w[j] - ps.w[i];
    const double c_bar = (ps.wc[j] - ps.wc[i]) / w;
    return w * std::exp(-alpha * (c_bar - cmin));
  }
};

// Validates alpha > 0 and every valuation finite.
LogitObjective make_logit_objective(std::span<const double> valuations,
                                    std::span<const double> costs,
                                    double alpha, bool merge_ties = true);

}  // namespace manytiers::bundling
