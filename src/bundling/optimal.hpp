// Optimal bundling (paper §4.2.1, the "Optimal" strategy).
//
// The paper exhaustively searches all bundle combinations; that is
// exponential, so we also provide an exact polynomial algorithm. For both
// demand models, a bundle's contribution to total optimal profit depends
// only on (W, C) = (sum of flow weights, sum of weight * unit cost):
//
//   CED:   weight w_i = v_i^alpha; bundle profit at its optimal price is
//          W * (C/W)^(1-alpha) * alpha^(-alpha) * (alpha-1)^(alpha-1),
//          and total profit is the sum over bundles.
//   Logit: weight w_i = e^{alpha v_i}; total profit is monotone in the
//          bundle-set quality G = sum_b W_b * e^{-alpha C_b / W_b}.
//
// Both per-bundle objectives are positively homogeneous and convex in
// (W, C), so some optimal partition is contiguous in unit cost c_i: sort
// flows by cost and split into intervals. That makes an O(B n^2) interval
// DP exact; tests verify it against exhaustive enumeration on small
// instances for both models. The same convexity shows that no optimum
// needs to split a run of flows with equal unit cost, so ced_optimal /
// logit_optimal run the DP over the m <= n distinct-cost runs
// (DESIGN.md §6) — calibrated markets have few distinct costs.
#pragma once

#include <functional>
#include <span>

#include "bundling/bundle.hpp"

namespace manytiers::bundling {

// Exhaustive search over every partition of {0..n-1} into at most
// `max_bundles` non-empty bundles, maximizing `profit`. Exponential;
// refuses n_flows > 14.
Bundling exhaustive_optimal(std::size_t n_flows, std::size_t max_bundles,
                            const std::function<double(const Bundling&)>& profit);

// Exact optimal bundling for the CED model (interval DP over the m
// distinct-cost runs, O(B m^2) worst case).
Bundling ced_optimal(std::span<const double> valuations,
                     std::span<const double> costs, double alpha,
                     std::size_t n_bundles);

// Exact optimal bundling for the logit model (interval DP over the m
// distinct-cost runs, O(B m^2) worst case).
Bundling logit_optimal(std::span<const double> valuations,
                       std::span<const double> costs, double alpha,
                       std::size_t n_bundles);

// Series variants: element b-1 equals ced_optimal / logit_optimal at
// bundle count b, for every b in 1..max_bundles, from ONE sort, one set
// of prefix sums, and one DP table fill (interval_dp_all) — O(n^2 B)
// total instead of O(n^2 B^2) for the per-b loop.
std::vector<Bundling> ced_optimal_series(std::span<const double> valuations,
                                         std::span<const double> costs,
                                         double alpha,
                                         std::size_t max_bundles);
std::vector<Bundling> logit_optimal_series(std::span<const double> valuations,
                                           std::span<const double> costs,
                                           double alpha,
                                           std::size_t max_bundles);

// Shared machinery: maximize the sum of `segment_value(i, j)` (value of
// the sorted segment [i, j)) over partitions of the `order`-sorted flows
// into at most `n_bundles` intervals. Returns bundles of original indices.
Bundling interval_dp(std::span<const std::size_t> order,
                     std::size_t n_bundles,
                     const std::function<double(std::size_t, std::size_t)>&
                         segment_value);

// One DP fill, every bundle count: element b-1 is identical to
// interval_dp(order, b, segment_value) for b = 1..max_bundles. The DP
// rows are shared across bundle counts (row b only reads row b-1), so
// filling once and reconstructing per b gives bit-identical results at
// 1/max_bundles of the cost.
std::vector<Bundling> interval_dp_all(
    std::span<const std::size_t> order, std::size_t max_bundles,
    const std::function<double(std::size_t, std::size_t)>& segment_value);

// Implementation note: every entry point above runs through the layered
// kernel in bundling/dp_kernel.hpp — flat row-major tables with uint32
// split indices, a divide-and-conquer O(n log n)-per-row fast path when
// the objective passes the total-monotonicity probe (both CED and logit
// do; DESIGN.md §6), a naive-fill fallback otherwise, and deterministic
// chunked parallelism for rows past a width threshold. For a given item
// set the tables are bit-identical to the naive fill at any thread
// count; the MANYTIERS_DP_KERNEL env var ("auto" | "naive" | "dc")
// forces a kernel for A/B byte-compares. ced_optimal* / logit_optimal*
// fill over merged equal-cost runs and match the per-flow interval_dp
// fill in profit up to rounding: they can differ only where a bundle
// count exceeds the number of distinct costs or on floating-point ties,
// where the per-flow fill may split a run on rounding noise.
//
// Instrumentation (obs registry, per-thread sharded, safe under
// parallel sweeps): "bundling.dp_fills" counts table fills (shared by
// interval_dp and interval_dp_all; tests enable the registry and assert
// a capture series costs exactly one fill), "bundling.dp_cells" the DP
// cells computed, and "bundling.dp_fastpath" / "bundling.dp_fallbacks"
// partition auto-kernel fills by whether the monotonicity probe let the
// divide-and-conquer path run.

}  // namespace manytiers::bundling
