#include "bundling/optimal.hpp"

#include <limits>
#include <stdexcept>

#include "bundling/dp_kernel.hpp"
#include "bundling/objectives.hpp"

namespace manytiers::bundling {

namespace {

void search_partitions(std::size_t n, std::size_t max_bundles, std::size_t i,
                       Bundling& current,
                       const std::function<double(const Bundling&)>& profit,
                       double& best_value, Bundling& best) {
  if (i == n) {
    const double value = profit(current);
    if (value > best_value) {
      best_value = value;
      best = current;
    }
    return;
  }
  // Flow i joins an existing bundle... (index loop: recursion may grow
  // `current` and invalidate iterators, but indices below `existing`
  // stay stable because deeper frames restore what they add)
  const std::size_t existing = current.size();
  for (std::size_t b = 0; b < existing; ++b) {
    current[b].push_back(i);
    search_partitions(n, max_bundles, i + 1, current, profit, best_value, best);
    current[b].pop_back();
  }
  // ...or opens a new one (canonical order avoids duplicate partitions).
  if (current.size() < max_bundles) {
    current.push_back({i});
    search_partitions(n, max_bundles, i + 1, current, profit, best_value, best);
    current.pop_back();
  }
}

}  // namespace

Bundling exhaustive_optimal(
    std::size_t n_flows, std::size_t max_bundles,
    const std::function<double(const Bundling&)>& profit) {
  if (n_flows == 0) throw std::invalid_argument("exhaustive_optimal: no flows");
  if (n_flows > 14) {
    throw std::invalid_argument(
        "exhaustive_optimal: refusing n > 14 (exponential search); use the "
        "interval DP instead");
  }
  if (max_bundles == 0) {
    throw std::invalid_argument("exhaustive_optimal: need at least one bundle");
  }
  Bundling current, best;
  double best_value = -std::numeric_limits<double>::infinity();
  search_partitions(n_flows, max_bundles, 0, current, profit, best_value, best);
  return best;
}

namespace {

void require_dp_args(std::size_t n, std::size_t n_bundles) {
  if (n == 0) throw std::invalid_argument("interval_dp: no flows");
  if (n_bundles == 0) {
    throw std::invalid_argument("interval_dp: need at least one bundle");
  }
}

// Shared single-count / series plumbing, templated on the concrete
// objective so ced_optimal / logit_optimal compile to direct calls into
// the kernel (the std::function entry points below instantiate it with
// the type-erased callable). `runs` groups the `order`-sorted flows into
// DP items (PrefixSums::runs); empty means one item per flow.
template <class Objective>
DpTables fill_items(std::span<const std::size_t> order,
                    std::span<const std::size_t> runs, std::size_t n_bundles,
                    const Objective& value) {
  require_dp_args(order.size(), n_bundles);
  const std::size_t items = runs.empty() ? order.size() : runs.size() - 1;
  return fill_dp_tables(items, std::min(n_bundles, items), value,
                        dp_kernel_options_from_env(), order.size());
}

template <class Objective>
Bundling interval_dp_impl(std::span<const std::size_t> order,
                          std::span<const std::size_t> runs,
                          std::size_t n_bundles, const Objective& value) {
  const auto tables = fill_items(order, runs, n_bundles, value);
  return extract_dp_bundling(tables, order, n_bundles, runs);
}

template <class Objective>
std::vector<Bundling> interval_dp_all_impl(std::span<const std::size_t> order,
                                           std::span<const std::size_t> runs,
                                           std::size_t max_bundles,
                                           const Objective& value) {
  const auto tables = fill_items(order, runs, max_bundles, value);
  std::vector<Bundling> out;
  out.reserve(max_bundles);
  for (std::size_t b = 1; b <= max_bundles; ++b) {
    out.push_back(extract_dp_bundling(tables, order, b, runs));
  }
  return out;
}

}  // namespace

Bundling interval_dp(std::span<const std::size_t> order, std::size_t n_bundles,
                     const std::function<double(std::size_t, std::size_t)>&
                         segment_value) {
  return interval_dp_impl(order, {}, n_bundles, segment_value);
}

std::vector<Bundling> interval_dp_all(
    std::span<const std::size_t> order, std::size_t max_bundles,
    const std::function<double(std::size_t, std::size_t)>& segment_value) {
  return interval_dp_all_impl(order, {}, max_bundles, segment_value);
}

Bundling ced_optimal(std::span<const double> valuations,
                     std::span<const double> costs, double alpha,
                     std::size_t n_bundles) {
  const auto obj = make_ced_objective(valuations, costs, alpha);
  return interval_dp_impl(obj.ps.order, obj.ps.runs, n_bundles, obj);
}

std::vector<Bundling> ced_optimal_series(std::span<const double> valuations,
                                         std::span<const double> costs,
                                         double alpha,
                                         std::size_t max_bundles) {
  const auto obj = make_ced_objective(valuations, costs, alpha);
  return interval_dp_all_impl(obj.ps.order, obj.ps.runs, max_bundles, obj);
}

Bundling logit_optimal(std::span<const double> valuations,
                       std::span<const double> costs, double alpha,
                       std::size_t n_bundles) {
  const auto obj = make_logit_objective(valuations, costs, alpha);
  return interval_dp_impl(obj.ps.order, obj.ps.runs, n_bundles, obj);
}

std::vector<Bundling> logit_optimal_series(std::span<const double> valuations,
                                           std::span<const double> costs,
                                           double alpha,
                                           std::size_t max_bundles) {
  const auto obj = make_logit_objective(valuations, costs, alpha);
  return interval_dp_all_impl(obj.ps.order, obj.ps.runs, max_bundles, obj);
}

}  // namespace manytiers::bundling
