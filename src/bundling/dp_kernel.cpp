#include "bundling/dp_kernel.hpp"

#include <cstdlib>
#include <cstring>

namespace manytiers::bundling {

namespace dp_detail {

const DpCounters& dp_counters() {
  static const DpCounters counters{
      &obs::Registry::instance().counter("bundling.dp_fills"),
      &obs::Registry::instance().counter("bundling.dp_cells"),
      &obs::Registry::instance().counter("bundling.dp_fastpath"),
      &obs::Registry::instance().counter("bundling.dp_fallbacks"),
  };
  return counters;
}

}  // namespace dp_detail

DpKernelOptions dp_kernel_options_from_env() {
  DpKernelOptions opt;
  if (const char* env = std::getenv("MANYTIERS_DP_KERNEL")) {
    if (std::strcmp(env, "naive") == 0) {
      opt.kernel = DpKernel::kNaive;
    } else if (std::strcmp(env, "dc") == 0) {
      opt.kernel = DpKernel::kDivideConquer;
    }
    // "auto", empty, or unrecognized: keep the default (probe + D&C).
  }
  return opt;
}

Bundling extract_dp_bundling(const DpTables& t,
                             std::span<const std::size_t> order,
                             std::size_t n_bundles,
                             std::span<const std::size_t> runs) {
  const std::size_t n = t.n;
  const std::size_t b_cap = std::min(n_bundles, n);
  // More bundles can never hurt (the objective is superadditive), but take
  // the max over b anyway to stay correct for arbitrary segment values.
  std::size_t b_best = 1;
  for (std::size_t b = 2; b <= b_cap; ++b) {
    if (t.best_at(b, n) > t.best_at(b_best, n)) b_best = b;
  }
  const auto flow_offset = [&](std::size_t item) {
    return runs.empty() ? item : runs[item];
  };
  Bundling out(b_best);
  std::size_t end = n;
  for (std::size_t b = b_best; b >= 1; --b) {
    const std::size_t start = t.split_at(b, end);
    for (std::size_t r = flow_offset(start); r < flow_offset(end); ++r) {
      out[b - 1].push_back(order[r]);
    }
    end = start;
  }
  return out;
}

}  // namespace manytiers::bundling
