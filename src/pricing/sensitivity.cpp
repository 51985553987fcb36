#include "pricing/sensitivity.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace manytiers::pricing {

SweepResult sweep_captures(std::span<const double> parameter_values,
                           const std::function<Market(double)>& calibrate,
                           Strategy strategy, std::size_t max_bundles,
                           std::size_t threads) {
  if (parameter_values.empty()) {
    throw std::invalid_argument("sweep_captures: no parameter values");
  }
  if (max_bundles == 0) {
    throw std::invalid_argument("sweep_captures: need at least one bundle");
  }
  static obs::Counter& points_counter =
      obs::Registry::instance().counter("pricing.sweep_points");
  points_counter.add(parameter_values.size());
  const obs::Span span(
      "sweep_captures",
      obs::Tracer::instance().active()
          ? "{\"points\":" + std::to_string(parameter_values.size()) +
                ",\"max_bundles\":" + std::to_string(max_bundles) + "}"
          : std::string());
  // Each parameter point calibrates its own market and evaluates its own
  // capture series; points never touch shared state, so they fan out
  // across threads. The min/max reduction below then runs serially in
  // parameter order, making the result independent of the thread count.
  std::vector<std::vector<double>> series(parameter_values.size());
  util::parallel_for(
      parameter_values.size(),
      [&](std::size_t p) {
        const Market market = calibrate(parameter_values[p]);
        series[p] = capture_series(market, strategy, max_bundles);
      },
      threads);
  SweepResult out;
  out.min_capture.assign(max_bundles, std::numeric_limits<double>::max());
  out.max_capture.assign(max_bundles, -std::numeric_limits<double>::max());
  for (const auto& point : series) {
    for (std::size_t b = 0; b < max_bundles; ++b) {
      out.min_capture[b] = std::min(out.min_capture[b], point[b]);
      out.max_capture[b] = std::max(out.max_capture[b], point[b]);
    }
    ++out.points;
  }
  return out;
}

// Every point of a sweep calibrates from the same flows and cost model,
// so each sweep prepares the shared inputs once.
namespace {
std::shared_ptr<const MarketInputs> shared_inputs(
    const SensitivityInputs& inputs) {
  if (inputs.flows == nullptr || inputs.cost_model == nullptr) {
    throw std::invalid_argument("sensitivity sweep: null flows or cost model");
  }
  return prepare_inputs(*inputs.flows, *inputs.cost_model);
}
}  // namespace

SweepResult sweep_alpha(const SensitivityInputs& inputs,
                        std::span<const double> alphas) {
  const auto shared = shared_inputs(inputs);
  return sweep_captures(
      alphas,
      [&](double alpha) {
        DemandSpec spec = inputs.demand;
        spec.alpha = alpha;
        return Market::calibrate(shared, spec, inputs.blended_price);
      },
      inputs.strategy, inputs.max_bundles, inputs.threads);
}

SweepResult sweep_blended_price(const SensitivityInputs& inputs,
                                std::span<const double> prices) {
  const auto shared = shared_inputs(inputs);
  return sweep_captures(
      prices,
      [&](double p0) { return Market::calibrate(shared, inputs.demand, p0); },
      inputs.strategy, inputs.max_bundles, inputs.threads);
}

SweepResult sweep_no_purchase_share(const SensitivityInputs& inputs,
                                    std::span<const double> shares) {
  const auto shared = shared_inputs(inputs);
  if (inputs.demand.kind != demand::DemandKind::Logit) {
    throw std::invalid_argument(
        "sweep_no_purchase_share: s0 only exists in the logit model");
  }
  return sweep_captures(
      shares,
      [&](double s0) {
        DemandSpec spec = inputs.demand;
        spec.no_purchase_share = s0;
        return Market::calibrate(shared, spec, inputs.blended_price);
      },
      inputs.strategy, inputs.max_bundles, inputs.threads);
}

}  // namespace manytiers::pricing
