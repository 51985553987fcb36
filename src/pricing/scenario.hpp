// Calibrated market scenarios (paper Fig. 7 and §4.1).
//
// A Market is the output of the paper's "mapping data to models" step:
// starting from observed flows (demand + distance), a demand model, a
// cost model, and the blended rate P0, it solves for the per-flow
// valuations v_i and the cost scale gamma under the assumption that the
// ISP is already rational and profit-maximizing at the blended rate. The
// calibration has a built-in consistency property: re-optimizing a single
// blended bundle recovers exactly P0.
//
// Calibration splits into what depends only on (flows, cost model) and
// what it fits. MarketInputs holds the former: the cost-expanded flows,
// their relative costs and cost classes. It is immutable once built and
// shared by reference count, so every market calibrated from the same
// (dataset, cost model) pair — across demand models and sweep points —
// reads one copy. A Market owns only what it fits: valuations, costs,
// gamma and the demand model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cost/cost.hpp"
#include "demand/ced.hpp"
#include "demand/demand.hpp"
#include "demand/logit.hpp"
#include "workload/flowset.hpp"

namespace manytiers::pricing {

struct DemandSpec {
  demand::DemandKind kind = demand::DemandKind::ConstantElasticity;
  double alpha = 1.1;              // price sensitivity
  double no_purchase_share = 0.2;  // s0 at the blended rate (logit only)
};

// The calibration inputs of one (flow set, cost model) pair. Every
// vector has one entry per expanded flow.
struct MarketInputs {
  workload::FlowSet flows;  // cost-expanded
  std::vector<double> relative_costs;
  std::vector<std::size_t> classes;
};

// Expand `flows` under `cost_model` and compute the relative costs and
// cost classes (the destination-type model splits each flow into on/off-
// net sub-flows). Throws std::invalid_argument on an empty flow set.
std::shared_ptr<const MarketInputs> prepare_inputs(
    const workload::FlowSet& flows, const cost::CostModel& cost_model);

class Market {
 public:
  // Calibrate a market from shared inputs. Throws std::invalid_argument
  // on null, empty or mis-sized `inputs` or a non-positive blended price.
  static Market calibrate(std::shared_ptr<const MarketInputs> inputs,
                          const DemandSpec& demand_spec,
                          double blended_price);

  // Calibrate a market from observed flows: prepare_inputs, then the
  // overload above. An empty flow set throws before the blended price
  // is checked.
  static Market calibrate(const workload::FlowSet& flows,
                          const DemandSpec& demand_spec,
                          const cost::CostModel& cost_model,
                          double blended_price);

  const workload::FlowSet& flows() const { return inputs_->flows; }
  std::size_t size() const { return inputs_->flows.size(); }
  const DemandSpec& demand_spec() const { return spec_; }
  double blended_price() const { return blended_price_; }

  const std::vector<double>& valuations() const { return valuations_; }
  const std::vector<double>& costs() const { return costs_; }
  const std::vector<double>& relative_costs() const {
    return inputs_->relative_costs;
  }
  double gamma() const { return gamma_; }
  // Cost class of each flow (for class-aware bundling) and class count.
  const std::vector<std::size_t>& cost_classes() const {
    return inputs_->classes;
  }
  std::size_t cost_class_count() const;

  // The fitted demand model. Exactly one is engaged, per spec().kind.
  const demand::CedModel& ced() const;
  const demand::LogitModel& logit() const;

  // Baseline profits of the calibrated market, the two invariants every
  // capture evaluation divides by: profit at the blended rate P0 and
  // profit under per-flow pricing (both O(n); the logit maximum runs a
  // price solve). Computed lazily on first use, then cached — thread-safe
  // via std::call_once, and shared across copies of the market (the
  // calibrated state they derive from is immutable).
  double blended_profit() const;
  double max_profit() const;

  // Topology-epoch tag for dynamic-network workflows. A market calibrated
  // against topology epoch E carries E; re-tagging with a different epoch
  // swaps in a fresh unprimed baseline-profit cache (the cached profits
  // were computed from stale costs, and a std::once_flag cannot be
  // re-armed in place). Re-tagging with the same epoch is a no-op, so
  // clean markets keep their primed caches. Copies made before a re-tag
  // keep the old, still-self-consistent cache; the swap is not
  // synchronized against concurrent baseline reads of the same object.
  std::uint64_t topology_epoch() const { return topology_epoch_; }
  void tag_topology_epoch(std::uint64_t epoch);

 private:
  Market() = default;

  struct ProfitCache;
  const ProfitCache& primed_cache() const;

  std::shared_ptr<const MarketInputs> inputs_;  // shared, never mutated
  DemandSpec spec_;
  double blended_price_ = 0.0;
  std::vector<double> valuations_;
  std::vector<double> costs_;
  double gamma_ = 0.0;
  std::optional<demand::CedModel> ced_;
  std::optional<demand::LogitModel> logit_;
  std::uint64_t topology_epoch_ = 0;
  std::shared_ptr<ProfitCache> profit_cache_;  // created by calibrate()
};

}  // namespace manytiers::pricing
