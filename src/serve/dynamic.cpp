#include "serve/dynamic.hpp"

#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topology/internet2.hpp"
#include "util/parallel.hpp"
#include "workload/generators.hpp"

namespace manytiers::serve {

DynamicState::DynamicState(const driver::ExperimentGrid& grid)
    : grid_(grid), net_(topology::internet2_network()) {
  driver::validate_grid(grid_);
  if (grid_.sweep.kind != driver::SweepAxis::Kind::None) {
    throw std::invalid_argument(
        "serve dynamic: grid \"" + grid_.name +
        "\" has a sweep axis; the daemon serves base-parameter markets "
        "only");
  }
  const workload::GeneratorOptions gen{.seed = grid_.base.seed,
                                       .n_flows = grid_.base.n_flows};
  flows_.reserve(grid_.datasets.size());
  recosters_.reserve(grid_.datasets.size());
  for (const auto kind : grid_.datasets) {
    if (kind == workload::DatasetKind::Internet2) {
      // Epoch-0 distances equal all_pairs_distances(backbone) bit-for-
      // bit, so these flows match the startup snapshot's exactly.
      workload::TopologyBinding binding;
      flows_.push_back(workload::generate_internet2(
          gen, topology::internet2_network(), net_.distances(), &binding));
      recosters_.emplace_back(netdyn::FlowRecoster(std::move(binding)));
    } else {
      flows_.push_back(workload::generate_dataset(kind, gen));
      recosters_.emplace_back(std::nullopt);
    }
  }
}

DynamicState::Derived DynamicState::apply(
    const Snapshot& prev, std::span<const netdyn::NetworkUpdate> batch,
    std::uint64_t epoch, std::size_t threads) {
  static obs::Counter& rebuilt_counter =
      obs::Registry::instance().counter("serve.markets_recalibrated");
  const obs::Span span(
      "serve.dynamic_reload",
      obs::Tracer::instance().active()
          ? "{\"updates\":" + std::to_string(batch.size()) + "}"
          : std::string());

  const netdyn::DistanceDelta delta = net_.apply(batch);

  std::vector<std::size_t> dirty;
  if (!delta.empty()) {
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (!recosters_[i]) continue;
      if (recosters_[i]->recost(flows_[i], delta, net_.distances()) != 0) {
        dirty.push_back(i);
      }
    }
  }

  auto next = std::make_shared<Snapshot>();
  next->epoch = epoch;
  next->grid = prev.grid;
  next->markets = prev.markets;  // clean entries stay shared
  next->by_key = prev.by_key;    // same keys, same slots

  Derived out;
  if (!dirty.empty()) {
    // Markets enumerate dataset-major, so dataset ds owns the contiguous
    // index block [ds * per_ds, (ds + 1) * per_ds).
    const std::size_t n_cost = grid_.cost_kinds.size();
    const std::size_t n_dem = grid_.demand_kinds.size();
    const std::size_t per_ds = n_dem * n_cost;
    std::vector<std::size_t> rebuild;
    rebuild.reserve(dirty.size() * per_ds);
    for (const std::size_t ds : dirty) {
      for (std::size_t k = 0; k < per_ds; ++k) {
        rebuild.push_back(ds * per_ds + k);
      }
    }
    const auto inputs = prepare_market_inputs(grid_, flows_, dirty);
    util::parallel_for(
        rebuild.size(),
        [&](std::size_t j) {
          const std::size_t m = rebuild[j];
          const std::size_t cost_i = m % n_cost;
          const std::size_t dem_i = (m / n_cost) % n_dem;
          const std::size_t ds_i = m / n_cost / n_dem;
          next->markets[m] =
              build_market_entry(grid_, flows_[ds_i],
                                 inputs[ds_i * n_cost + cost_i], ds_i, dem_i,
                                 cost_i);
        },
        threads);
    out.recalibrated = rebuild.size();
    rebuilt_counter.add(rebuild.size());
  }
  out.snapshot = std::move(next);
  return out;
}

std::shared_ptr<const Snapshot> DynamicState::scratch_snapshot(
    std::uint64_t epoch, std::size_t threads) const {
  const topology::DistanceMatrix dist = net_.scratch_distances();
  std::vector<workload::FlowSet> flows = flows_;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (recosters_[i]) recosters_[i]->recost_all(flows[i], dist);
  }
  SnapshotBuildOptions build;
  build.threads = threads;
  build.epoch = epoch;
  build.flows_override = &flows;
  return build_snapshot(grid_, build);
}

}  // namespace manytiers::serve
