// Synthetic dataset generators standing in for the paper's three networks.
//
// The paper drives its model with 24-hour NetFlow captures from an EU
// transit ISP, a global CDN, and Internet2. Those traces are proprietary,
// so we synthesize datasets with the same *structure* (geographic
// endpoints, regional mix, routing) and then calibrate them to the four
// Table 1 moments the analysis actually depends on: demand-weighted mean
// flow distance, CV of flow distance, aggregate traffic, and CV of flow
// demand. Calibration uses rank-preserving transforms (power + scale), so
// the geography still determines which flows are short or long.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "topology/dijkstra.hpp"
#include "util/rng.hpp"
#include "workload/flowset.hpp"

namespace manytiers::workload {

enum class DatasetKind { EuIsp, Cdn, Internet2 };

std::string_view to_string(DatasetKind kind);

// The paper's Table 1 target moments.
struct DatasetSpec {
  std::string_view name;
  double wavg_distance_miles = 0.0;
  double cv_distance = 0.0;
  double aggregate_gbps = 0.0;
  double cv_demand = 0.0;
};

DatasetSpec paper_spec(DatasetKind kind);

struct GeneratorOptions {
  std::uint64_t seed = 42;
  std::size_t n_flows = 400;
  // When true (default), calibrate distances and demands to the paper's
  // Table 1 moments; when false, return the raw geographic dataset.
  bool calibrate_moments = true;
  // Rank correlation between demand and distance, in [-1, 1]. Transit
  // traffic is demand-heavy on short paths (popular content is replicated
  // close to users; an ISP's largest customers are local), which is also
  // what makes the paper's demand/profit-weighted heuristics competitive
  // with cost-aware ones. -0.8 reproduces that structure; 0 disables it.
  double demand_distance_correlation = -0.8;
};

// The monotone transform calibrate_to_spec applied to one column:
// calibrated = scale * raw^power, with the power step skipped when the
// fit degenerated (fewer than 2 values, or zero spread). apply() replays
// the exact operations (pow then multiply) in the original order, so
// feeding back a raw value the calibration saw reproduces the calibrated
// value bit-for-bit — the anchor of the dynamic-network re-cost path,
// which freezes the epoch-0 transform and pushes updated raw distances
// through it.
struct ColumnTransform {
  std::optional<double> power;  // nullopt: power step was skipped
  double scale = 1.0;

  double apply(double raw) const {
    const double shaped = power ? std::pow(raw, *power) : raw;
    return shaped * scale;
  }
};

// What calibrate_to_spec did to each column, for callers that need to
// replay it on new values (demands are never replayed today; distances
// are, by the netdyn re-cost pass).
struct MomentCalibration {
  ColumnTransform demand;
  ColumnTransform distance;
};

// Topology binding of a network-backed dataset: the PoP pair each flow
// rides, captured at generation time together with the frozen distance
// transform. generate_internet2 fills one when asked; the netdyn layer
// uses it to re-cost exactly the flows whose pair distances changed.
struct TopologyBinding {
  std::vector<std::pair<topology::PopId, topology::PopId>> pairs;
  ColumnTransform distance;
  // Raw shortest-path distance substituted for a pair the (changed)
  // network can no longer route — 4x the largest raw distance any flow
  // saw at generation, i.e. "worse than every real route" but finite so
  // the pricing stack keeps accepting the flow.
  double unreachable_raw_miles = 0.0;
};

// European transit ISP: endpoints drawn from European cities with a strong
// same-country bias plus intra-metro flows; distance is the great-circle
// entry-to-exit distance; regions classified by distance thresholds.
FlowSet generate_eu_isp(const GeneratorOptions& options = {});

// Global CDN: sources are CDN PoP cities, destinations are GeoIP-resolved
// client addresses worldwide with Zipf popularity; distance is the
// GeoIP-estimated source-to-destination distance.
FlowSet generate_cdn(const GeneratorOptions& options = {});

// Internet2: endpoints attached to the 11 Abilene PoPs; distance is the
// sum of link lengths along the shortest backbone path. The two-argument
// form generates over an arbitrary backbone (with its distance matrix)
// and optionally captures the topology binding; the flows it returns for
// (internet2_network(), binding) are byte-identical to the one-argument
// form's.
FlowSet generate_internet2(const GeneratorOptions& options = {});
FlowSet generate_internet2(const GeneratorOptions& options,
                           const topology::Network& net,
                           const topology::DistanceMatrix& dist,
                           TopologyBinding* binding);

FlowSet generate_dataset(DatasetKind kind, const GeneratorOptions& options = {});

// generate_dataset for each kind, side by side: slot i holds kinds[i]'s
// flow set, filled via util::parallel_for over `threads` workers (0 =
// MANYTIERS_THREADS / hardware concurrency). Each generator owns its Rng,
// so every slot is byte-identical to a serial generate_dataset call.
std::vector<FlowSet> generate_datasets(std::span<const DatasetKind> kinds,
                                       const GeneratorOptions& options,
                                       std::size_t threads = 0);

// Calibrate a flow set's distances to (wavg, cv) targets via a monotone
// power + scale transform, and its demands to (aggregate, cv) via the
// heavy-tailed resampler's power + scale. Exposed for tests and for users
// who bring their own structural datasets. Returns the transforms it
// applied (ignorable).
MomentCalibration calibrate_to_spec(FlowSet& flows, const DatasetSpec& spec);

// Reassign the existing demand values across flows so that the rank
// correlation between demand and distance approaches `rho` (a Gaussian-
// copula-style coupling with noise). Marginal distributions are
// untouched — only the pairing changes.
void impose_demand_distance_correlation(FlowSet& flows, double rho,
                                        util::Rng& rng);

}  // namespace manytiers::workload
