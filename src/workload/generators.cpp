#include "workload/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "geo/cities.hpp"
#include "geo/geoip.hpp"
#include "topology/dijkstra.hpp"
#include "topology/internet2.hpp"
#include "util/optimize.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace manytiers::workload {

std::string_view to_string(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::EuIsp: return "EU ISP";
    case DatasetKind::Cdn: return "CDN";
    case DatasetKind::Internet2: return "Internet2";
  }
  throw std::invalid_argument("unknown dataset kind");
}

DatasetSpec paper_spec(DatasetKind kind) {
  // Paper Table 1 (capture dates 11/12/09 and 12/02/09).
  switch (kind) {
    case DatasetKind::EuIsp: return {"EU ISP", 54.0, 0.70, 37.0, 1.71};
    case DatasetKind::Cdn: return {"CDN", 1988.0, 0.59, 96.0, 2.28};
    case DatasetKind::Internet2: return {"Internet2", 660.0, 0.54, 4.0, 4.53};
  }
  throw std::invalid_argument("unknown dataset kind");
}

namespace {

// Find t such that the sample CV of {x^t} hits `target_cv`, then apply the
// power transform in place. Monotone in t, so bisection is robust. Returns
// the applied power, or nullopt when the step was skipped (too few values
// or degenerate spread).
std::optional<double> match_cv_by_power(std::vector<double>& xs,
                                        double target_cv) {
  if (xs.size() < 2) return std::nullopt;
  for (double x : xs) {
    if (x <= 0.0) {
      throw std::invalid_argument("match_cv_by_power: values must be > 0");
    }
  }
  // One scratch buffer for every trial power; each endpoint of the final
  // bracket is evaluated once and handed to the bisection.
  std::vector<double> ys(xs.size());
  const auto cv_of_power = [&xs, &ys](double t) {
    std::transform(xs.begin(), xs.end(), ys.begin(),
                   [t](double x) { return std::pow(x, t); });
    return util::coefficient_of_variation(ys);
  };
  double hi = 1.0;
  double cv_hi = cv_of_power(hi);
  // Degenerate spread (all values equal) cannot be reshaped by a power.
  if (cv_hi < 1e-12) return std::nullopt;
  const double lo = 1e-3;
  while (cv_hi < target_cv && hi < 64.0) {
    hi *= 2.0;
    cv_hi = cv_of_power(hi);
  }
  const double cv_lo = cv_of_power(lo);
  double t = hi;
  if (cv_lo >= target_cv) {
    t = lo;  // sample already spreads more than the target allows
  } else if (cv_hi >= target_cv) {
    t = util::find_root_bracketed(
        [&](double tt) { return cv_of_power(tt) - target_cv; }, lo,
        cv_lo - target_cv, hi, cv_hi - target_cv, 1e-10);
  }
  for (auto& x : xs) x = std::pow(x, t);
  return t;
}

// Rebuild a flow set column-by-column. FlowSet only exposes mutation via
// scaling, so calibration reconstructs the set with transformed columns.
FlowSet with_columns(const FlowSet& flows, const std::vector<double>& demands,
                     const std::vector<double>& distances) {
  FlowSet out(flows.name());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow f = flows[i];
    f.demand_mbps = demands[i];
    f.distance_miles = distances[i];
    out.add(f);
  }
  return out;
}

}  // namespace

MomentCalibration calibrate_to_spec(FlowSet& flows, const DatasetSpec& spec) {
  if (flows.size() < 2) {
    throw std::invalid_argument("calibrate_to_spec: need at least 2 flows");
  }
  auto demands = flows.demands();
  auto distances = flows.distances();
  MomentCalibration cal;

  // Demands first: the distance target is demand-weighted.
  cal.demand.power = match_cv_by_power(demands, spec.cv_demand);
  const double dsum = util::sum(demands);
  const double target_sum_mbps = spec.aggregate_gbps * 1000.0;
  cal.demand.scale = target_sum_mbps / dsum;
  for (auto& q : demands) q *= cal.demand.scale;

  cal.distance.power = match_cv_by_power(distances, spec.cv_distance);
  const double wavg = util::weighted_mean(distances, demands);
  cal.distance.scale = spec.wavg_distance_miles / wavg;
  for (auto& d : distances) d *= cal.distance.scale;

  flows = with_columns(flows, demands, distances);
  return cal;
}

void impose_demand_distance_correlation(FlowSet& flows, double rho,
                                        util::Rng& rng) {
  if (rho < -1.0 || rho > 1.0) {
    throw std::invalid_argument(
        "impose_demand_distance_correlation: rho must be in [-1, 1]");
  }
  const std::size_t n = flows.size();
  if (n < 2 || rho == 0.0) return;
  // Rank the flows by distance, perturb the ranks with noise scaled by
  // sqrt(1 - rho^2), and hand the sorted demands out along the perturbed
  // order. rho > 0 pairs large demands with large distances; rho < 0
  // with small ones. Marginals are exactly preserved (pure reassignment).
  const auto distances = flows.distances();
  std::vector<std::size_t> by_distance(n);
  std::iota(by_distance.begin(), by_distance.end(), std::size_t{0});
  std::stable_sort(by_distance.begin(), by_distance.end(),
                   [&](std::size_t a, std::size_t b) {
                     return distances[a] < distances[b];
                   });
  std::vector<double> key(n);
  const double noise = std::sqrt(1.0 - rho * rho);
  for (std::size_t r = 0; r < n; ++r) {
    const double u = (double(r) + 0.5) / double(n);
    key[by_distance[r]] = rho * u + noise * rng.uniform(0.0, 1.0);
  }
  std::vector<std::size_t> by_key(n);
  std::iota(by_key.begin(), by_key.end(), std::size_t{0});
  std::stable_sort(by_key.begin(), by_key.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key[a] < key[b];
                   });
  auto demands = flows.demands();
  std::sort(demands.begin(), demands.end());  // ascending
  std::vector<double> reassigned(n);
  for (std::size_t r = 0; r < n; ++r) {
    // Lowest key gets the smallest demand; with rho < 0 low keys are the
    // far flows, so near flows end up with the big demands.
    reassigned[by_key[r]] = demands[r];
  }
  flows = with_columns(flows, reassigned, distances);
}

namespace {

double raw_demand(util::Rng& rng, double cv) {
  // Raw heavy-tailed draw; exact moments are pinned by calibrate_to_spec.
  return rng.lognormal(util::lognormal_from_mean_cv(1.0, cv));
}

// Structural post-processing shared by the generators: couple demand to
// distance, then pin the Table 1 moments.
MomentCalibration finalize(FlowSet& flows, const GeneratorOptions& options,
                           const DatasetSpec& spec, util::Rng& rng) {
  impose_demand_distance_correlation(
      flows, options.demand_distance_correlation, rng);
  if (options.calibrate_moments) return calibrate_to_spec(flows, spec);
  return {};
}

}  // namespace

FlowSet generate_eu_isp(const GeneratorOptions& options) {
  if (options.n_flows < 2) {
    throw std::invalid_argument("generate_eu_isp: need at least 2 flows");
  }
  util::Rng rng(options.seed);
  const auto europe = geo::cities_in(geo::Continent::Europe);
  const auto cities = geo::world_cities();
  const DatasetSpec spec = paper_spec(DatasetKind::EuIsp);
  // Each country's city list, built the first time a national flow
  // leaves that country.
  std::map<std::string_view, std::vector<std::size_t>> cities_of_country;

  FlowSet flows("EU ISP");
  for (std::size_t i = 0; i < options.n_flows; ++i) {
    const std::size_t src = europe[rng.index(europe.size())];
    Flow f;
    f.src_city = src;
    const double mix = rng.uniform(0.0, 1.0);
    if (mix < 0.3) {
      // Intra-metro flow: same city, short last-mile distance. The low
      // cluster is kept well under the 10-mile metro threshold so it
      // survives the moment-calibration rescale.
      f.dst_city = src;
      f.distance_miles = rng.uniform(0.1, 3.0);
    } else if (mix < 0.70) {
      // National flow: another city in the same country if one exists.
      const std::string_view country = cities[src].country;
      auto [it, fresh] = cities_of_country.try_emplace(country);
      if (fresh) it->second = geo::cities_in_country(country);
      const std::vector<std::size_t>& domestic = it->second;
      std::size_t dst = src;
      if (domestic.size() > 1) {
        do {
          dst = domestic[rng.index(domestic.size())];
        } while (dst == src);
        f.distance_miles = geo::city_distance_miles(src, dst);
      } else {
        f.distance_miles = rng.uniform(30.0, 120.0);  // no sibling city
      }
      f.dst_city = dst;
    } else {
      // International European flow.
      std::size_t dst = src;
      do {
        dst = europe[rng.index(europe.size())];
      } while (dst == src);
      f.dst_city = dst;
      f.distance_miles = geo::city_distance_miles(src, dst);
    }
    f.demand_mbps = raw_demand(rng, spec.cv_demand);
    f.dest_type = rng.bernoulli(0.3) ? DestType::OnNet : DestType::OffNet;
    f.src_ip = geo::synthetic_host(*f.src_city, std::uint32_t(2 * i));
    f.dst_ip = geo::synthetic_host(*f.dst_city, std::uint32_t(2 * i + 1));
    // The paper only has entry/exit distances for the EU ISP and falls
    // back to distance thresholds (§3.3); our synthetic flows carry city
    // identities, so we classify from geography directly.
    f.region = geo::classify_cities(src, *f.dst_city);
    flows.add(f);
  }
  finalize(flows, options, spec, rng);
  return flows;
}

FlowSet generate_cdn(const GeneratorOptions& options) {
  if (options.n_flows < 2) {
    throw std::invalid_argument("generate_cdn: need at least 2 flows");
  }
  util::Rng rng(options.seed);
  const DatasetSpec spec = paper_spec(DatasetKind::Cdn);
  // CDN PoP cities: major peering hubs on every continent.
  constexpr std::array<std::string_view, 16> kPopNames{
      "New York", "Los Angeles", "Chicago",   "Miami",     "Seattle",
      "London",   "Paris",       "Amsterdam", "Frankfurt", "Tokyo",
      "Singapore", "Hong Kong",  "Sydney",    "Sao Paulo", "Mumbai",
      "Johannesburg"};
  std::vector<std::size_t> pops;
  for (const auto name : kPopNames) {
    const auto id = geo::find_city(name);
    if (!id) throw std::logic_error("generate_cdn: missing city in database");
    pops.push_back(*id);
  }
  const auto cities = geo::world_cities();
  const geo::GeoIpDb geoip = geo::build_synthetic_geoip();
  // Clients concentrate on popular destinations: Zipf over cities.
  const util::ZipfTable popularity(std::int64_t(cities.size()), 0.8);
  // The nearest CDN PoP to every city (first PoP in list order on ties).
  std::vector<std::size_t> nearest_pop(cities.size(), pops[0]);
  for (std::size_t c = 0; c < cities.size(); ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto p : pops) {
      const double d = geo::city_distance_miles(p, c);
      if (d < best) {
        best = d;
        nearest_pop[c] = p;
      }
    }
  }

  FlowSet flows("CDN");
  for (std::size_t i = 0; i < options.n_flows; ++i) {
    const std::size_t dst = std::size_t(popularity.draw(rng)) - 1;
    // Serve from the nearest CDN PoP most of the time; occasionally a cache
    // miss is served from a far PoP.
    const std::size_t src = rng.bernoulli(0.15)
                                ? pops[rng.index(pops.size())]
                                : nearest_pop[dst];
    Flow f;
    f.src_city = src;
    f.dst_city = dst;
    f.src_ip = geo::synthetic_host(src, std::uint32_t(2 * i));
    f.dst_ip = geo::synthetic_host(dst, std::uint32_t(2 * i + 1));
    // Distance as the paper estimates it for the CDN: GeoIP both ends.
    const auto src_located = geoip.lookup_city(f.src_ip);
    const auto dst_located = geoip.lookup_city(f.dst_ip);
    if (!src_located || !dst_located) {
      throw std::logic_error("generate_cdn: GeoIP lookup failed");
    }
    f.distance_miles =
        std::max(0.5, geo::city_distance_miles(*src_located, *dst_located));
    f.region = geo::classify_cities(src, dst);
    f.demand_mbps = raw_demand(rng, spec.cv_demand);
    f.dest_type = rng.bernoulli(0.2) ? DestType::OnNet : DestType::OffNet;
    flows.add(f);
  }
  finalize(flows, options, spec, rng);
  return flows;
}

FlowSet generate_internet2(const GeneratorOptions& options) {
  const topology::Network net = topology::internet2_network();
  const auto dist = topology::all_pairs_distances(net);
  return generate_internet2(options, net, dist, nullptr);
}

FlowSet generate_internet2(const GeneratorOptions& options,
                           const topology::Network& net,
                           const topology::DistanceMatrix& dist,
                           TopologyBinding* binding) {
  if (options.n_flows < 2) {
    throw std::invalid_argument("generate_internet2: need at least 2 flows");
  }
  if (net.pop_count() < 2 || dist.size() != net.pop_count()) {
    throw std::invalid_argument(
        "generate_internet2: need >= 2 PoPs and a matching distance matrix");
  }
  util::Rng rng(options.seed);
  const DatasetSpec spec = paper_spec(DatasetKind::Internet2);
  // PoP names are city names, so city metadata carries over.
  std::vector<std::optional<std::size_t>> pop_city(net.pop_count());
  for (topology::PopId p = 0; p < net.pop_count(); ++p) {
    pop_city[p] = geo::find_city(net.pop(p).name);
  }

  FlowSet flows("Internet2");
  std::vector<std::pair<topology::PopId, topology::PopId>> pairs;
  pairs.reserve(options.n_flows);
  double max_raw = 0.0;
  for (std::size_t i = 0; i < options.n_flows; ++i) {
    const topology::PopId src = rng.index(net.pop_count());
    topology::PopId dst = src;
    while (dst == src) dst = rng.index(net.pop_count());
    if (dist(src, dst) == topology::kUnreachable) {
      throw std::invalid_argument(
          "generate_internet2: backbone must route every PoP pair at "
          "generation time");
    }
    Flow f;
    f.src_city = pop_city[src];
    f.dst_city = pop_city[dst];
    if (!f.src_city || !f.dst_city) {
      throw std::invalid_argument(
          "generate_internet2: PoP names must be known cities");
    }
    f.distance_miles = dist(src, dst);
    f.region = geo::classify_cities(*f.src_city, *f.dst_city);
    f.demand_mbps = raw_demand(rng, spec.cv_demand);
    f.dest_type = rng.bernoulli(0.5) ? DestType::OnNet : DestType::OffNet;
    f.src_ip = geo::synthetic_host(*f.src_city, std::uint32_t(2 * i));
    f.dst_ip = geo::synthetic_host(*f.dst_city, std::uint32_t(2 * i + 1));
    pairs.emplace_back(src, dst);
    max_raw = std::max(max_raw, dist(src, dst));
    flows.add(f);
  }
  const MomentCalibration cal = finalize(flows, options, spec, rng);
  if (binding) {
    binding->pairs = std::move(pairs);
    binding->distance = cal.distance;
    binding->unreachable_raw_miles = 4.0 * max_raw;
  }
  return flows;
}

FlowSet generate_dataset(DatasetKind kind, const GeneratorOptions& options) {
  switch (kind) {
    case DatasetKind::EuIsp: return generate_eu_isp(options);
    case DatasetKind::Cdn: return generate_cdn(options);
    case DatasetKind::Internet2: return generate_internet2(options);
  }
  throw std::invalid_argument("unknown dataset kind");
}

std::vector<FlowSet> generate_datasets(std::span<const DatasetKind> kinds,
                                       const GeneratorOptions& options,
                                       std::size_t threads) {
  std::vector<FlowSet> out(kinds.size());
  util::parallel_for(
      kinds.size(),
      [&](std::size_t i) { out[i] = generate_dataset(kinds[i], options); },
      threads);
  return out;
}

}  // namespace manytiers::workload
