// Bit-for-bit pins of the dataset generators.
//
// Every column of every generated dataset is folded into an FNV-1a
// digest over its exact bytes (doubles by bit pattern, enums by value,
// optional city ids with their presence flag) and compared with the
// pinned constants, so a change to any single draw, distance or
// calibration step fails here. Rewrites of the generators' hot loops must
// keep them (DESIGN.md §5).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <optional>

#include "topology/internet2.hpp"
#include "workload/generators.hpp"

namespace manytiers::workload {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& value) {
  return fnv1a(h, &value, sizeof value);
}

std::uint64_t fold_city(std::uint64_t h, const std::optional<std::size_t>& c) {
  const std::uint64_t id = c ? std::uint64_t(*c) : ~std::uint64_t{0};
  return fold(h, id);
}

// One digest per Flow field, in declaration order.
using Digests = std::array<std::uint64_t, 8>;

Digests digest_columns(const FlowSet& flows) {
  Digests d;
  d.fill(kFnvOffset);
  for (const Flow& f : flows) {
    d[0] = fold(d[0], f.demand_mbps);
    d[1] = fold(d[1], f.distance_miles);
    d[2] = fold(d[2], static_cast<std::int32_t>(f.region));
    d[3] = fold(d[3], static_cast<std::int32_t>(f.dest_type));
    d[4] = fold(d[4], f.src_ip);
    d[5] = fold(d[5], f.dst_ip);
    d[6] = fold_city(d[6], f.src_city);
    d[7] = fold_city(d[7], f.dst_city);
  }
  return d;
}

constexpr std::array<const char*, 8> kColumns{
    "demand_mbps", "distance_miles", "region",   "dest_type",
    "src_ip",      "dst_ip",         "src_city", "dst_city"};

struct Pin {
  DatasetKind kind;
  std::size_t n_flows;
  Digests digests;
};

// Seed 42, default generator options.
constexpr std::array<Pin, 6> kPins{{
    {DatasetKind::EuIsp, 50,
     {0x367fbf940f62bd07ULL, 0x310047cdfc999544ULL,
      0x5fae5ce600f1fa07ULL, 0xc276f61b43598324ULL,
      0xd5d72f77d4d0d824ULL, 0x579c6e2bf1deb21fULL,
      0x21132cd072045049ULL, 0x86c4308906637b1dULL}},
    {DatasetKind::EuIsp, 20000,
     {0x2d818d3729170888ULL, 0x34cc437c2839a68fULL,
      0xd65dbd90ceb31d36ULL, 0x6c01230027e1b265ULL,
      0x929c01a57c72c304ULL, 0x44b5bd4828fe63daULL,
      0xc9bf9476a9b9d524ULL, 0xd337d5334cf43e84ULL}},
    {DatasetKind::Cdn, 50,
     {0xb2ad2b847c72a2adULL, 0x4967c5b02ebf4004ULL,
      0x06f16e49774c3174ULL, 0xcf2c198b63d8c045ULL,
      0x2abe7eae67ab17acULL, 0xf47c0b9f101ef9d1ULL,
      0x1d05c0884169280dULL, 0x96abed090bbf9cf4ULL}},
    {DatasetKind::Cdn, 20000,
     {0x790f51996a3f9ef2ULL, 0x4459dc2b7e80c2bbULL,
      0x1b863b914d4d4cd5ULL, 0x1f06a3909d79b494ULL,
      0xf2e645e63574706eULL, 0x4678eb6ebbde4696ULL,
      0x63af1db63dd7301bULL, 0xc0fc31e1fa1c5e16ULL}},
    {DatasetKind::Internet2, 50,
     {0x9653c30aa38638daULL, 0x57895cbe022b8202ULL,
      0xb10797b2f8d3ddb5ULL, 0x03638842efcdb3b4ULL,
      0x30e3d7a11bd4cea4ULL, 0x7b5b61889b97eae1ULL,
      0xccf24a79fe16536bULL, 0x881f64a9beba6e6aULL}},
    {DatasetKind::Internet2, 20000,
     {0xbabc8a556a105e0eULL, 0xde2598aeaf9c9292ULL,
      0x1b198878db541425ULL, 0x662fa9ceaa166554ULL,
      0xf95cf2a33e528e58ULL, 0x117c501fe03052e4ULL,
      0xb62c07f6559e2b68ULL, 0x421fde7380181223ULL}},
}};

TEST(GeneratorDigest, EveryColumnMatchesThePinnedBytes) {
  for (const Pin& pin : kPins) {
    const FlowSet flows =
        generate_dataset(pin.kind, {.seed = 42, .n_flows = pin.n_flows});
    ASSERT_EQ(flows.size(), pin.n_flows);
    const Digests got = digest_columns(flows);
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c], pin.digests[c])
          << to_string(pin.kind) << " n=" << pin.n_flows << " column "
          << kColumns[c] << ": got 0x" << std::hex << got[c];
    }
  }
}

// Side-by-side generation fills slot i with kinds[i]'s flow set, equal
// to the serial generator's at any worker count (a repeated kind too).
TEST(GeneratorDigest, SideBySideGenerationMatchesThePins) {
  const DatasetKind kinds[] = {DatasetKind::Internet2, DatasetKind::EuIsp,
                               DatasetKind::Cdn, DatasetKind::EuIsp};
  for (const std::size_t threads : {1u, 3u, 4u}) {
    const auto flows =
        generate_datasets(kinds, {.seed = 42, .n_flows = 20000}, threads);
    ASSERT_EQ(flows.size(), std::size(kinds));
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto pin = std::find_if(
          kPins.begin(), kPins.end(), [&](const Pin& p) {
            return p.kind == kinds[i] && p.n_flows == 20000;
          });
      ASSERT_NE(pin, kPins.end());
      EXPECT_EQ(flows[i].name(), to_string(kinds[i]));
      EXPECT_EQ(digest_columns(flows[i]), pin->digests)
          << "slot " << i << " threads=" << threads;
    }
  }
}

// The topology-binding overload over the stock backbone returns the
// same flows as the one-argument form, so the pins cover it too.
TEST(GeneratorDigest, Internet2BindingOverloadMatchesThePins) {
  const topology::Network net = topology::internet2_network();
  const auto dist = topology::all_pairs_distances(net);
  TopologyBinding binding;
  const FlowSet flows = generate_internet2({.seed = 42, .n_flows = 20000},
                                           net, dist, &binding);
  EXPECT_EQ(digest_columns(flows), kPins[5].digests);
  EXPECT_EQ(binding.pairs.size(), 20000u);
}

}  // namespace
}  // namespace manytiers::workload
