#include "serve/dynamic.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "driver/grid.hpp"
#include "netdyn/update.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace manytiers::serve {
namespace {

driver::ExperimentGrid small_grid() {
  driver::ExperimentGrid grid = driver::named_grid("smoke");
  grid.base.n_flows = 30;
  return grid;
}

// Deep equality of everything a snapshot can ever answer with — exact
// doubles throughout, which is the byte-identity claim (every response
// field is emitted with %.17g, so equal doubles mean equal bytes).
void expect_snapshots_identical(const Snapshot& got, const Snapshot& want) {
  ASSERT_EQ(got.markets.size(), want.markets.size());
  EXPECT_EQ(got.epoch, want.epoch);
  for (std::size_t m = 0; m < got.markets.size(); ++m) {
    const MarketEntry& g = *got.markets[m];
    const MarketEntry& w = *want.markets[m];
    ASSERT_EQ(g.key, w.key) << m;
    const auto& grel = g.market.relative_costs();
    const auto& wrel = w.market.relative_costs();
    ASSERT_EQ(grel.size(), wrel.size()) << g.key;
    for (std::size_t i = 0; i < grel.size(); ++i) {
      ASSERT_EQ(grel[i], wrel[i]) << g.key << " rel " << i;
    }
    ASSERT_EQ(g.schedules.size(), w.schedules.size()) << g.key;
    for (std::size_t s = 0; s < g.schedules.size(); ++s) {
      ASSERT_EQ(g.schedules[s].size(), w.schedules[s].size());
      for (std::size_t b = 0; b < g.schedules[s].size(); ++b) {
        const Schedule& gs = g.schedules[s][b];
        const Schedule& ws = w.schedules[s][b];
        ASSERT_EQ(gs.capture, ws.capture) << g.key << " s" << s << " b" << b;
        ASSERT_EQ(gs.tier_of_flow, ws.tier_of_flow) << g.key;
        ASSERT_EQ(gs.tiers.size(), ws.tiers.size()) << g.key;
        for (std::size_t t = 0; t < gs.tiers.size(); ++t) {
          ASSERT_EQ(gs.tiers[t].price, ws.tiers[t].price) << g.key;
          ASSERT_EQ(gs.tiers[t].rel_cost_lo, ws.tiers[t].rel_cost_lo);
          ASSERT_EQ(gs.tiers[t].rel_cost_hi, ws.tiers[t].rel_cost_hi);
          ASSERT_EQ(gs.tiers[t].n_flows, ws.tiers[t].n_flows);
          ASSERT_EQ(gs.tiers[t].demand_mbps, ws.tiers[t].demand_mbps);
        }
      }
    }
  }
}

TEST(DynamicState, DerivedSnapshotEqualsFullRebuildAndSharesCleanEntries) {
  const auto grid = small_grid();
  SnapshotBuildOptions build;
  build.threads = 2;
  build.epoch = 1;
  const auto base = build_snapshot(grid, build);

  DynamicState state(grid);
  const auto batch = netdyn::parse_updates("down,Chicago,New York");
  const auto derived = state.apply(*base, batch, 2, 2);

  // smoke datasets are {EU ISP, Internet2, CDN} x 2 demand x 1 cost:
  // markets 2 and 3 are the Internet2 block.
  const std::size_t per_ds =
      grid.demand_kinds.size() * grid.cost_kinds.size();
  EXPECT_EQ(derived.recalibrated, per_ds);
  ASSERT_EQ(derived.snapshot->markets.size(), 3 * per_ds);
  for (std::size_t m = 0; m < derived.snapshot->markets.size(); ++m) {
    const bool internet2_block = m >= per_ds && m < 2 * per_ds;
    if (internet2_block) {
      EXPECT_NE(derived.snapshot->markets[m], base->markets[m]) << m;
    } else {
      // Structural sharing: the exact same entry, not a rebuilt copy.
      EXPECT_EQ(derived.snapshot->markets[m], base->markets[m]) << m;
    }
  }

  // The rebuilt CED and logit entries of the Internet2 pair share one
  // set of re-costed inputs, fresh from those of the base snapshot.
  const auto& ced_i2 = derived.snapshot->markets[per_ds]->market;
  const auto& logit_i2 = derived.snapshot->markets[per_ds + 1]->market;
  EXPECT_EQ(&ced_i2.flows(), &logit_i2.flows());
  EXPECT_EQ(&ced_i2.relative_costs(), &logit_i2.relative_costs());
  EXPECT_NE(&ced_i2.flows(), &base->markets[per_ds]->market.flows());

  // Byte-identity against the recompute-everything reference.
  const auto reference = state.scratch_snapshot(2, 2);
  expect_snapshots_identical(*derived.snapshot, *reference);
}

TEST(DynamicState, DistanceNeutralBatchSharesEverything) {
  const auto grid = small_grid();
  const auto base = build_snapshot(grid, {.threads = 2, .epoch = 1});
  DynamicState state(grid);
  const auto first = state.apply(
      *base, netdyn::parse_updates("w,Denver,Kansas City,2500"), 2, 2);
  // Same reweigh again: epoch moves, zero distance change, zero rebuild.
  const auto second = state.apply(
      *first.snapshot, netdyn::parse_updates("w,Denver,Kansas City,2500"), 3,
      2);
  EXPECT_EQ(second.recalibrated, 0u);
  EXPECT_EQ(second.snapshot->epoch, 3u);
  for (std::size_t m = 0; m < second.snapshot->markets.size(); ++m) {
    EXPECT_EQ(second.snapshot->markets[m], first.snapshot->markets[m]) << m;
  }
}

TEST(DynamicState, InvalidBatchThrowsWithoutAdvancing) {
  const auto grid = small_grid();
  const auto base = build_snapshot(grid, {.threads = 2, .epoch = 1});
  DynamicState state(grid);
  EXPECT_THROW(state.apply(*base, netdyn::parse_updates("down,Nowhere,Denver"),
                           2, 2),
               std::invalid_argument);
  EXPECT_EQ(state.network().epoch(), 0u);
  // The network is untouched, so a valid batch still applies cleanly.
  const auto ok = state.apply(
      *base, netdyn::parse_updates("down,Chicago,New York"), 2, 2);
  EXPECT_EQ(ok.snapshot->epoch, 2u);
  expect_snapshots_identical(*ok.snapshot, *state.scratch_snapshot(2, 2));
}

// The daemon-level requote path: a link failure shipped through a
// reload request republishes a bumped-epoch snapshot whose dirty
// markets repriced — and the full query surface keeps answering
// throughout.
TEST(ServerDynamicReload, UpdatesReloadRepublishesIncrementally) {
  const std::string socket =
      "/tmp/mt_dyn_test_" + std::to_string(::getpid()) + ".sock";
  Server server(small_grid(), {.unix_path = socket, .threads = 2});
  server.start();
  Client client = Client::connect_unix(socket);

  Request schedule;
  schedule.id = 1;
  schedule.kind = QueryKind::Schedule;
  schedule.market = "Internet2/ced/linear";
  schedule.strategy = "Optimal";
  const Response before = client.call(schedule);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.epoch, 1u);

  Request euisp = schedule;
  euisp.id = 2;
  euisp.market = "EU ISP/ced/linear";
  const Response eu_before = client.call(euisp);
  ASSERT_TRUE(eu_before.ok);

  // Fail a backbone link via the incremental reload path.
  Request reload;
  reload.id = 3;
  reload.kind = QueryKind::Reload;
  reload.updates = "down,Chicago,New York";
  const Response reloaded = client.call(reload);
  ASSERT_TRUE(reloaded.ok) << reloaded.error;
  EXPECT_EQ(reloaded.epoch, 2u);
  EXPECT_EQ(reloaded.markets, 6u);
  EXPECT_EQ(reloaded.recalibrated, 2u);  // the Internet2 demand pair

  // The Internet2 market repriced; the EU ISP market is the shared
  // entry — same capture bytes, new epoch tag.
  const Response after = client.call(schedule);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.epoch, 2u);
  const Response eu_after = client.call(euisp);
  ASSERT_TRUE(eu_after.ok);
  EXPECT_EQ(eu_after.capture_text, eu_before.capture_text);

  // Invalid combinations come back as structured errors, epoch pinned.
  Request bad = reload;
  bad.id = 4;
  bad.seed = 99;
  const Response rejected = client.call(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(server.epoch(), 2u);

  Request unknown = reload;
  unknown.id = 5;
  unknown.updates = "down,Nowhere,Denver";
  const Response unresolved = client.call(unknown);
  EXPECT_FALSE(unresolved.ok);
  EXPECT_EQ(server.epoch(), 2u);

  // An overridden full reload parks the dynamic path until a plain
  // reload returns to the base flows.
  Request override_reload;
  override_reload.id = 6;
  override_reload.kind = QueryKind::Reload;
  override_reload.seed = 99;
  ASSERT_TRUE(client.call(override_reload).ok);
  Request dyn_again = reload;
  dyn_again.id = 7;
  const Response parked = client.call(dyn_again);
  EXPECT_FALSE(parked.ok);

  Request plain;
  plain.id = 8;
  plain.kind = QueryKind::Reload;
  const Response reset = client.call(plain);
  ASSERT_TRUE(reset.ok);
  EXPECT_EQ(reset.recalibrated, reset.markets);  // full rebuild
  Request dyn_fresh = reload;
  dyn_fresh.id = 9;
  const Response resumed = client.call(dyn_fresh);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.recalibrated, 2u);

  server.stop();
}

}  // namespace
}  // namespace manytiers::serve
