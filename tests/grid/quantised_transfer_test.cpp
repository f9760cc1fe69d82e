// Unit tests of the quantised-fair barrier protocol (models/quantised_fair):
// admission at barriers, frozen rates in between, immediate aborts with
// deferred ledger cancels, drain delivery, and the barrier-stamped probe
// cache. The barrier loop (run_quantised) is exercised in quantised_loop_test;
// here the test IS the driver, calling the barrier API directly.
#include <gtest/gtest.h>

#include <vector>

#include "grid/transfer_manager.hpp"

namespace dpjit::grid {
namespace {

// 0 --(bw 10, lat 1)-- 1 --(bw 10, lat 1)-- 2 ; flows 0->2 cross both links.
struct Fixture {
  Fixture() : topo(net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                 {NodeId{1}, NodeId{2}, 10.0, 1.0}})),
              routing(topo) {}
  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
};

TEST(QuantisedBarrier, AdmitsAfterLatencyAndReportsJoinAtFullVolume) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
  f.engine.run_until(1.0);
  // Propagation (2 s) not over: nothing to admit yet.
  auto delta = tm.quantised_barrier();
  EXPECT_TRUE(delta.joins.empty());
  EXPECT_EQ(tm.quantised_pending_joins(), 0u);

  f.engine.run_until(2.0);
  EXPECT_EQ(tm.quantised_pending_joins(), 1u);
  delta = tm.quantised_barrier();
  ASSERT_EQ(delta.joins.size(), 1u);
  // Lazy advance: the join carries the FULL volume - the manager never
  // integrated anything, that is the ledger's job from here on.
  EXPECT_DOUBLE_EQ(delta.joins[0].remaining_mb, 100.0);
  EXPECT_DOUBLE_EQ(delta.joins[0].rate_mbps, 10.0);
  EXPECT_TRUE(delta.rate_changes.empty());
  EXPECT_TRUE(delta.cancels.empty());
  EXPECT_EQ(tm.quantised_active(), 1u);

  // No completion machinery in this mode: with the latency phase done the
  // manager has NO scheduled events, so the engine goes idle with the flow
  // still in flight (the fluid mode would have armed a completion here).
  f.engine.run_all();
  EXPECT_EQ(tm.quantised_active(), 1u);
  EXPECT_EQ(tm.completed_count(), 0u);
}

TEST(QuantisedBarrier, ZeroSizeFlowDeliversAtAdmissionWithoutJoining) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  bool delivered = false;
  tm.start(NodeId{0}, NodeId{2}, 0.0, [&](bool ok) { delivered = ok; });
  f.engine.run_until(2.0);
  const auto delta = tm.quantised_barrier();
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(delta.joins.empty());
  EXPECT_TRUE(delta.cancels.empty());
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedBarrier, RatesFreezeBetweenBarriersAndRefreezeAtThem) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
  f.engine.run_until(2.0);
  auto delta = tm.quantised_barrier();
  ASSERT_EQ(delta.joins.size(), 1u);
  const std::uint64_t first = delta.joins[0].id;
  EXPECT_DOUBLE_EQ(delta.joins[0].rate_mbps, 10.0);

  // A second flow finishes propagation mid-epoch: it does NOT touch the
  // solver until the next barrier, so the first flow's rate stays frozen.
  tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
  f.engine.run_until(4.0);
  EXPECT_EQ(tm.quantised_pending_joins(), 1u);
  EXPECT_EQ(tm.quantised_active(), 1u);

  delta = tm.quantised_barrier();
  // Both flows cross both links: max-min gives each 5. The newcomer joins at
  // 5 and the incumbent's frozen 10 is re-frozen to 5 via a rate change.
  ASSERT_EQ(delta.joins.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.joins[0].rate_mbps, 5.0);
  ASSERT_EQ(delta.rate_changes.size(), 1u);
  EXPECT_EQ(delta.rate_changes[0].id, first);
  EXPECT_DOUBLE_EQ(delta.rate_changes[0].rate_mbps, 5.0);
}

TEST(QuantisedBarrier, AbortFiresNowButSurvivorRatesMoveAtTheNextBarrier) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  bool aborted_ok = true;
  const std::uint64_t a = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { aborted_ok = ok; });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
  f.engine.run_until(2.0);
  auto delta = tm.quantised_barrier();
  ASSERT_EQ(delta.joins.size(), 2u);
  EXPECT_DOUBLE_EQ(delta.joins[0].rate_mbps, 5.0);
  EXPECT_DOUBLE_EQ(delta.joins[1].rate_mbps, 5.0);

  // Mid-epoch abort: the callback fires immediately (the grid layer retries
  // on it), the solver forgets the flow, but the survivor's frozen rate is
  // untouched until the barrier reads the solver back.
  f.engine.run_until(2.5);
  EXPECT_TRUE(tm.abort(a));
  EXPECT_FALSE(aborted_ok);
  EXPECT_EQ(tm.quantised_active(), 1u);

  f.engine.run_until(3.0);
  delta = tm.quantised_barrier();
  EXPECT_TRUE(delta.joins.empty());
  ASSERT_EQ(delta.cancels.size(), 1u);
  EXPECT_EQ(delta.cancels[0], a);
  ASSERT_EQ(delta.rate_changes.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.rate_changes[0].rate_mbps, 10.0);
}

TEST(QuantisedBarrier, DeliverReportsSuccessAndSkipsDeadFlows) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  int done = 0;
  bool ok_seen = false;
  const std::uint64_t a = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    ++done;
    ok_seen = ok;
  });
  const std::uint64_t b = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { ++done; });
  f.engine.run_until(2.0);
  (void)tm.quantised_barrier();

  // b aborts after the ledger (conceptually) detected both drains: its DONE
  // entry must be skipped - the abort callback already fired.
  f.engine.run_until(2.5);
  EXPECT_TRUE(tm.abort(b));
  EXPECT_EQ(done, 1);

  f.engine.run_until(3.0);
  tm.quantised_deliver({QuantisedDone{2.8, a}, QuantisedDone{2.9, b}});
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(ok_seen);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedBarrier, ZeroCapacityPathStallsAtBarrierIntoSameDeltaCancel) {
  // Middle link has zero capacity: the flow can join the solver but gets
  // rate 0 - the barrier's stall guard must abort it in the same pass and
  // ship the cancel in the SAME delta (no join emitted for it).
  sim::Engine engine;
  const auto topo = net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                  {NodeId{1}, NodeId{2}, 0.0, 1.0}});
  const net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kQuantisedFair);
  bool ok_seen = true;
  const std::uint64_t id = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { ok_seen = ok; });
  engine.run_until(2.0);
  const auto delta = tm.quantised_barrier();
  EXPECT_FALSE(ok_seen);
  EXPECT_TRUE(delta.joins.empty());
  ASSERT_EQ(delta.cancels.size(), 1u);
  EXPECT_EQ(delta.cancels[0], id);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedBarrier, NodeLeftTearsDownActiveAndPendingFlowsImmediately) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  std::vector<bool> results;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { results.push_back(ok); });
  f.engine.run_until(2.0);
  (void)tm.quantised_barrier();
  tm.start(NodeId{2}, NodeId{0}, 100.0, [&](bool ok) { results.push_back(ok); });  // in latency
  f.engine.run_until(2.5);

  tm.node_left(NodeId{2});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_EQ(tm.active_count(), 0u);

  // Only the pool member needs a ledger cancel; the latency-phase flow never
  // reached any ledger.
  f.engine.run_until(3.0);
  const auto delta = tm.quantised_barrier();
  EXPECT_EQ(delta.cancels.size(), 1u);
}

TEST(QuantisedBarrier, BarrierStampInvalidatesTheProbeCache) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 1u);
  EXPECT_EQ(tm.probe_cache_hits(), 1u);

  // A barrier re-freezes the rate landscape even when the solver's flow set
  // did not change; cached answers from the previous epoch must not survive.
  const std::uint64_t stamp = tm.barrier_stamp();
  (void)tm.quantised_barrier();
  EXPECT_EQ(tm.barrier_stamp(), stamp + 1);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 2u);
}

}  // namespace
}  // namespace dpjit::grid
