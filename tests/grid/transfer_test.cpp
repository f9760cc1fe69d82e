#include "grid/transfer_manager.hpp"

#include <gtest/gtest.h>

namespace dpjit::grid {
namespace {

// 0 --(bw 10, lat 1)-- 1 --(bw 10, lat 1)-- 2 ; both flows via the middle.
struct Fixture {
  Fixture() : topo(net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                 {NodeId{1}, NodeId{2}, 10.0, 1.0}})),
              routing(topo) {}
  sim::Engine engine;
  net::Topology topo;
  net::Routing routing;
};

TEST(TransferBottleneck, DeliversAtLatencyPlusSizeOverBw) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kBottleneck);
  double done_at = -1;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = f.engine.now();
  });
  f.engine.run_all();
  // latency 2 s + 100 Mb / 10 Mb/s = 12 s.
  EXPECT_DOUBLE_EQ(done_at, 12.0);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
}

TEST(TransferBottleneck, LoopbackIsImmediate) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing);
  double done_at = -1;
  tm.start(NodeId{1}, NodeId{1}, 5000.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = f.engine.now();
  });
  f.engine.run_all();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(TransferBottleneck, NoContentionBetweenTransfers) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done.push_back(f.engine.now()); });
  }
  f.engine.run_all();
  ASSERT_EQ(done.size(), 3u);
  for (double t : done) EXPECT_DOUBLE_EQ(t, 12.0);  // all at full bandwidth
}

TEST(TransferBottleneck, AbortFiresFailureCallback) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing);
  bool ok = true;
  const auto id = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool success) { ok = success; });
  EXPECT_TRUE(tm.abort(id));
  EXPECT_FALSE(ok);
  EXPECT_FALSE(tm.abort(id));
  f.engine.run_all();
  EXPECT_EQ(tm.completed_count(), 0u);
}

TEST(TransferBottleneck, NodeLeftAbortsTouchingTransfers) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing);
  int failures = 0;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok2) { failures += ok2 ? 0 : 1; });
  tm.start(NodeId{2}, NodeId{0}, 100.0, [&](bool ok2) { failures += ok2 ? 0 : 1; });
  tm.start(NodeId{0}, NodeId{1}, 100.0, [&](bool ok2) { failures += ok2 ? 0 : 1; });
  tm.node_left(NodeId{2});
  EXPECT_EQ(failures, 2);
  f.engine.run_all();
  EXPECT_EQ(tm.completed_count(), 1u);  // the 0->1 transfer survives
}

TEST(TransferBottleneck, ZeroSizeCostsLatencyOnly) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing);
  double done_at = -1;
  tm.start(NodeId{0}, NodeId{1}, 0.0, [&](bool) { done_at = f.engine.now(); });
  f.engine.run_all();
  EXPECT_DOUBLE_EQ(done_at, 1.0);
}

TEST(TransferFair, SingleFlowMatchesBottleneckModel) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  double done_at = -1;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = f.engine.now();
  });
  f.engine.run_all();
  EXPECT_NEAR(done_at, 12.0, 1e-6);
}

TEST(TransferFair, TwoFlowsShareTheLink) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  std::vector<double> done;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done.push_back(f.engine.now()); });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done.push_back(f.engine.now()); });
  f.engine.run_all();
  ASSERT_EQ(done.size(), 2u);
  // Each flow gets 5 Mb/s while both are active -> both finish ~ lat + 20 s.
  EXPECT_NEAR(done[0], 22.0, 0.5);
  EXPECT_NEAR(done[1], 22.0, 0.5);
}

TEST(TransferFair, ShortFlowReleasesBandwidth) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  std::vector<std::pair<int, double>> done;
  tm.start(NodeId{0}, NodeId{2}, 20.0, [&](bool) { done.emplace_back(0, f.engine.now()); });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done.emplace_back(1, f.engine.now()); });
  f.engine.run_all();
  ASSERT_EQ(done.size(), 2u);
  // Short flow: shares 5 Mb/s for 20/5 = 4 s -> done at lat 2 + 4 = 6 s.
  EXPECT_EQ(done[0].first, 0);
  EXPECT_NEAR(done[0].second, 6.0, 0.5);
  // Long flow: 20 Mb at 5 Mb/s (4s) + remaining 80 Mb at 10 Mb/s (8s) -> ~14 s.
  EXPECT_EQ(done[1].first, 1);
  EXPECT_NEAR(done[1].second, 14.0, 0.5);
}

TEST(TransferFair, FirstFlowStartedLateIntegratesNoBogusWindow) {
  // Regression: fair_clock_ starts at 0; a manager whose first fluid flow
  // joins at t >> 0 must sync the clock before integrating, otherwise the
  // first recompute charges a bogus [0, now] window against the flow.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  double done_at = -1;
  f.engine.schedule_at(500.0, [&] {
    tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
      EXPECT_TRUE(ok);
      done_at = f.engine.now();
    });
  });
  f.engine.run_all();
  // Same as the cold-start case, shifted: 500 + latency 2 + 100/10 = 512 s.
  EXPECT_NEAR(done_at, 512.0, 1e-6);
}

TEST(TransferFair, SecondFluidEpochAfterIdleGapStaysExact) {
  // Clock-sync regression at the other seam: the pool drains, sim time moves
  // on with no fluid flows, then a new flow joins. The idle gap must not be
  // integrated against the newcomer.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  std::vector<double> done;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done.push_back(f.engine.now()); });
  f.engine.schedule_at(300.0, [&] {
    tm.start(NodeId{0}, NodeId{2}, 50.0, [&](bool) { done.push_back(f.engine.now()); });
  });
  f.engine.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 12.0, 1e-6);
  EXPECT_NEAR(done[1], 307.0, 1e-6);  // 300 + lat 2 + 50/10
}

TEST(TransferFair, ArmingReadsTheIndexTiesNotEveryActiveFlow) {
  // kFlows flows on disjoint links (node 2i -> 2i+1), distinct sizes so no
  // two finish together. Each arming must read only the index's minimum-key
  // tie - one flow - not the active set: at most one read per start and per
  // completion, where a scan over the active flows reads ~kFlows^2.
  constexpr int kFlows = 64;
  std::vector<net::Link> links;
  for (int i = 0; i < kFlows; ++i) links.push_back({NodeId{2 * i}, NodeId{2 * i + 1}, 10.0, 1.0});
  sim::Engine engine;
  auto topo = net::Topology::from_links(2 * kFlows, links);
  net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
  int delivered = 0;
  for (int i = 0; i < kFlows; ++i) {
    tm.start(NodeId{2 * i}, NodeId{2 * i + 1}, 100.0 + 10.0 * i, [&](bool ok) {
      EXPECT_TRUE(ok);
      ++delivered;
    });
  }
  engine.run_all();
  EXPECT_EQ(delivered, kFlows);
  EXPECT_GE(tm.completion_arm_reads(), static_cast<std::uint64_t>(kFlows));
  EXPECT_LE(tm.completion_arm_reads(), static_cast<std::uint64_t>(2 * kFlows));
}

TEST(TransferFair, ZeroCapacityLinkAbortsInsteadOfStalling) {
  // Regression for the zero-rate stall: a flow routed across a dead link
  // gets rate 0 and could never complete; it must abort (success=false)
  // rather than sit in the pool forever with no completion event armed.
  sim::Engine engine;
  auto topo = net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 0.0, 1.0},
                                            {NodeId{1}, NodeId{2}, 10.0, 1.0}});
  net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
  int resolved = 0;
  bool dead_ok = true;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    dead_ok = ok;
    ++resolved;
  });
  double live_done_at = -1;
  tm.start(NodeId{1}, NodeId{2}, 100.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    live_done_at = engine.now();
    ++resolved;
  });
  engine.run_all();
  EXPECT_EQ(resolved, 2);
  EXPECT_FALSE(dead_ok);
  EXPECT_EQ(tm.active_count(), 0u);  // nothing stuck in the pool
  // The live flow keeps the healthy link to itself.
  EXPECT_NEAR(live_done_at, 11.0, 1e-6);
}

TEST(TransferBottleneck, ZeroCapacityPathAbortsLikeUnreachable) {
  sim::Engine engine;
  auto topo = net::Topology::from_links(2, {{NodeId{0}, NodeId{1}, 0.0, 1.0}});
  net::Routing routing(topo);
  TransferManager tm(engine, topo, routing);
  bool ok = true;
  tm.start(NodeId{0}, NodeId{1}, 100.0, [&](bool success) { ok = success; });
  engine.run_all();
  EXPECT_FALSE(ok);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(TransferFair, SubUlpRemainingDeliversInsteadOfLivelocking) {
  // Regression: after a re-solve, a flow can be left with a remaining volume
  // whose completion delay is below the ulp of the current (large) sim time.
  // Re-arming then fires at exactly `now` with dt == 0 forever - the tick
  // must deliver such flows instead of spinning. Here: two flows share a
  // 1000 Mb/s link from t = 131072 (ulp ~ 2.9e-11 s); when the 500 Mb flow
  // finishes, the other is left with 5e-9 Mb at 1000 Mb/s -> 5e-12 s to go,
  // which cannot advance the clock.
  sim::Engine engine;
  auto topo = net::Topology::from_links(2, {{NodeId{0}, NodeId{1}, 1000.0, 1.0}});
  net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
  int done = 0;
  engine.schedule_at(131072.0, [&] {
    tm.start(NodeId{0}, NodeId{1}, 500.0 + 5e-9, [&](bool ok) {
      EXPECT_TRUE(ok);
      ++done;
    });
    tm.start(NodeId{0}, NodeId{1}, 500.0, [&](bool ok) {
      EXPECT_TRUE(ok);
      ++done;
    });
  });
  engine.run_all();  // pre-fix this never returned (same-time tick livelock)
  EXPECT_EQ(done, 2);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(TransferFair, AbortAfterLatencyPhaseUsesNoStaleHandle) {
  // Regression: the latency-phase event handle must be invalidated when the
  // flow turns fluid; finish() then has nothing to cancel (a stale cancel
  // could hit a reused slot). Schedule unrelated events to churn the slab.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  bool ok = true;
  const auto id = tm.start(NodeId{0}, NodeId{2}, 1000.0, [&](bool success) { ok = success; });
  int unrelated_fired = 0;
  f.engine.schedule_at(3.0, [&] {
    // Flow is past its 2 s latency phase and fluid now; recycle event slots.
    for (int i = 0; i < 64; ++i) f.engine.schedule_in(0.5, [&] { ++unrelated_fired; });
    EXPECT_TRUE(tm.abort(id));
  });
  f.engine.run_all();
  EXPECT_FALSE(ok);
  EXPECT_EQ(unrelated_fired, 64);  // no unrelated event was cancelled
  EXPECT_EQ(tm.completed_count(), 0u);
}

TEST(TransferFair, NodeLeftTearsDownAllPhasesInOneBatch) {
  // node_left must abort fluid, latency-phase and loopback flows touching
  // the node, in one batched teardown, without disturbing other flows.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  int failures = 0;
  double survivor_done_at = -1;
  // Fluid by t=5 (latency 2 s).
  tm.start(NodeId{2}, NodeId{0}, 500.0, [&](bool ok) { failures += ok ? 0 : 1; });
  f.engine.schedule_at(4.5, [&] {
    // Still in its 1 s latency phase at t=5.
    tm.start(NodeId{1}, NodeId{2}, 100.0, [&](bool ok) { failures += ok ? 0 : 1; });
    // Loopback at the doomed node (zero-delay event pending at t=4.5).
    tm.start(NodeId{2}, NodeId{2}, 10.0, [&](bool ok) { failures += ok ? 0 : 1; });
    tm.node_left(NodeId{2});
    EXPECT_EQ(failures, 3);  // all three resolved synchronously
  });
  // Unrelated 0->1 flow must finish normally with full bandwidth once the
  // shared path is clear.
  tm.start(NodeId{0}, NodeId{1}, 100.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    survivor_done_at = f.engine.now();
  });
  f.engine.run_all();
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(tm.active_count(), 0u);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_GT(survivor_done_at, 0.0);
}

TEST(TransferFair, AbortRestoresBandwidth) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kFluidFair);
  double done_at = -1;
  const auto doomed =
      tm.start(NodeId{0}, NodeId{2}, 1000.0, [&](bool ok) { EXPECT_FALSE(ok); });
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool) { done_at = f.engine.now(); });
  // Let both flows run shared for 4 s (after 2 s latency), then kill one.
  f.engine.schedule_at(6.0, [&] { tm.abort(doomed); });
  f.engine.run_all();
  // Survivor: 4 s at 5 Mb/s (20 Mb) + 80 Mb at 10 Mb/s (8 s) -> ~14 s.
  EXPECT_NEAR(done_at, 14.0, 0.5);
}

}  // namespace
}  // namespace dpjit::grid
