// Unit tests of the quantised-fair barrier machinery (models/quantised_fair):
// admission at barriers, frozen rates in between, immediate aborts, drain
// delivery, the zero-rate stall guard and the barrier-stamped probe cache.
// Admission is observed by calling quantised_barrier() directly; rates and
// volumes are observed through completion times under run_quantised, the
// loop that integrates them. The loop's own timeline is checked in
// quantised_loop_test.
#include <gtest/gtest.h>

#include <utility>
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

TEST(QuantisedBarrier, AdmitsAfterLatencyAtFullVolume) {
  {
    Fixture f;
    TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
    tm.start(NodeId{0}, NodeId{2}, 100.0, [](bool) {});
    f.engine.run_until(1.0);
    // Propagation (2 s) not over: nothing to admit yet.
    tm.quantised_barrier();
    EXPECT_EQ(tm.quantised_pending_joins(), 0u);
    EXPECT_EQ(tm.quantised_active(), 0u);

    f.engine.run_until(2.0);
    EXPECT_EQ(tm.quantised_pending_joins(), 1u);
    tm.quantised_barrier();
    EXPECT_EQ(tm.quantised_pending_joins(), 0u);
    EXPECT_EQ(tm.quantised_active(), 1u);

    // No completion machinery in this mode: with the latency phase done the
    // manager has NO scheduled events, so the engine goes idle with the flow
    // still in flight (the fluid mode would have armed a completion here).
    f.engine.run_all();
    EXPECT_EQ(tm.quantised_active(), 1u);
    EXPECT_EQ(tm.completed_count(), 0u);
  }
  // Under the loop, 1 s epochs: admitted at B_2 at rate 10, the flow needs
  // the full 50 MB / 10 MB/s = 5 epochs, [2, 7), so it drains at t = 7 and
  // is delivered at B_8. Nothing was integrated during propagation.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  double done_at = -1.0;
  tm.start(NodeId{0}, NodeId{2}, 50.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done_at = f.engine.now();
  });
  const QuantisedRunStats stats = tm.run_quantised(1.0, 20.0);
  EXPECT_DOUBLE_EQ(done_at, 8.0);
  EXPECT_EQ(stats.flows_drained, 1u);
}

TEST(QuantisedBarrier, ZeroSizeFlowDeliversAtAdmissionWithoutJoining) {
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  double done_at = -1.0;
  bool delivered = false;
  tm.start(NodeId{0}, NodeId{2}, 0.0, [&](bool ok) {
    delivered = ok;
    done_at = f.engine.now();
  });
  // Delivered by its admission barrier B_2 itself, not two epochs after a
  // drain: it never enters the pool.
  const QuantisedRunStats stats = tm.run_quantised(1.0, 5.0);
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(done_at, 2.0);
  EXPECT_EQ(stats.flows_drained, 0u);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedBarrier, RatesFreezeBetweenBarriersAndRefreezeAtThem) {
  // 1 s epochs. a (100 MB) is admitted at B_2 at rate 10. b (100 MB) starts
  // at t = 1.5 and finishes propagation at 3.5, mid-epoch: it does NOT touch
  // the solver until B_4, so a keeps its frozen 10 through [3, 4) and has
  // 80 MB left at t = 4. B_4 re-freezes both at 5 (both cross both links):
  // a drains at t = 20 and is delivered at B_21. b has 20 MB left at t = 20
  // and keeps its frozen 5 through [20, 21) (a leaves the solver only at
  // B_21), then runs at 10: 15 -> 5 -> drained at 22.5, delivered at B_24.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  std::vector<std::pair<char, double>> done;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    EXPECT_TRUE(ok);
    done.emplace_back('a', f.engine.now());
  });
  f.engine.schedule_at(1.5, [&] {
    tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
      EXPECT_TRUE(ok);
      done.emplace_back('b', f.engine.now());
    });
  });
  f.engine.schedule_at(3.75, [&] {
    EXPECT_EQ(tm.quantised_pending_joins(), 1u);
    EXPECT_EQ(tm.quantised_active(), 1u);
  });
  const QuantisedRunStats stats = tm.run_quantised(1.0, 30.0);
  const std::vector<std::pair<char, double>> expected = {{'a', 21.0}, {'b', 24.0}};
  EXPECT_EQ(done, expected);
  EXPECT_EQ(stats.flows_drained, 2u);
  EXPECT_EQ(tm.completed_count(), 2u);
}

TEST(QuantisedBarrier, AbortFiresNowButSurvivorRatesMoveAtTheNextBarrier) {
  // a and b are admitted at B_2 at 5 each. a aborts at t = 2.5: its callback
  // fires right there, but b keeps its frozen 5 through [2, 3) and runs at
  // 10 from B_3 on. Returns b's delivery time for a b of `size_mb`.
  const auto survivor_done_at = [](double size_mb) {
    Fixture f;
    TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
    std::vector<std::pair<bool, double>> a_results;
    const std::uint64_t a = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
      a_results.emplace_back(ok, f.engine.now());
    });
    double b_done_at = -1.0;
    tm.start(NodeId{0}, NodeId{2}, size_mb, [&](bool ok) {
      EXPECT_TRUE(ok);
      b_done_at = f.engine.now();
    });
    f.engine.schedule_at(2.5, [&] {
      EXPECT_TRUE(tm.abort(a));
      EXPECT_EQ(tm.quantised_active(), 1u);
    });
    tm.run_quantised(1.0, 20.0);
    const std::vector<std::pair<bool, double>> expected_a = {{false, 2.5}};
    EXPECT_EQ(a_results, expected_a);
    EXPECT_EQ(tm.completed_count(), 1u);
    return b_done_at;
  };
  // 107 MB: 102 left at t = 3, 12 at t = 12, drained at 13.2, delivered at
  // B_15. Had b's rate moved at the abort it would have 99.5 left at t = 3
  // and be delivered at B_14.
  EXPECT_DOUBLE_EQ(survivor_done_at(107.0), 15.0);
  // 112 MB: 107 left at t = 3, drained at 13.7, delivered at B_15. Had b's
  // rate moved only at B_4 it would have 102 left at t = 4 and be delivered
  // at B_16.
  EXPECT_DOUBLE_EQ(survivor_done_at(112.0), 15.0);
}

TEST(QuantisedBarrier, DeliverReportsSuccessAndSkipsDeadFlows) {
  // a and b (100 MB each, 5 MB/s from B_2) both drain in [21, 22) and are
  // reported at B_22. b aborts at t = 22.5, between the report and its
  // delivery at B_23: its abort callback is its only one, and B_23 delivers
  // a alone.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  std::vector<std::pair<bool, double>> a_results;
  std::vector<std::pair<bool, double>> b_results;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    a_results.emplace_back(ok, f.engine.now());
  });
  const std::uint64_t b = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    b_results.emplace_back(ok, f.engine.now());
  });
  f.engine.schedule_at(22.5, [&] { EXPECT_TRUE(tm.abort(b)); });
  const QuantisedRunStats stats = tm.run_quantised(1.0, 30.0);
  const std::vector<std::pair<bool, double>> expected_a = {{true, 23.0}};
  const std::vector<std::pair<bool, double>> expected_b = {{false, 22.5}};
  EXPECT_EQ(a_results, expected_a);
  EXPECT_EQ(b_results, expected_b);
  EXPECT_EQ(stats.flows_drained, 2u);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
  EXPECT_EQ(tm.quantised_active(), 0u);
}

TEST(QuantisedBarrier, ZeroCapacityPathStallsAtTheBarrier) {
  // Middle link has zero capacity: the flow can join the solver but gets
  // rate 0 - the stall guard of its admission barrier B_2 must abort it in
  // the same pass, before it is ever integrated.
  sim::Engine engine;
  const auto topo = net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 1.0},
                                                  {NodeId{1}, NodeId{2}, 0.0, 1.0}});
  const net::Routing routing(topo);
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kQuantisedFair);
  std::vector<std::pair<bool, double>> results;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) { results.emplace_back(ok, engine.now()); });
  const QuantisedRunStats stats = tm.run_quantised(1.0, 5.0);
  const std::vector<std::pair<bool, double>> expected = {{false, 2.0}};
  EXPECT_EQ(results, expected);
  EXPECT_EQ(stats.flows_drained, 0u);
  EXPECT_EQ(tm.quantised_active(), 0u);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(QuantisedBarrier, NodeLeftTearsDownActiveAndPendingFlowsImmediately) {
  // At t = 2.5 one flow is pooled (admitted at B_2) and one is still in its
  // propagation phase; node 2 leaving aborts both right there.
  Fixture f;
  TransferManager tm(f.engine, f.topo, f.routing, TransferManager::Mode::kQuantisedFair);
  std::vector<std::pair<bool, double>> results;
  const auto record = [&](bool ok) { results.emplace_back(ok, f.engine.now()); };
  tm.start(NodeId{0}, NodeId{2}, 100.0, record);
  f.engine.schedule_at(2.0, [&] { tm.start(NodeId{2}, NodeId{0}, 100.0, record); });
  f.engine.schedule_at(2.5, [&] {
    EXPECT_EQ(tm.quantised_active(), 1u);
    tm.node_left(NodeId{2});
    EXPECT_EQ(tm.active_count(), 0u);
  });
  const QuantisedRunStats stats = tm.run_quantised(1.0, 20.0);
  const std::vector<std::pair<bool, double>> expected = {{false, 2.5}, {false, 2.5}};
  EXPECT_EQ(results, expected);
  EXPECT_EQ(stats.flows_drained, 0u);
  EXPECT_EQ(tm.completed_count(), 0u);
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
  tm.quantised_barrier();
  EXPECT_EQ(tm.barrier_stamp(), stamp + 1);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_EQ(tm.probe_cache_misses(), 2u);
}

}  // namespace
}  // namespace dpjit::grid
