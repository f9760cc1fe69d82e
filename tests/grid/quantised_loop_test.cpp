// grid::TransferManager::run_quantised: the serial epoch-barrier loop of the
// quantised network mode. Checks the worked end-to-end timeline (admission ->
// lazy per-epoch integration -> drain -> delivery two epochs later), mid-run
// aborts, a join cancelled at its own barrier, and the derived-epoch rule.
// The suite name predates the serial loop; it is kept so test ids stay
// stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/transfer_manager.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/types.hpp"

namespace dpjit::grid {
namespace {

net::Topology line_topology(int nodes) {
  std::vector<net::Link> links;
  for (int i = 0; i + 1 < nodes; ++i) {
    links.push_back({NodeId(i), NodeId(i + 1), 10.0, 1.0});
  }
  return net::Topology::from_links(nodes, std::move(links));
}

TEST(WorkflowShard, DerivedEpochIsRequestedOrLatencyFlooredAtSixtySeconds) {
  const net::Routing routing(line_topology(4), 1);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(routing, 5.0), 5.0);
  // The minimum routed latency is 1 s here: the 60 s floor wins.
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(routing, 0.0), 60.0);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(routing, -3.0), 60.0);
  // Above the floor the minimum routed latency itself is the epoch.
  const net::Routing slow(
      net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 90.0},
                                    {NodeId{1}, NodeId{2}, 10.0, 75.0}}),
      1);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(slow, 0.0), 75.0);
  // Fewer than two nodes: no latency at all, the floor.
  const net::Routing single(net::Topology::from_links(1, {}), 1);
  EXPECT_DOUBLE_EQ(derive_quantised_epoch(single, 0.0), 60.0);
}

TEST(WorkflowShard, EndToEndTimelineOfOneFlow) {
  // 0 -1s- 1 -1s- 2, both links 10 MB/s. One 100 MB flow 0 -> 2 started at
  // t = 0, epoch 1 s:
  //   t = 2   propagation done, admitted at barrier B_2 at rate 10
  //   t = 3   the first ledger drive integrates [2, 3)
  //   t = 12  the drive integrates [11, 12): remaining hits 0, drain t_f = 12
  //   t = 13  barrier B_13 delivers the drain
  sim::Engine world;
  const net::Topology topo = line_topology(3);
  const net::Routing routing(topo, 1);
  TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);

  double done_at = -1.0;
  bool ok_seen = false;
  tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    done_at = world.now();
    ok_seen = ok;
  });

  const QuantisedRunStats stats = tm.run_quantised(1.0, 20.0);
  EXPECT_TRUE(ok_seen);
  EXPECT_DOUBLE_EQ(done_at, 13.0);
  EXPECT_EQ(tm.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(tm.total_delivered_mb(), 100.0);
  EXPECT_EQ(stats.barriers, 21u);  // B_0 .. B_20
  EXPECT_EQ(stats.flows_joined, 1u);
  EXPECT_EQ(stats.flows_drained, 1u);
  EXPECT_EQ(stats.flows_cancelled, 0u);
  EXPECT_DOUBLE_EQ(world.now(), 20.0);
}

TEST(WorkflowShard, MidRunAbortCancelsTheLedgerFlow) {
  sim::Engine world;
  const net::Topology topo = line_topology(3);
  const net::Routing routing(topo, 1);
  TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);

  bool ok_seen = true;
  double done_at = -1.0;
  const std::uint64_t id = tm.start(NodeId{0}, NodeId{2}, 100.0, [&](bool ok) {
    done_at = world.now();
    ok_seen = ok;
  });
  // The abort is a world event mid-epoch: the failure callback fires right
  // there (t = 5.5, inside barrier B_6's engine advance), while the ledger
  // copy is reaped by the cancel shipped with B_6's delta.
  world.schedule_at(5.5, [&tm, id] { (void)tm.abort(id); });

  const QuantisedRunStats stats = tm.run_quantised(1.0, 20.0);
  EXPECT_FALSE(ok_seen);
  EXPECT_DOUBLE_EQ(done_at, 5.5);
  EXPECT_EQ(tm.completed_count(), 0u);
  EXPECT_EQ(stats.flows_joined, 1u);
  EXPECT_EQ(stats.flows_drained, 0u);
  EXPECT_EQ(stats.flows_cancelled, 1u);
}

TEST(WorkflowShard, JoinCancelledAtItsOwnBarrierNeverDrains) {
  // 0 -10 MB/s- 1 -0 MB/s- 2. Flow b (0 -> 1) and flow x (0 -> 2) both
  // finish propagation inside the first 5 s epoch, so barrier B_5 admits
  // both: b joins at rate 10, x stalls on the zero-capacity link. x's
  // failure callback, fired by the barrier's stall guard, aborts b - after
  // b's join is already in the delta. The same delta must therefore carry
  // b's join and its cancel, and the cancel must win: b never drains.
  sim::Engine world;
  const net::Topology topo = net::Topology::from_links(
      3, {{NodeId{0}, NodeId{1}, 10.0, 1.0}, {NodeId{1}, NodeId{2}, 0.0, 1.0}});
  const net::Routing routing(topo, 1);
  TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);

  std::vector<std::pair<double, bool>> b_results;
  const std::uint64_t b = tm.start(NodeId{0}, NodeId{1}, 20.0, [&](bool ok) {
    b_results.emplace_back(world.now(), ok);
  });
  bool x_ok = true;
  tm.start(NodeId{0}, NodeId{2}, 20.0, [&](bool ok) {
    x_ok = ok;
    EXPECT_TRUE(tm.abort(b));
  });

  const QuantisedRunStats stats = tm.run_quantised(5.0, 60.0);
  EXPECT_FALSE(x_ok);
  ASSERT_EQ(b_results.size(), 1u);
  EXPECT_DOUBLE_EQ(b_results[0].first, 5.0);
  EXPECT_FALSE(b_results[0].second);
  EXPECT_EQ(stats.flows_joined, 1u);
  EXPECT_EQ(stats.flows_cancelled, 1u);
  EXPECT_EQ(stats.flows_drained, 0u);
  EXPECT_EQ(tm.completed_count(), 0u);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(WorkflowShard, RejectsNonPositiveEpoch) {
  sim::Engine world;
  const net::Topology topo = line_topology(2);
  const net::Routing routing(topo, 1);
  TransferManager tm(world, topo, routing, TransferManager::Mode::kQuantisedFair);
  EXPECT_THROW((void)tm.run_quantised(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)tm.run_quantised(-1.0, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace dpjit::grid
