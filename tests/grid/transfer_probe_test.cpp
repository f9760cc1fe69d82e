// TransferManager's what-if rate/transfer-time queries against both network
// models, and their side-effect-freedom on a live fluid simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/transfer_manager.hpp"

namespace dpjit::grid {
namespace {

/// Line topology 0 - 1 - 2 with 10 Mb/s / 0.1 s links.
net::Topology line_topology() {
  return net::Topology::from_links(3, {{NodeId{0}, NodeId{1}, 10.0, 0.1},
                                       {NodeId{1}, NodeId{2}, 10.0, 0.1}});
}

TEST(TransferProbe, BottleneckModeReportsRoutedPathRate) {
  const auto topo = line_topology();
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kBottleneck);

  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);
  EXPECT_TRUE(std::isinf(tm.predicted_rate_mbps(NodeId{1}, NodeId{1})));
  // Latency comes through the Routing float matrices; compare against them.
  EXPECT_DOUBLE_EQ(tm.expected_transfer_time_s(NodeId{0}, NodeId{2}, 100.0),
                   routing.latency_s(NodeId{0}, NodeId{2}) + 100.0 / 10.0);
  EXPECT_DOUBLE_EQ(tm.expected_transfer_time_s(NodeId{1}, NodeId{1}, 100.0), 0.0);
}

TEST(TransferProbe, FairModeProbesSeeLiveContention) {
  const auto topo = line_topology();
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  // Idle network: the probe reports the full path rate.
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 10.0);

  // One fluid flow across 0->2; once it is past the latency phase a second
  // flow on the same path would have to share every link.
  bool done = false;
  tm.start(NodeId{0}, NodeId{2}, 1000.0, [&](bool) { done = true; });
  engine.run_until(1.0);  // past the 0.2 s latency phase, far from completion
  ASSERT_FALSE(done);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{2}), 5.0);
  EXPECT_DOUBLE_EQ(tm.predicted_rate_mbps(NodeId{0}, NodeId{1}), 5.0);
  EXPECT_DOUBLE_EQ(tm.expected_transfer_time_s(NodeId{0}, NodeId{2}, 10.0),
                   routing.latency_s(NodeId{0}, NodeId{2}) + 10.0 / 5.0);

  // The probe must not have perturbed the live flow: it still completes at
  // the full-rate schedule (path latency + 1000 Mb / 10 Mb/s).
  engine.run_all();
  EXPECT_TRUE(done);
  EXPECT_NEAR(engine.now(), routing.latency_s(NodeId{0}, NodeId{2}) + 100.0, 1e-6);
}

TEST(TransferProbe, ExpectedTransferTimeEdgeCases) {
  // 0 - 1 healthy, 1 - 2 saturated (zero capacity), node 3 isolated.
  const auto topo = net::Topology::from_links(4, {{NodeId{0}, NodeId{1}, 10.0, 0.1},
                                                  {NodeId{1}, NodeId{2}, 0.0, 0.1}});
  const net::Routing routing(topo);
  sim::Engine engine;
  TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);

  const double latency = routing.latency_s(NodeId{0}, NodeId{1});
  EXPECT_DOUBLE_EQ(tm.expected_transfer_time_s(NodeId{0}, NodeId{0}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(tm.expected_transfer_time_s(NodeId{0}, NodeId{1}, 0.0), latency);
  EXPECT_TRUE(std::isinf(tm.expected_transfer_time_s(NodeId{0}, NodeId{2}, 1.0)));
  EXPECT_TRUE(std::isinf(tm.expected_transfer_time_s(NodeId{0}, NodeId{3}, 1.0)));
  // The empty payload and the unreachable pair are answered without a probe.
  EXPECT_EQ(tm.probe_cache_misses(), 1u);
}

TEST(TransferProbe, ProbesDoNotChangeFluidOutcomes) {
  // Two identical simulations; one answers a barrage of probes while
  // flows are in flight. Completion times must match exactly.
  const auto topo = line_topology();
  const net::Routing routing(topo);

  auto run = [&](bool with_probes) {
    sim::Engine engine;
    TransferManager tm(engine, topo, routing, TransferManager::Mode::kFluidFair);
    std::vector<double> finish_times;
    for (int i = 0; i < 6; ++i) {
      const NodeId src{i % 2 == 0 ? 0 : 1};
      tm.start(src, NodeId{2}, 50.0 + 10.0 * i,
               [&, i](bool) { finish_times.push_back(engine.now()); });
    }
    if (with_probes) {
      engine.schedule_at(0.5, [&] {
        for (int k = 0; k < 100; ++k) {
          (void)tm.predicted_rate_mbps(NodeId{0}, NodeId{2});
          (void)tm.expected_transfer_time_s(NodeId{1}, NodeId{2}, 123.0);
        }
      });
    }
    engine.run_all();
    return finish_times;
  };

  const auto quiet = run(false);
  const auto probed = run(true);
  ASSERT_EQ(quiet.size(), probed.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(quiet[i], probed[i]) << "flow " << i;
  }
}

}  // namespace
}  // namespace dpjit::grid
