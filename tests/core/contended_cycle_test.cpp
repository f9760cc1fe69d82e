// The contended finish-time path of a live scheduling cycle, end to end:
// DispatchContext::finish_time_contended answers Eq. 4 through
// TransferManager::expected_transfer_time_s, and the manager's stamp-keyed
// probe cache is the only cache in between. A probing first-phase policy,
// plugged in through Algorithm::make_first, asks about every (candidate,
// resource) pair of a cycle on a fluid-fair world with transfers in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/grid_system.hpp"
#include "core/policies/dsmf_ca.hpp"

namespace dpjit::core {
namespace {

/// What the probing policy saw during the cycles it recorded.
struct ProbeLog {
  const GridSystem* system = nullptr;
  bool record = false;
  std::uint64_t asks = 0;
  std::uint64_t hits_delta = 0;  ///< cache hits of the finish_time_contended calls
  std::set<std::pair<int, int>> pairs;  ///< distinct non-loopback (input, resource)
};

/// When recording, ranks every candidate on every resource through
/// finish_time_contended, then checks each answer against Eq. 4 over the
/// manager's expected_transfer_time_s. Always dispatches like dsmf-ca so the
/// world keeps transfers in flight.
class ProbingPolicy final : public FirstPhasePolicy {
 public:
  explicit ProbingPolicy(ProbeLog& log) : log_(log) {}
  [[nodiscard]] std::string_view name() const override { return "probing"; }

  void run(DispatchContext& ctx) override {
    if (log_.record) probe_all(ctx);
    inner_.run(ctx);
  }

 private:
  void probe_all(DispatchContext& ctx) {
    const grid::TransferManager& tm = log_.system->transfers();
    std::vector<double> answers;
    const std::uint64_t hits = tm.probe_cache_hits();
    for (const auto& wf : ctx.pending()) {
      for (const auto& task : wf.tasks) {
        for (const auto& r : ctx.resources()) {
          answers.push_back(ctx.finish_time_contended(task, r));
          for (const auto& in : task.inputs.inputs) {
            if (in.location != r.node) log_.pairs.emplace(in.location.get(), r.node.get());
          }
        }
      }
    }
    log_.hits_delta += tm.probe_cache_hits() - hits;

    const TransferTimeFn live = [&tm](NodeId a, NodeId b, double mb) {
      return tm.expected_transfer_time_s(a, b, mb);
    };
    std::size_t k = 0;
    for (const auto& wf : ctx.pending()) {
      for (const auto& task : wf.tasks) {
        for (const auto& r : ctx.resources()) {
          ++log_.asks;
          // Bit-for-bit: EXPECT_EQ on doubles is exact equality.
          EXPECT_EQ(answers[k++], estimate_finish_time(task.inputs, r, live).finish_s);
        }
      }
    }
  }

  ProbeLog& log_;
  DsmfCaPolicy inner_;
};

TEST(ContendedCycle, FinishTimeContendedIsEq4OverTheLiveProbesWithOneProbeCache) {
  // A 6-node ring of slow 2 Mb/s links: every 100 Mb input takes ~50 s alone
  // and longer shared, so each cycle overlaps transfers still in flight.
  std::vector<net::Link> links;
  for (int i = 0; i < 6; ++i) links.push_back({NodeId{i}, NodeId{(i + 1) % 6}, 2.0, 0.01});
  const auto topo = net::Topology::from_links(6, links);
  const net::Routing routing(topo);
  util::Rng rng(3);
  const net::LandmarkEstimator landmarks(routing, 2, rng);
  sim::Engine engine;

  ProbeLog log;
  Algorithm algorithm = make_algorithm("dsmf-ca");
  algorithm.make_first = [&log] { return std::make_unique<ProbingPolicy>(log); };
  SystemConfig config;
  config.network_mode = net::NetworkMode::kFluidFair;
  config.scheduling_interval_s = 30.0;
  config.first_schedule_at_s = 30.0;
  config.horizon_s = 100000.0;
  config.gossip.cycle_s = 5.0;
  GridSystem system(engine, topo, routing, landmarks, {4, 1, 2, 8, 2, 4},
                    std::move(algorithm), config);
  log.system = &system;

  // Fork-join workflows from three homes: every task carries an image from
  // its home and every edge 100 Mb, so candidates share input locations.
  auto fork_join = [] {
    dag::Workflow wf;
    const auto entry = wf.add_task(200.0, 20.0);
    const auto exit = wf.add_task(200.0, 20.0);
    for (int b = 0; b < 4; ++b) {
      const auto mid = wf.add_task(400.0, 20.0);
      wf.add_dependency(entry, mid, 100.0);
      wf.add_dependency(mid, exit, 100.0);
    }
    return wf;
  };
  for (int home : {0, 2, 4}) {
    for (int k = 0; k < 2; ++k) system.submit(NodeId{home}, fork_join());
  }
  system.start();
  engine.run_until(200.0);
  ASSERT_GT(system.transfers().active_count(), 0u) << "no flow in flight to contend with";

  // One more batch makes sure the direct cycle has schedule points to rank,
  // two entry tasks per home whose images leave from the same node.
  for (int home : {0, 2, 4}) {
    for (int k = 0; k < 2; ++k) system.submit(NodeId{home}, fork_join());
  }
  const std::uint64_t misses_before = system.transfers().probe_cache_misses();
  log.record = true;
  system.run_scheduling_cycle();
  log.record = false;

  ASSERT_GT(log.asks, 0u);
  // No flow joins or leaves the solver while a cycle runs, so each distinct
  // pair is solved at most once across every home's ranking and dispatch.
  EXPECT_LE(system.transfers().probe_cache_misses() - misses_before, log.pairs.size());
  EXPECT_GT(log.hits_delta, 0u);
}

}  // namespace
}  // namespace dpjit::core
