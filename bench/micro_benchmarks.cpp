// google-benchmark micro-benchmarks for the primitives whose costs the
// paper's complexity analysis (Section III.E) discusses: RPM computation
// (O(edges)), schedule-point sorting, target selection over RSS, the event
// queue, Waxman generation + routing, and one gossip cycle.
#include <benchmark/benchmark.h>

#include "core/estimates.hpp"
#include "core/rpm.hpp"
#include "dag/generator.hpp"
#include "gossip/mixed_gossip.hpp"
#include "net/routing.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dpjit;

void BM_RpmComputation(benchmark::State& state) {
  util::Rng rng(7);
  dag::GeneratorParams params;
  params.min_tasks = params.max_tasks = static_cast<int>(state.range(0));
  const auto wf = dag::generate_workflow(WorkflowId{1}, params, rng);
  const dag::AverageEstimates avg{6.2, 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rest_path_makespans(wf, avg));
  }
  state.SetComplexityN(static_cast<std::int64_t>(wf.edge_count()));
}
BENCHMARK(BM_RpmComputation)->Arg(8)->Arg(16)->Arg(30)->Complexity(benchmark::oN);

void BM_FinishTimeEstimate(benchmark::State& state) {
  core::TaskEstimateInputs task;
  task.load_mi = 5000;
  for (int i = 0; i < 4; ++i) task.inputs.push_back({NodeId{i}, 500.0});
  const gossip::ResourceEntry r{NodeId{9}, 3000.0, 8.0, 0.0, 0};
  const core::TransferTimeFn bw = [](NodeId, NodeId, double mb) {
    return core::static_transfer_time_s(mb, 5.0);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimate_finish_time(task, r, bw));
  }
}
BENCHMARK(BM_FinishTimeEstimate);

void BM_TargetSelection(benchmark::State& state) {
  // Formula (9) over an RSS of the given size (paper: O(log n) entries).
  const auto rss_size = static_cast<std::size_t>(state.range(0));
  std::vector<gossip::ResourceEntry> rss;
  util::Rng rng(3);
  for (std::size_t i = 0; i < rss_size; ++i) {
    rss.push_back({NodeId{static_cast<int>(i)}, rng.uniform(0, 50000),
                   static_cast<double>(1 << rng.uniform_int(0, 4)), 0.0, 0});
  }
  core::TaskEstimateInputs task;
  task.load_mi = 5000;
  task.inputs.push_back({NodeId{1}, 500.0});
  const core::TransferTimeFn bw = [](NodeId, NodeId, double mb) {
    return core::static_transfer_time_s(mb, 5.0);
  };
  for (auto _ : state) {
    double best = kInf;
    for (const auto& r : rss) {
      best = std::min(best, core::estimate_finish_time(task, r, bw).finish_s);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_TargetSelection)->Arg(10)->Arg(20)->Arg(30);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  util::Rng rng(11);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) q.schedule(rng.uniform(0, 1e6), [] {});
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_WaxmanGeneration(benchmark::State& state) {
  net::TopologyParams params;
  params.node_count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(5);
    benchmark::DoNotOptimize(net::Topology::generate_waxman(params, rng));
  }
}
BENCHMARK(BM_WaxmanGeneration)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_RoutingApsp(benchmark::State& state) {
  net::TopologyParams params;
  params.node_count = static_cast<int>(state.range(0));
  util::Rng rng(5);
  const auto topo = net::Topology::generate_waxman(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Routing(topo));
  }
}
BENCHMARK(BM_RoutingApsp)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_GossipCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Engine engine;
  gossip::GossipParams params;
  gossip::MixedGossipService service(
      engine, params, n,
      [](NodeId id, double& load, double& cap) {
        load = 100.0 * id.get();
        cap = 4.0;
      },
      [](NodeId) { return true; }, [](NodeId, NodeId) { return 0.0; },
      [](NodeId) { return 5.0; }, util::Rng(13));
  for (int i = 0; i < n; ++i) service.node_joined(NodeId{i}, {NodeId{(i + 1) % n}});
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    service.run_cycle(cycle++);
    engine.run_until(engine.now() + 1.0);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GossipCycle)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
