#include <algorithm>
#include <cassert>

#include "core/fullahead/planner.hpp"

namespace dpjit::core {
namespace {

/// Topological depth (longest hop count from the entry) per task; used only to
/// break rank ties so that zero-cost virtual tasks never plan before their
/// precedents.
std::vector<int> topo_depths(const dag::Workflow& wf) {
  std::vector<int> depth(wf.task_count(), 0);
  for (TaskIndex t : wf.topological_order()) {
    for (TaskIndex s : wf.successors(t)) {
      depth[static_cast<std::size_t>(s.get())] =
          std::max(depth[static_cast<std::size_t>(s.get())],
                   depth[static_cast<std::size_t>(t.get())] + 1);
    }
  }
  return depth;
}

struct OrderedTask {
  std::size_t wf_pos;  // index into the request batch
  TaskIndex task;
  double rank;
  int depth;
};

}  // namespace

void HeftPlanner::seed_backlog(const PlannerOracle& oracle) {
  if (backlog_seeded_) return;
  backlog_seeded_ = true;
  for (const auto& r : oracle.nodes) {
    const double backlog = std::max(0.0, r.load_mi) / r.capacity_mips;
    initial_backlog_[r.node] = backlog;
    if (backlog > 0.0) timelines_[r.node].book(0.0, backlog);
  }
}

void HeftPlanner::plan_batch(const std::vector<PlanRequest>& workflows,
                             const std::vector<std::vector<double>>& ranks,
                             const PlannerOracle& oracle, bool per_workflow_batches,
                             Assignment& out) {
  seed_backlog(oracle);

  auto plan_tasks = [&](const std::vector<OrderedTask>& order) {
    for (const OrderedTask& ot : order) {
      const PlanRequest& req = workflows[ot.wf_pos];
      const dag::Workflow& wf = *req.wf;
      const TaskRef ref{req.id, ot.task};
      const dag::Task& task = wf.task(ot.task);

      NodeId best_node{};
      double best_eft = kInf;
      double best_est = 0.0;
      for (const auto& resource : oracle.nodes) {
        // Data-arrival time at this node: precedents' planned finish plus
        // transfer, and the task image from the home node (available at 0).
        double arrival = 0.0;
        for (TaskIndex p : wf.predecessors(ot.task)) {
          const TaskRef pref{req.id, p};
          const auto ft_it = planned_ft_.find(pref);
          assert(ft_it != planned_ft_.end() && "precedent not planned yet");
          const auto node_it = out.find(pref);
          assert(node_it != out.end());
          double xfer = 0.0;
          if (node_it->second != resource.node) {
            xfer = oracle.transfer_time(node_it->second, resource.node, wf.edge_data(p, ot.task));
          }
          arrival = std::max(arrival, ft_it->second + xfer);
        }
        if (task.image_mb > 0.0 && req.home != resource.node) {
          arrival = std::max(arrival, oracle.transfer_time(req.home, resource.node, task.image_mb));
        }
        const double duration = task.load_mi / resource.capacity_mips;
        const double est = timelines_[resource.node].earliest_start(arrival, duration);
        const double eft = est + duration;
        if (eft < best_eft) {
          best_eft = eft;
          best_est = est;
          best_node = resource.node;
        }
      }
      assert(best_node.valid() && "planner given an empty oracle");
      timelines_[best_node].book(best_est, best_eft - best_est);
      planned_ft_[ref] = best_eft;
      out[ref] = best_node;
    }
  };

  auto ordered_for = [&](std::size_t wf_pos) {
    std::vector<OrderedTask> order;
    const dag::Workflow& wf = *workflows[wf_pos].wf;
    const auto depths = topo_depths(wf);
    for (std::size_t t = 0; t < wf.task_count(); ++t) {
      order.push_back(OrderedTask{wf_pos, TaskIndex{static_cast<TaskIndex::underlying_type>(t)},
                                  ranks[wf_pos][t], depths[t]});
    }
    return order;
  };

  auto rank_order = [](const OrderedTask& a, const OrderedTask& b) {
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.depth != b.depth) return a.depth < b.depth;
    if (a.wf_pos != b.wf_pos) return a.wf_pos < b.wf_pos;
    return a.task < b.task;
  };

  if (per_workflow_batches) {
    for (std::size_t w = 0; w < workflows.size(); ++w) {
      auto order = ordered_for(w);
      std::sort(order.begin(), order.end(), rank_order);
      plan_tasks(order);
    }
  } else {
    std::vector<OrderedTask> order;
    for (std::size_t w = 0; w < workflows.size(); ++w) {
      auto per_wf = ordered_for(w);
      order.insert(order.end(), per_wf.begin(), per_wf.end());
    }
    std::sort(order.begin(), order.end(), rank_order);
    plan_tasks(order);
  }
}

void HeftPlanner::plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
                       Assignment& out) {
  std::vector<std::vector<double>> ranks;
  ranks.reserve(workflows.size());
  for (const auto& req : workflows) ranks.push_back(dag::upward_ranks(*req.wf, oracle.averages));
  plan_batch(workflows, ranks, oracle, /*per_workflow_batches=*/false, out);
}

void SmfPlanner::plan(const std::vector<PlanRequest>& workflows, const PlannerOracle& oracle,
                      Assignment& out) {
  // Shortest expected makespan first; stable to keep submission order on ties.
  std::vector<PlanRequest> sorted = workflows;
  std::stable_sort(sorted.begin(), sorted.end(), [](const PlanRequest& a, const PlanRequest& b) {
    return a.expected_makespan < b.expected_makespan;
  });
  std::vector<std::vector<double>> ranks;
  ranks.reserve(sorted.size());
  for (const auto& req : sorted) ranks.push_back(dag::upward_ranks(*req.wf, oracle.averages));
  inner_.plan_batch(sorted, ranks, oracle, /*per_workflow_batches=*/true, out);
}

}  // namespace dpjit::core
