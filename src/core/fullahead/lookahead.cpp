// Lookahead HEFT (paper reference [24]): when mapping a task, score each
// candidate node by the worst earliest finish time the task's children could
// achieve afterwards, probing the children one level deep against the current
// timelines (without booking them). See planner.hpp for the contract.
#include <algorithm>
#include <cassert>

#include "core/fullahead/planner.hpp"

namespace dpjit::core {
namespace {

struct Ordered {
  std::size_t wf_pos;
  TaskIndex task;
  double rank;
  int depth;
};

std::vector<int> depths_of(const dag::Workflow& wf) {
  std::vector<int> depth(wf.task_count(), 0);
  for (TaskIndex t : wf.topological_order()) {
    for (TaskIndex s : wf.successors(t)) {
      depth[static_cast<std::size_t>(s.get())] = std::max(
          depth[static_cast<std::size_t>(s.get())], depth[static_cast<std::size_t>(t.get())] + 1);
    }
  }
  return depth;
}

}  // namespace

void LookaheadHeftPlanner::plan(const std::vector<PlanRequest>& workflows,
                                const PlannerOracle& oracle, Assignment& out) {
  if (!backlog_seeded_) {
    backlog_seeded_ = true;
    for (const auto& r : oracle.nodes) {
      const double backlog = std::max(0.0, r.load_mi) / r.capacity_mips;
      if (backlog > 0.0) timelines_[r.node].book(0.0, backlog);
    }
  }

  // Global rank-descending order across all workflows (HEFT's order).
  std::vector<Ordered> order;
  std::vector<std::vector<double>> ranks;
  ranks.reserve(workflows.size());
  for (std::size_t w = 0; w < workflows.size(); ++w) {
    ranks.push_back(dag::upward_ranks(*workflows[w].wf, oracle.averages));
    const auto depth = depths_of(*workflows[w].wf);
    for (std::size_t t = 0; t < workflows[w].wf->task_count(); ++t) {
      order.push_back(Ordered{w, TaskIndex{static_cast<TaskIndex::underlying_type>(t)},
                              ranks[w][t], depth[t]});
    }
  }
  std::sort(order.begin(), order.end(), [](const Ordered& a, const Ordered& b) {
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.depth != b.depth) return a.depth < b.depth;
    if (a.wf_pos != b.wf_pos) return a.wf_pos < b.wf_pos;
    return a.task < b.task;
  });

  // Earliest finish of `task` on `node` given the data will be ready at
  // `arrival`, against current timelines (no booking).
  auto eft_on = [&](const dag::Task& task, const gossip::ResourceEntry& node, double arrival) {
    const double duration = task.load_mi / node.capacity_mips;
    return timelines_[node.node].earliest_start(arrival, duration) + duration;
  };

  // Data-arrival time at `node` for `task`, from its already-planned preds
  // plus (optionally) a hypothetical placement of one pred.
  auto arrival_at = [&](const PlanRequest& req, TaskIndex t, NodeId node,
                        TaskIndex hypo_pred = TaskIndex{}, NodeId hypo_node = NodeId{},
                        double hypo_ft = 0.0) {
    const dag::Workflow& wf = *req.wf;
    double arrival = 0.0;
    for (TaskIndex p : wf.predecessors(t)) {
      const TaskRef pref{req.id, p};
      double ft = 0.0;
      NodeId loc{};
      if (p == hypo_pred) {
        ft = hypo_ft;
        loc = hypo_node;
      } else {
        const auto ft_it = planned_ft_.find(pref);
        if (ft_it == planned_ft_.end()) continue;  // unplanned other-pred: ignore
        ft = ft_it->second;
        loc = out.at(pref);
      }
      double xfer = 0.0;
      if (loc != node) {
        xfer = oracle.transfer_time(loc, node, wf.edge_data(p, t));
      }
      arrival = std::max(arrival, ft + xfer);
    }
    const dag::Task& task = wf.task(t);
    if (task.image_mb > 0.0 && req.home != node) {
      arrival = std::max(arrival, oracle.transfer_time(req.home, node, task.image_mb));
    }
    return arrival;
  };

  for (const Ordered& ot : order) {
    const PlanRequest& req = workflows[ot.wf_pos];
    const dag::Workflow& wf = *req.wf;
    const TaskRef ref{req.id, ot.task};
    const dag::Task& task = wf.task(ot.task);
    const auto& children = wf.successors(ot.task);

    NodeId best_node{};
    double best_score = kInf;
    double best_est = 0.0;
    double best_eft = 0.0;
    for (const auto& node : oracle.nodes) {
      const double arrival = arrival_at(req, ot.task, node.node);
      const double duration = task.load_mi / node.capacity_mips;
      const double est = timelines_[node.node].earliest_start(arrival, duration);
      const double eft = est + duration;

      // Lookahead: the worst of the children's best achievable EFTs, assuming
      // this task finishes at `eft` on `node`.
      double score = eft;
      for (TaskIndex child : children) {
        double child_best = kInf;
        for (const auto& cnode : oracle.nodes) {
          const double carrival =
              arrival_at(req, child, cnode.node, ot.task, node.node, eft);
          child_best = std::min(child_best, eft_on(wf.task(child), cnode, carrival));
        }
        score = std::max(score, child_best);
      }
      if (score < best_score) {
        best_score = score;
        best_node = node.node;
        best_est = est;
        best_eft = eft;
      }
    }
    assert(best_node.valid());
    timelines_[best_node].book(best_est, best_eft - best_est);
    planned_ft_[ref] = best_eft;
    out[ref] = best_node;
  }
}

}  // namespace dpjit::core
