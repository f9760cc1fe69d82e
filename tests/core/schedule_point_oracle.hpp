// Full-scan oracle for GridSystem's schedule-point index: recomputes every
// workflow's kSchedulable count and every home's active list from the task
// states and compares them with the incrementally kept ones.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/grid_system.hpp"

namespace dpjit::core {

inline ::testing::AssertionResult schedule_index_matches_scan(const GridSystem& sys, int nodes) {
  std::vector<std::vector<WorkflowId>> expected(static_cast<std::size_t>(nodes));
  for (std::size_t w = 0; w < sys.workflow_count(); ++w) {
    const auto& wf = sys.workflow(WorkflowId{static_cast<WorkflowId::underlying_type>(w)});
    std::size_t points = 0;
    for (const auto& rt : wf.tasks) points += rt.state == TaskState::kSchedulable ? 1 : 0;
    if (wf.schedulable_tasks != points) {
      auto failure = ::testing::AssertionFailure() << "workflow " << wf.id;
      return failure << " counts " << wf.schedulable_tasks << ", the scan finds " << points;
    }
    if (!wf.done() && points > 0) {
      expected[static_cast<std::size_t>(wf.home.get())].push_back(wf.id);
    }
  }
  for (int h = 0; h < nodes; ++h) {
    const auto& want = expected[static_cast<std::size_t>(h)];
    const auto& active = sys.active_workflows(NodeId{h});
    if (active != want) {
      auto failure = ::testing::AssertionFailure() << "home " << h << " lists " << active.size();
      return failure << " active workflows, the scan expects " << want.size();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dpjit::core
