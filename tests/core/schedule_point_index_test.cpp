// GridSystem's schedule-point index - the per-workflow kSchedulable count and
// the per-home active list that each scheduling cycle iterates - checked
// against a full scan after every scheduling cycle, in the regimes that drive
// each task-state transition:
//   - churn with rescheduling and strict data semantics: recovery demotes
//     finished precedents whose output died with their node;
//   - message-level gossip with loss and crash waves: suspected executors
//     lose their tasks back to the schedule-point set (re-offer);
//   - a full-ahead algorithm under churn: a schedule point whose planned node
//     departed fails without being dispatched.
// The recovery choreography (recovery_regression_test.cpp) runs the same
// oracle after every engine step.
#include <gtest/gtest.h>

#include <memory>

#include "exp/workload_factory.hpp"
#include "schedule_point_oracle.hpp"
#include "sim/periodic.hpp"

namespace dpjit::core {
namespace {

/// Runs `cfg` to the horizon with the oracle checked just after every
/// scheduling cycle and once more at the end.
struct CheckedRun {
  explicit CheckedRun(const exp::ExperimentConfig& cfg) : world(cfg) {
    const auto& sc = world.system().config();
    checker = std::make_unique<sim::PeriodicProcess>(
        world.engine(), sc.first_schedule_at_s + 1e-3, sc.scheduling_interval_s,
        [this](std::uint64_t) { check(); });
    checker->start();
    world.run();
    check();
  }

  void check() {
    ++checks;
    if (failed) return;  // one report per run is enough
    const auto result = schedule_index_matches_scan(world.system(), world.topology().node_count());
    if (!result) {
      failed = true;
      ADD_FAILURE() << "at t=" << world.engine().now() << ": " << result.message();
    }
  }

  exp::World world;
  std::unique_ptr<sim::PeriodicProcess> checker;
  int checks = 0;
  bool failed = false;
};

exp::ExperimentConfig small_world(const char* algorithm, std::uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.nodes = 40;
  cfg.workflows_per_node = 2;
  cfg.routing_threads = 1;
  cfg.seed = seed;
  return cfg;
}

TEST(SchedulePointIndex, MatchesScanUnderChurnWithDemotion) {
  auto cfg = small_world("dsmf", 5);
  cfg.dynamic_factor = 0.3;
  cfg.reschedule = true;
  cfg.system.home_keeps_outputs = false;
  CheckedRun run(cfg);
  const auto& sys = run.world.system();
  EXPECT_GT(run.checks, 100);
  // Demotions reschedule finished tasks that never failed themselves, so
  // recoveries outnumber failures exactly when the demotion path ran.
  EXPECT_GT(sys.tasks_rescheduled(), sys.tasks_failed());
  EXPECT_GT(sys.finished_workflows(), 0u);
}

TEST(SchedulePointIndex, MatchesScanUnderLossyMessageGossipWithReoffer) {
  auto cfg = small_world("dsmf", 1);
  cfg.system.gossip.message_level = true;
  cfg.faults.msg_loss_p = 0.15;
  cfg.faults.crash_period_s = 3600.0;
  cfg.faults.crash_first_s = 1800.0;
  cfg.faults.crash_fraction = 0.15;
  cfg.faults.crash_restart_s = 1200.0;
  cfg.faults.crash_exempt_fraction = 0.5;
  cfg.system.transfer_retry.max_attempts = 4;
  CheckedRun run(cfg);
  EXPECT_GT(run.checks, 100);
  EXPECT_GT(run.world.system().tasks_reoffered(), 0u);
  EXPECT_GT(run.world.system().finished_workflows(), 0u);
}

TEST(SchedulePointIndex, MatchesScanForFullAheadUnderChurn) {
  auto cfg = small_world("heft", 3);
  cfg.dynamic_factor = 0.3;
  CheckedRun run(cfg);
  const auto& sys = run.world.system();
  EXPECT_GT(run.checks, 100);
  // A task that failed without ever being dispatched failed as a schedule
  // point: its planned node had departed.
  std::size_t failed_as_schedule_point = 0;
  for (std::size_t w = 0; w < sys.workflow_count(); ++w) {
    for (const auto& rt : sys.workflow(WorkflowId{static_cast<int>(w)}).tasks) {
      if (rt.state == TaskState::kFailed && rt.dispatched_at == kNoTime) {
        ++failed_as_schedule_point;
      }
    }
  }
  EXPECT_GT(failed_as_schedule_point, 0u);
}

}  // namespace
}  // namespace dpjit::core
