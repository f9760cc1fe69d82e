#include "grid/grid_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace dpjit::grid {
namespace {

ReadyTask task(int wf, int t, double load, int pending = 0) {
  ReadyTask r;
  r.ref = TaskRef{WorkflowId{wf}, TaskIndex{t}};
  r.load_mi = load;
  r.pending_inputs = pending;
  return r;
}

TEST(GridNode, RejectsNonPositiveCapacity) {
  EXPECT_THROW(GridNode(NodeId{0}, 0.0), std::invalid_argument);
}

TEST(GridNode, ReadySetAddFindRemove) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100));
  n.add_ready(task(1, 2, 200));
  EXPECT_EQ(n.ready().size(), 2u);
  ASSERT_NE(n.find_ready(TaskRef{WorkflowId{1}, TaskIndex{2}}), nullptr);
  EXPECT_TRUE(n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}));
  EXPECT_FALSE(n.remove_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}));
  EXPECT_EQ(n.ready().size(), 1u);
}

TEST(GridNode, DataCompleteFiltersPendingInputs) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100, 2));
  n.add_ready(task(1, 2, 200, 0));
  const auto ready = n.data_complete();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0]->ref.task.get(), 2);
}

TEST(GridNode, StartRunRemovesFromReadySet) {
  GridNode n(NodeId{0}, 4.0);
  n.add_ready(task(1, 1, 100));
  const double duration = n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  EXPECT_DOUBLE_EQ(duration, 25.0);  // 100 MI / 4 MIPS
  EXPECT_TRUE(n.busy());
  EXPECT_TRUE(n.ready().empty());
  ASSERT_NE(n.running(), nullptr);
  EXPECT_EQ(n.running()->ref.task.get(), 1);
}

TEST(GridNode, NonPreemptive) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10));
  n.add_ready(task(1, 2, 10));
  n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{2}}, 0.0), std::logic_error);
}

TEST(GridNode, CannotStartWithPendingInputs) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10, 1));
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0), std::logic_error);
}

TEST(GridNode, CannotStartUnknownTask) {
  GridNode n(NodeId{0}, 1.0);
  EXPECT_THROW(n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0), std::logic_error);
}

TEST(GridNode, FinishRunningReturnsTask) {
  GridNode n(NodeId{0}, 2.0);
  n.add_ready(task(3, 4, 100));
  n.start_running(TaskRef{WorkflowId{3}, TaskIndex{4}}, 0.0);
  const auto done = n.finish_running();
  EXPECT_EQ(done.ref.workflow.get(), 3);
  EXPECT_FALSE(n.busy());
  EXPECT_THROW(n.finish_running(), std::logic_error);
}

TEST(GridNode, AbortRunning) {
  GridNode n(NodeId{0}, 2.0);
  EXPECT_FALSE(n.abort_running().has_value());
  n.add_ready(task(3, 4, 100));
  n.start_running(TaskRef{WorkflowId{3}, TaskIndex{4}}, 0.0);
  const auto aborted = n.abort_running();
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(aborted->ref.task.get(), 4);
  EXPECT_FALSE(n.busy());
}

TEST(GridNode, TotalLoadCountsQueuedPlusRemainingRunning) {
  GridNode n(NodeId{0}, 10.0);  // 100 MI -> 10 s
  n.add_ready(task(1, 1, 100));
  n.add_ready(task(1, 2, 50));
  EXPECT_DOUBLE_EQ(n.total_load_mi(0.0), 150.0);
  n.start_running(TaskRef{WorkflowId{1}, TaskIndex{1}}, 0.0);
  // Halfway through the running task: 50 remaining + 50 queued.
  EXPECT_DOUBLE_EQ(n.total_load_mi(5.0), 100.0);
  // At the nominal finish time, only the queued load remains.
  EXPECT_DOUBLE_EQ(n.total_load_mi(10.0), 50.0);
}

TEST(GridNode, DrainReadyEmptiesAndReturns) {
  GridNode n(NodeId{0}, 1.0);
  n.add_ready(task(1, 1, 10));
  n.add_ready(task(1, 2, 10));
  const auto drained = n.drain_ready();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(n.ready().empty());
}

TEST(GridNode, FindReadyReturnsNullForAbsentRef) {
  GridNode n(NodeId{0}, 1.0);
  EXPECT_EQ(n.find_ready(TaskRef{WorkflowId{1}, TaskIndex{1}}), nullptr);
  n.add_ready(task(1, 1, 10));
  EXPECT_EQ(n.find_ready(TaskRef{WorkflowId{1}, TaskIndex{2}}), nullptr);
  EXPECT_EQ(n.find_ready(TaskRef{WorkflowId{2}, TaskIndex{1}}), nullptr);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Differential check of the cached ready load and the back-first lookup:
/// random add / remove / input arrival / start / finish / abort / drain
/// sequences against a mirror ready set whose load is summed afresh, left to
/// right, at every query. Loads span six decades so that any other summation
/// order (e.g. subtracting removed loads from the cache) changes low bits.
TEST(GridNode, RandomizedDifferentialAgainstFreshSum) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    GridNode n(NodeId{0}, rng.uniform(0.5, 16.0));
    std::vector<ReadyTask> mirror;
    std::optional<ReadyTask> running;
    SimTime run_started = kNoTime;
    SimTime run_finishes = kNoTime;
    SimTime now = 0.0;
    int next_task = 0;

    const auto random_ref = [&] {
      return TaskRef{WorkflowId{static_cast<int>(rng.uniform_int(0, 3))},
                     TaskIndex{static_cast<int>(rng.uniform_int(0, next_task))}};
    };
    const auto forward_find = [&](TaskRef ref) -> const ReadyTask* {
      for (const auto& t : n.ready()) {
        if (t.ref == ref) return &t;
      }
      return nullptr;
    };
    const auto erase_from_mirror = [&](TaskRef ref) {
      std::erase_if(mirror, [&](const ReadyTask& t) { return t.ref == ref; });
    };

    for (int op = 0; op < 4000; ++op) {
      now += rng.exponential(3.0);
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2: {  // add a fresh task
          ReadyTask t = task(static_cast<int>(rng.uniform_int(0, 3)), next_task++,
                             rng.uniform01() * std::pow(10.0, rng.uniform_int(0, 6)),
                             static_cast<int>(rng.uniform_int(0, 2)));
          n.add_ready(t);
          mirror.push_back(t);
          break;
        }
        case 3: {  // remove a present or absent ref
          const TaskRef ref = random_ref();
          const bool present = forward_find(ref) != nullptr;
          EXPECT_EQ(n.remove_ready(ref), present);
          erase_from_mirror(ref);
          break;
        }
        case 4: {  // an input arrives
          if (mirror.empty()) break;
          auto& m = mirror[rng.index(mirror.size())];
          ReadyTask* r = n.find_ready(m.ref);
          ASSERT_NE(r, nullptr);
          if (m.pending_inputs > 0) {
            --m.pending_inputs;
            --r->pending_inputs;
          }
          break;
        }
        case 5: {  // start a data-complete task
          if (n.busy()) break;
          std::vector<TaskRef> startable;
          for (const auto& m : mirror) {
            if (m.pending_inputs == 0) startable.push_back(m.ref);
          }
          if (startable.empty()) break;
          const TaskRef ref = startable[rng.index(startable.size())];
          running = *std::find_if(mirror.begin(), mirror.end(),
                                  [&](const ReadyTask& t) { return t.ref == ref; });
          const double duration = n.start_running(ref, now);
          run_started = now;
          run_finishes = now + duration;
          erase_from_mirror(ref);
          break;
        }
        case 6:  // finish or abort the running task
          if (!n.busy()) break;
          if (rng.bernoulli(0.5)) {
            EXPECT_EQ(n.finish_running().ref, running->ref);
          } else {
            EXPECT_EQ(n.abort_running()->ref, running->ref);
          }
          running.reset();
          break;
        case 7:  // drain (rare: keeps the sets deep)
          if (rng.bernoulli(0.1)) {
            EXPECT_EQ(n.drain_ready().size(), mirror.size());
            mirror.clear();
          }
          break;
        default:
          break;
      }

      ASSERT_EQ(n.ready().size(), mirror.size());
      for (std::size_t i = 0; i < mirror.size(); ++i) {
        ASSERT_EQ(n.ready()[i].ref, mirror[i].ref) << "seed " << seed << " op " << op;
      }

      // Query at an arbitrary time, including before start and after finish.
      const SimTime at = now + rng.uniform(-20.0, 40.0);
      double fresh = 0.0;
      for (const auto& m : mirror) fresh += m.load_mi;
      if (running) {
        const double span = run_finishes - run_started;
        const double frac = span <= 0.0 ? 0.0 : std::clamp((run_finishes - at) / span, 0.0, 1.0);
        fresh += running->load_mi * frac;
      }
      ASSERT_EQ(bits(n.total_load_mi(at)), bits(fresh)) << "seed " << seed << " op " << op;

      const TaskRef probe = random_ref();
      ASSERT_EQ(n.find_ready(probe), forward_find(probe)) << "seed " << seed << " op " << op;
      const GridNode& cn = n;
      ASSERT_EQ(cn.find_ready(probe), forward_find(probe));
    }
  }
}

}  // namespace
}  // namespace dpjit::grid
