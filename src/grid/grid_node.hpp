// Runtime state of one peer node in its *resource* role: the non-preemptive
// single CPU and the ready set RDS(p_r) of dispatched tasks (paper Section II).
//
// Each ready task carries the priority attributes the second scheduling phase
// needs (Algorithm 2): the task's rest-path makespan, its workflow's remaining
// makespan, the DSDF slack and the sufferage value - all stamped by the first
// phase at dispatch time, as the paper prescribes ("the task will be migrated
// to the node together with its rest path makespan and its workflow's
// makespan").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace dpjit::grid {

/// A task waiting (or running) in a resource node's ready set.
struct ReadyTask {
  TaskRef ref;
  /// Task load in MI (execution time on this node = load / capacity).
  double load_mi = 0.0;
  /// Rest-path makespan stamped at dispatch (phase-2 tie-break, DHEFT order).
  double rpm = 0.0;
  /// The workflow's remaining makespan ms(f) stamped at dispatch (DSMF order).
  double wf_makespan = 0.0;
  /// DSDF "deadline": ms(f) - RPM(t), smaller = more critical.
  double slack = 0.0;
  /// Sufferage value stamped at dispatch (LSF order).
  double sufferage = 0.0;
  /// When the dispatch message reached this node.
  SimTime arrived_at = kNoTime;
  /// Monotone arrival sequence number (FCFS order).
  std::uint64_t arrival_seq = 0;
  /// Input transfers (image + dependent data) still in flight.
  int pending_inputs = 0;
  /// When the last input arrived; kNoTime while pending_inputs > 0.
  SimTime data_ready_at = kNoTime;
};

/// One peer node's resource-role state. The scheduler role (workflow table,
/// schedule points) lives in core::GridSystem; gossip state lives in the
/// gossip service. Aliveness is owned by the system and mirrored here.
class GridNode {
 public:
  GridNode(NodeId id, double capacity_mips);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] double capacity_mips() const { return capacity_; }
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// --- ready set (RDS) ---

  /// Adds a dispatched task. Requires no duplicate TaskRef.
  void add_ready(ReadyTask task);

  /// Looks up a ready task; nullptr when absent. Searches from the back: refs
  /// are unique, so the element found is the same as a forward scan's. On the
  /// open-stream benchmark (ready sets of ~375) an input-arrival lookup stops
  /// after 23 entries on average from the back against 354 from the front.
  [[nodiscard]] ReadyTask* find_ready(TaskRef ref);
  [[nodiscard]] const ReadyTask* find_ready(TaskRef ref) const;

  /// Removes a ready task (when it starts running or fails). False if absent.
  bool remove_ready(TaskRef ref);

  [[nodiscard]] const std::vector<ReadyTask>& ready() const { return ready_; }

  /// Tasks whose inputs have all arrived: the phase-2 candidate set.
  [[nodiscard]] std::vector<const ReadyTask*> data_complete() const;

  /// Clears the ready set, returning the dropped tasks (node departure).
  std::vector<ReadyTask> drain_ready();

  /// --- CPU ---

  [[nodiscard]] bool busy() const { return running_.has_value(); }
  [[nodiscard]] const ReadyTask* running() const {
    return running_ ? &*running_ : nullptr;
  }

  /// Moves a data-complete ready task onto the CPU. Requires !busy() and the
  /// task present with no pending inputs. Returns execution duration (s).
  double start_running(TaskRef ref, SimTime now);

  /// Completes the running task; returns it. Requires busy().
  ReadyTask finish_running();

  /// Aborts the running task (node death); returns it if there was one.
  std::optional<ReadyTask> abort_running();

  /// --- load (paper Section II.B: l_r) ---

  /// Total load: queued ready tasks at full load plus the *remaining* load of
  /// the running task at time `now`. This is the l_r that gossip advertises
  /// and that R(tau, p_r) = l_r / c_r is computed from.
  ///
  /// The queued part is a cached left-to-right sum over the ready set, bitwise
  /// equal to summing afresh: add_ready extends it by the new load (a fresh
  /// sum ends with that very addition), a removal marks it stale and the next
  /// call re-sums in the same order.
  [[nodiscard]] double total_load_mi(SimTime now) const;

 private:
  /// Erases `t` (an element of ready_) in place and marks the load cache stale.
  void erase_ready(const ReadyTask* t);

  NodeId id_;
  double capacity_;
  bool alive_ = true;
  std::vector<ReadyTask> ready_;
  /// Left-to-right sum of ready_[i].load_mi; valid unless ready_load_stale_.
  mutable double ready_load_mi_ = 0.0;
  mutable bool ready_load_stale_ = false;
  std::optional<ReadyTask> running_;
  SimTime run_started_ = kNoTime;
  SimTime run_finishes_ = kNoTime;
};

}  // namespace dpjit::grid
