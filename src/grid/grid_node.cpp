#include "grid/grid_node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace dpjit::grid {

GridNode::GridNode(NodeId id, double capacity_mips) : id_(id), capacity_(capacity_mips) {
  if (capacity_mips <= 0.0) throw std::invalid_argument("GridNode: capacity must be > 0");
}

void GridNode::add_ready(ReadyTask task) {
  assert(find_ready(task.ref) == nullptr && "duplicate ready task");
  ready_load_mi_ += task.load_mi;  // harmless while stale: the next read re-sums
  ready_.push_back(std::move(task));
}

ReadyTask* GridNode::find_ready(TaskRef ref) {
  return const_cast<ReadyTask*>(std::as_const(*this).find_ready(ref));
}

const ReadyTask* GridNode::find_ready(TaskRef ref) const {
  for (auto it = ready_.rbegin(); it != ready_.rend(); ++it) {
    if (it->ref == ref) return &*it;
  }
  return nullptr;
}

bool GridNode::remove_ready(TaskRef ref) {
  const ReadyTask* t = find_ready(ref);
  if (t == nullptr) return false;
  erase_ready(t);
  return true;
}

void GridNode::erase_ready(const ReadyTask* t) {
  ready_.erase(ready_.begin() + (t - ready_.data()));
  ready_load_stale_ = true;
}

std::vector<const ReadyTask*> GridNode::data_complete() const {
  std::vector<const ReadyTask*> out;
  for (const auto& t : ready_) {
    if (t.pending_inputs == 0) out.push_back(&t);
  }
  return out;
}

std::vector<ReadyTask> GridNode::drain_ready() {
  std::vector<ReadyTask> out = std::move(ready_);
  ready_.clear();
  ready_load_mi_ = 0.0;
  ready_load_stale_ = false;
  return out;
}

double GridNode::start_running(TaskRef ref, SimTime now) {
  if (busy()) throw std::logic_error("GridNode::start_running: CPU busy");
  ReadyTask* t = find_ready(ref);
  if (t == nullptr) throw std::logic_error("GridNode::start_running: task not in ready set");
  if (t->pending_inputs != 0) {
    throw std::logic_error("GridNode::start_running: inputs still pending");
  }
  running_ = *t;
  erase_ready(t);
  const double duration = running_->load_mi / capacity_;
  run_started_ = now;
  run_finishes_ = now + duration;
  return duration;
}

ReadyTask GridNode::finish_running() {
  if (!busy()) throw std::logic_error("GridNode::finish_running: CPU idle");
  ReadyTask t = *running_;
  running_.reset();
  run_started_ = run_finishes_ = kNoTime;
  return t;
}

std::optional<ReadyTask> GridNode::abort_running() {
  std::optional<ReadyTask> t = running_;
  running_.reset();
  run_started_ = run_finishes_ = kNoTime;
  return t;
}

double GridNode::total_load_mi(SimTime now) const {
  if (ready_load_stale_) {
    double fresh = 0.0;
    for (const auto& t : ready_) fresh += t.load_mi;
    ready_load_mi_ = fresh;
    ready_load_stale_ = false;
  }
  double sum = ready_load_mi_;
  if (running_) {
    const double span = run_finishes_ - run_started_;
    const double frac = span <= 0.0 ? 0.0 : std::clamp((run_finishes_ - now) / span, 0.0, 1.0);
    sum += running_->load_mi * frac;
  }
  return sum;
}

}  // namespace dpjit::grid
