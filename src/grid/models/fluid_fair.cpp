// Fluid max-min fair sharing (Mode::kFluidFair) - the zero-lookahead live
// model: the latency-phase join, the eager fluid clock, and the hooks the
// shared teardown (TransferManager::resolve_batch) runs around a batch that
// held a pooled flow. Pinned bit-identical by the golden digests and the
// randomized fluid differential suite (tests/grid/fluid_differential_test).
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "grid/models/transfer_model_detail.hpp"
#include "grid/transfer_manager.hpp"

namespace dpjit::grid {

using detail::kEpsilonMb;

void TransferManager::fair_flow_started(std::uint64_t id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  assert(!flow.fluid);
  // The latency event is firing right now: invalidate the handle so finish()
  // never cancels a stale one (the slot may be reused by an unrelated event).
  flow.event = sim::EventQueue::kInvalidHandle;
  // Sync the fluid clock BEFORE the flow joins the pool. With an empty pool
  // nothing accrues, so this is what keeps a manager whose first fluid flow
  // starts at t > 0 from integrating a bogus [0, now] window later on.
  fair_advance_to_now();
  if (flow.remaining_mb <= kEpsilonMb) {
    finish(id, true);
    return;
  }
  flow.fluid = true;
  // The Flow's address is stable (node-based unordered_map), so it rides
  // along as the solver's user cookie: every future rate update for this
  // flow comes back with the pointer attached, sparing a hash lookup per
  // re-solved flow on the hottest path in fair mode.
  solver_.add(id, flow.links, &flow);
  fair_settle();
}

void TransferManager::fair_advance_to_now() {
  const SimTime now = engine_.now();
  const double dt = now - fair_clock_;
  if (dt > 0.0) {
    for (auto& [id, flow] : flows_) {
      if (!flow.fluid) continue;
      flow.remaining_mb = std::max(0.0, flow.remaining_mb - flow.rate_mbps * dt);
    }
  }
  fair_clock_ = now;
}

void TransferManager::fair_settle() {
  // Callers advance the fluid clock before any re-solve, so `now` is the
  // instant the new rates take effect and remaining_mb is current: the
  // projected finish below is exactly the `now + remaining / rate` the old
  // brute-force arming scan would compute at this moment.
  assert(fair_clock_ == engine_.now());
  const SimTime now = engine_.now();
  std::vector<std::uint64_t> stalled;
  for (const auto& u : solver_.updated()) {
    // The cookie is the Flow itself (attached at solver_.add time); removed
    // flows leave the solver before the re-solve, so every entry here names
    // a live flow and the pointer cannot dangle.
    Flow& flow = *static_cast<Flow*>(u.user);
    assert(flows_.find(u.id) != flows_.end() && &flows_.find(u.id)->second == &flow &&
           flow.fluid);
    flow.rate_mbps = u.rate;
    if (u.rate > 0.0) {
      flow.ci_slot = next_completion_.upsert(u.id, now + flow.remaining_mb / u.rate, flow.ci_slot);
    } else {
      next_completion_.erase(u.id);
      flow.ci_slot = CompletionIndex::kNoSlot;
      stalled.push_back(u.id);
    }
  }
  // Stall guard. In practice only a newly added flow crossing a
  // zero-capacity link gets rate <= 0 (removals never lower surviving
  // rates), but checking after every mutation makes the
  // no-zero-rate-fluid-flow invariant unconditional. The recursion is
  // bounded: each pass removes flows.
  std::sort(stalled.begin(), stalled.end());
  resolve_batch(stalled, false);
  fair_schedule_next_completion();
}

void TransferManager::fair_schedule_next_completion() {
  if (fair_event_armed_) {
    engine_.cancel(fair_event_);
    fair_event_armed_ = false;
  }
  if (next_completion_.empty()) return;
  // The index orders flows by their projected *absolute* finish; the armed
  // delay is recomputed from the eagerly advanced remaining volume with the
  // identical `remaining / rate` expression the old O(active) scan evaluated,
  // so the event lands on the bit-identical time (golden digests depend on
  // this; the debug block below cross-checks it on every arming). Two flows
  // whose delays differ by less than one ulp of the absolute clock collapse
  // onto the same index key - rounding is monotone, so a true-order
  // difference can only become a key tie, never an inversion - and the tie
  // is broken here at full relative precision over the tied subtree.
  tie_scratch_.clear();
  next_completion_.collect_min_ties(tie_scratch_);
  completion_arm_reads_ += tie_scratch_.size();
  double soonest = kInf;
  for (const std::uint64_t fid : tie_scratch_) {
    const auto it = flows_.find(fid);
    assert(it != flows_.end() && it->second.fluid);
    assert(it->second.rate_mbps > 0.0 && "zero-rate fluid flow survived the stall guard");
    soonest = std::min(soonest, it->second.remaining_mb / it->second.rate_mbps);
  }
#ifndef NDEBUG
  double scan = kInf;
  for (const auto& [id, flow] : flows_) {
    if (!flow.fluid) continue;
    assert(flow.rate_mbps > 0.0);
    scan = std::min(scan, flow.remaining_mb / flow.rate_mbps);
  }
  assert(scan == soonest && "CompletionIndex diverged from the brute-force scan");
#endif
  if (!std::isfinite(soonest)) return;  // defensive: mirrors the old scan guard
  fair_event_ = engine_.schedule_in(soonest, [this] {
    fair_event_armed_ = false;
    fair_tick();
  });
  fair_event_armed_ = true;
}

void TransferManager::fair_tick() {
  fair_advance_to_now();
  std::vector<std::uint64_t> done;
  const SimTime now = engine_.now();
  for (const auto& [id, flow] : flows_) {
    if (!flow.fluid) continue;
    // Delivered - or so close that the completion event could not advance
    // simulated time: with a sub-ulp remaining/rate, re-arming would fire at
    // exactly `now` again with dt == 0 and spin forever.
    if (flow.remaining_mb <= kEpsilonMb ||
        now + flow.remaining_mb / flow.rate_mbps <= now) {
      done.push_back(id);
    }
  }
  std::sort(done.begin(), done.end());
  if (done.empty()) {
    // Numerical under-shoot: re-arm and let the frontier catch up. Every
    // surviving flow's completion lies measurably past `now` (the sub-ulp
    // cases were just delivered), so the next tick makes progress.
    fair_schedule_next_completion();
    return;
  }
  resolve_batch(done, true);
}

}  // namespace dpjit::grid
