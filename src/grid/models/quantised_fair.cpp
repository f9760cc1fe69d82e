// Epoch-quantised max-min fair sharing (Mode::kQuantisedFair) and the
// serial barrier loop that drives it (run_quantised).
//
// Barrier contract:
//  - The manager never schedules completion events. The loop advances each
//    pooled flow's remaining_mb LAZILY, once per epoch, at the rate_mbps
//    frozen at the previous barrier.
//  - quantised_barrier() runs at every epoch barrier t_k with the engine
//    already advanced to t_k. It admits the propagation-complete flows,
//    re-freezes every pooled flow's rate from the solver and aborts
//    barrier-stalled flows.
//  - Aborts between barriers (churn, link failure, task failure) fire their
//    callbacks immediately and leave flows_ and the solver immediately, so
//    an aborted flow is never integrated again; surviving flows' FROZEN
//    rates do not move until the next barrier. A drain racing such an abort
//    is dropped at delivery: resolve_batch skips flows already gone.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "grid/models/transfer_model_detail.hpp"
#include "grid/transfer_manager.hpp"

namespace dpjit::grid {

using detail::kEpsilonMb;

void TransferManager::quantised_flow_ready(std::uint64_t id) {
  assert(mode_ == Mode::kQuantisedFair);
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  assert(!flow.fluid && !flow.join_pending);
  // The latency event is firing right now: invalidate the handle so finish()
  // never cancels a stale, potentially reused one.
  flow.event = sim::EventQueue::kInvalidHandle;
  flow.join_pending = true;
}

void TransferManager::quantised_barrier() {
  assert(mode_ == Mode::kQuantisedFair);
  // The stamp moves FIRST: any probe a barrier-time callback issues below
  // must see the post-barrier flow set, never a pre-barrier cached answer.
  ++barrier_stamp_;

  // 1. Admit the propagation-complete flows in id order (flows_ iterates in
  // hash order; the solver must see the same sequence run to run for the
  // golden digests to hold). Zero-size flows are delivered right away
  // instead of occupying solver capacity for an epoch.
  std::vector<std::uint64_t> joins;
  std::vector<std::uint64_t> pool;
  for (const auto& [id, flow] : flows_) {
    if (flow.join_pending) {
      joins.push_back(id);
    } else if (flow.fluid) {
      pool.push_back(id);
    }
  }
  std::sort(joins.begin(), joins.end());
  std::vector<std::uint64_t> zero_size;
  for (const std::uint64_t id : joins) {
    Flow& flow = flows_.at(id);
    flow.join_pending = false;
    if (flow.remaining_mb <= kEpsilonMb) {
      zero_size.push_back(id);
      continue;
    }
    flow.fluid = true;
    solver_.add(id, flow.links, &flow);
    pool.push_back(id);
  }
  // Zero-size deliveries may re-enter start() (successor staging) and even
  // abort pooled flows (task-failure cascades); both are safe here - new
  // flows sit in the propagation phase until the next barrier, and aborted
  // ones are skipped by the lookup below.
  for (const std::uint64_t id : zero_size) finish(id, true);

  // 2. Re-freeze every pooled flow's rate for the coming epoch, in id order.
  std::sort(pool.begin(), pool.end());
  std::vector<std::uint64_t> stalled;
  for (const std::uint64_t id : pool) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) continue;
    const double rate = solver_.rate(id);
    if (rate <= 0.0) {
      // Saturated/zero-capacity path: the flow could never drain. Abort at
      // the barrier (the quantised analogue of the fluid stall guard).
      stalled.push_back(id);
      continue;
    }
    it->second.rate_mbps = rate;
  }
  resolve_batch(stalled, false);
}

QuantisedRunStats TransferManager::run_quantised(double epoch_s, SimTime horizon) {
  assert(mode_ == Mode::kQuantisedFair);
  if (!(epoch_s > 0.0) || !std::isfinite(epoch_s)) {
    throw std::invalid_argument("run_quantised: epoch must be positive and finite");
  }
  QuantisedRunStats stats;
  SimTime previous_t = 0.0;
  // (finish_s, id) of the drains reported at the previous barrier; the pair
  // order is the delivery order.
  std::vector<std::pair<SimTime, std::uint64_t>> drained;
  std::vector<std::uint64_t> delivered;

  // Repeated addition, not k * epoch: the barrier instants are part of the
  // golden digests and must not move. At barrier 0 the pool is empty, so
  // its integration is a no-op.
  for (SimTime t = 0.0; t <= horizon; t += epoch_s) {
    engine_.run_until(t);

    // Deliver the drains reported at t_{k-1}; resolve_batch skips the flows
    // aborted since (their callbacks already fired).
    delivered.clear();
    for (const auto& [finish_s, id] : drained) delivered.push_back(id);
    resolve_batch(delivered, true);

    // Integrate [t_{k-1}, t_k) at the rates frozen at t_{k-1}. The stall
    // guard aborts zero-rate flows at admission and removals never lower
    // surviving solver rates, so every pooled rate is strictly positive.
    drained.clear();
    for (auto& [id, flow] : flows_) {
      if (!flow.fluid) continue;
      if (flow.remaining_mb - flow.rate_mbps * epoch_s <= kEpsilonMb) {
        drained.emplace_back(previous_t + std::min(epoch_s, flow.remaining_mb / flow.rate_mbps),
                             id);
      } else {
        flow.remaining_mb -= flow.rate_mbps * epoch_s;
      }
    }
    std::sort(drained.begin(), drained.end());
    stats.flows_drained += drained.size();

    quantised_barrier();
    ++stats.barriers;
    previous_t = t;
  }
  engine_.run_until(horizon);
  return stats;
}

double derive_quantised_epoch(const net::Routing& routing, double requested_s) {
  if (requested_s > 0.0) return requested_s;
  constexpr double kFloorS = 60.0;
  double min_latency_s = std::numeric_limits<double>::infinity();
  const int n = routing.node_count();
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      min_latency_s = std::min(min_latency_s, routing.latency_s(NodeId{u}, NodeId{v}));
    }
  }
  if (!std::isfinite(min_latency_s)) return kFloorS;  // < 2 nodes
  return std::max(min_latency_s, kFloorS);
}

std::size_t TransferManager::quantised_active() const {
  std::size_t n = 0;
  for (const auto& [id, flow] : flows_) n += flow.fluid ? 1 : 0;
  return n;
}

std::size_t TransferManager::quantised_pending_joins() const {
  std::size_t n = 0;
  for (const auto& [id, flow] : flows_) n += flow.join_pending ? 1 : 0;
  return n;
}

}  // namespace dpjit::grid
