// Epoch-quantised max-min fair sharing (Mode::kQuantisedFair) and the
// serial barrier loop that drives it (run_quantised).
//
// Barrier/deliver contract:
//  - The manager never schedules completion events. Flow volume is advanced
//    LAZILY, once per epoch, by the loop's flow ledger.
//  - quantised_barrier() runs at every epoch barrier t_k with the engine
//    already advanced to t_k. It admits the propagation-complete joins
//    queued since the last barrier, re-freezes every active flow's rate from
//    the solver, aborts barrier-stalled flows and hands back the id-sorted
//    delta (joins / rate changes / cancels) the ledger applies for
//    [t_k, t_{k+1}).
//  - Aborts between barriers (churn, link failure, task failure) fire their
//    callbacks immediately and leave the solver immediately, but surviving
//    flows' FROZEN rates do not move until the next barrier; the aborted ids
//    are queued as ledger cancels. A drain report racing such an abort is
//    skipped by the flows_ membership check in quantised_deliver().
//  - quantised_deliver() runs at a barrier with the ledger-detected drains,
//    (finish_s, id)-sorted so the callback order is deterministic.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "grid/models/transfer_model_detail.hpp"
#include "grid/transfer_manager.hpp"

namespace dpjit::grid {

using detail::kEpsilonMb;

namespace {
/// Admission sentinel: marks a flow that joined the pool at the current
/// barrier, before its first frozen rate is read back from the solver.
constexpr double kUnratedSentinel = -1.0;
}  // namespace

void TransferManager::quantised_flow_ready(std::uint64_t id) {
  assert(mode_ == Mode::kQuantisedFair);
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  assert(flow.latency_pending && !flow.fluid);
  flow.latency_pending = false;
  // The latency event is firing right now: invalidate the handle so finish()
  // never cancels a stale, potentially reused one.
  flow.event = sim::EventQueue::kInvalidHandle;
  flow.join_pending = true;
  pending_joins_.push_back(id);
}

QuantisedBarrierDelta TransferManager::quantised_barrier() {
  assert(mode_ == Mode::kQuantisedFair);
  QuantisedBarrierDelta delta;
  // The stamp moves FIRST: any probe a barrier-time callback issues below
  // must see the post-barrier flow set, never a pre-barrier cached answer.
  ++barrier_stamp_;

  // 1. Admit the propagation-complete joins in id order. The queue may hold
  // stale ids (flows aborted before admission); the join_pending flag is the
  // authority. Zero-size flows are delivered right away instead of occupying
  // solver capacity for an epoch.
  std::sort(pending_joins_.begin(), pending_joins_.end());
  std::vector<std::uint64_t> zero_size;
  for (const std::uint64_t id : pending_joins_) {
    auto it = flows_.find(id);
    if (it == flows_.end() || !it->second.join_pending) continue;
    Flow& flow = it->second;
    flow.join_pending = false;
    if (flow.remaining_mb <= kEpsilonMb) {
      zero_size.push_back(id);
      continue;
    }
    flow.fluid = true;
    flow.rate_mbps = kUnratedSentinel;
    solver_.add(id, flow.links, &flow);
  }
  pending_joins_.clear();
  // Zero-size deliveries may re-enter start() (successor staging) and even
  // abort admitted flows (task-failure cascades); both are safe here - new
  // flows sit in the propagation phase until the next barrier, and aborted
  // ones simply vanish from flows_ before the rate collection below.
  for (const std::uint64_t id : zero_size) finish(id, true);

  // 2. Re-freeze every active flow's rate for the coming epoch. Iteration is
  // hash order, so collect and sort by id before classifying - the delta must
  // be byte-identical run to run for the golden digests to hold.
  std::vector<std::uint64_t> active;
  active.reserve(flows_.size());
  for (const auto& [id, flow] : flows_) {
    if (flow.fluid) active.push_back(id);
  }
  std::sort(active.begin(), active.end());
  std::vector<std::uint64_t> stalled;
  for (const std::uint64_t id : active) {
    Flow& flow = flows_.at(id);
    const double rate = solver_.rate(id);
    if (rate <= 0.0) {
      // Saturated/zero-capacity path: the flow could never drain. Abort at
      // the barrier (the quantised analogue of the fluid stall guard).
      stalled.push_back(id);
      continue;
    }
    if (flow.rate_mbps == kUnratedSentinel) {
      delta.joins.push_back(QuantisedJoin{id, flow.remaining_mb, rate});
    } else if (rate != flow.rate_mbps) {
      delta.rate_changes.push_back(QuantisedRateChange{id, rate});
    }
    flow.rate_mbps = rate;
  }
  if (!stalled.empty()) quantised_resolve_batch(stalled, false);

  // 3. Ship the cancels accumulated since the last barrier LAST: stall (and
  // zero-size) callbacks above may have aborted flows already emitted into
  // `joins`/`rate_changes`, and the ledger applies joins -> rate changes ->
  // cancels, so a same-barrier cancel always wins.
  delta.cancels = std::move(pending_cancels_);
  pending_cancels_.clear();
  std::sort(delta.cancels.begin(), delta.cancels.end());
  return delta;
}

void TransferManager::quantised_resolve_batch(const std::vector<std::uint64_t>& ids,
                                              bool success) {
  assert(mode_ == Mode::kQuantisedFair);
  if (ids.empty()) return;
  std::vector<std::uint64_t> pool_ids;
  std::vector<CompletionFn> callbacks;
  pool_ids.reserve(ids.size());
  callbacks.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    auto it = flows_.find(id);
    assert(it != flows_.end());
    Flow& flow = it->second;
    if (flow.fluid) {
      assert(flow.event == sim::EventQueue::kInvalidHandle);
      pool_ids.push_back(id);
      // The ledger learns about the abort at the next barrier; a drain it
      // reports in the meantime is skipped by the membership check in
      // quantised_deliver().
      pending_cancels_.push_back(id);
    } else {
      // Latency-phase, pending-join or loopback flow: kill its timer (a
      // no-op for pending joins, whose handle is already invalidated; the
      // stale queue entry is skipped at admission).
      engine_.cancel(flow.event);
    }
    if (success) {
      ++completed_;
      delivered_mb_ += flow.size_mb;
    }
    callbacks.push_back(std::move(flow.on_done));
    flows_.erase(it);
  }
  // One batched removal; the re-solve result is deliberately NOT applied -
  // surviving flows keep their frozen rates until the next barrier reads the
  // solver back. (Removals never lower surviving rates, so no stall guard is
  // needed here either.)
  if (!pool_ids.empty()) solver_.remove_batch(pool_ids);
  // Callbacks fire last, against fully consistent state: they may re-enter
  // start()/abort() (the grid restarts lost input transfers from the home
  // node, for example).
  for (auto& cb : callbacks) {
    if (cb) cb(success);
  }
}

void TransferManager::quantised_deliver(const std::vector<QuantisedDone>& done) {
  assert(mode_ == Mode::kQuantisedFair);
  std::vector<std::uint64_t> pool_ids;
  std::vector<CompletionFn> callbacks;
  pool_ids.reserve(done.size());
  callbacks.reserve(done.size());
  for (const QuantisedDone& d : done) {
    auto it = flows_.find(d.id);
    // Aborted between drain detection and delivery (the pipeline races churn
    // by design): the abort already fired its callback and left the solver.
    if (it == flows_.end() || !it->second.fluid) continue;
    Flow& flow = it->second;
    pool_ids.push_back(d.id);
    ++completed_;
    delivered_mb_ += flow.size_mb;
    callbacks.push_back(std::move(flow.on_done));
    flows_.erase(it);
  }
  // Frozen-rate semantics again: remove in one batch, apply nothing.
  if (!pool_ids.empty()) solver_.remove_batch(pool_ids);
  for (auto& cb : callbacks) {
    if (cb) cb(true);
  }
}

QuantisedRunStats TransferManager::run_quantised(double epoch_s, SimTime horizon) {
  assert(mode_ == Mode::kQuantisedFair);
  if (!(epoch_s > 0.0) || !std::isfinite(epoch_s)) {
    throw std::invalid_argument("run_quantised: epoch must be positive and finite");
  }
  /// Ledger-side state of one admitted flow: what is left and the epoch's
  /// frozen rate. The manager deliberately does NOT advance its own
  /// remaining_mb in this mode - volume lives here and only here.
  struct LedgerFlow {
    double remaining_mb = 0.0;
    double rate_mbps = 0.0;
  };
  std::unordered_map<std::uint64_t, LedgerFlow> ledger;
  QuantisedRunStats stats;
  QuantisedBarrierDelta previous;  // barrier k-1's delta, driven at barrier k
  SimTime previous_t = 0.0;
  std::vector<QuantisedDone> drained;  // reported at barrier k-1, delivered at k

  // Repeated addition, not k * epoch: the barrier instants are part of the
  // golden digests and must not move. At barrier 0 `previous` is empty, so
  // its drive is a no-op.
  for (SimTime t = 0.0; t <= horizon; t += epoch_s) {
    // 1-3: the engine catches up, last barrier's drains land, and the
    // barrier admits and re-solves.
    engine_.run_until(t);
    quantised_deliver(drained);
    drained.clear();
    QuantisedBarrierDelta delta = quantised_barrier();
    ++stats.barriers;

    // 4: drive the previous barrier's delta over [previous_t, t). Cancels
    // go last, so a flow joined and cancelled at one barrier never drains.
    for (const QuantisedJoin& j : previous.joins) {
      ledger[j.id] = LedgerFlow{j.remaining_mb, j.rate_mbps};
    }
    for (const QuantisedRateChange& rc : previous.rate_changes) {
      if (const auto it = ledger.find(rc.id); it != ledger.end()) {
        it->second.rate_mbps = rc.rate_mbps;
      }
    }
    for (const std::uint64_t id : previous.cancels) stats.flows_cancelled += ledger.erase(id);
    stats.flows_joined += previous.joins.size();
    for (auto& [id, f] : ledger) {
      // The barrier's stall guard aborts zero-rate flows at admission and
      // removals never lower surviving solver rates, so every ledger rate
      // is strictly positive and the division below is safe.
      if (f.remaining_mb - f.rate_mbps * epoch_s <= kEpsilonMb) {
        const double finish = previous_t + std::min(epoch_s, f.remaining_mb / f.rate_mbps);
        drained.push_back(QuantisedDone{finish, id});
      } else {
        f.remaining_mb -= f.rate_mbps * epoch_s;
      }
    }
    // Hash-order collection: sort so the delivery order is deterministic.
    std::sort(drained.begin(), drained.end(), [](const auto& a, const auto& b) {
      return a.finish_s != b.finish_s ? a.finish_s < b.finish_s : a.id < b.id;
    });
    for (const QuantisedDone& d : drained) ledger.erase(d.id);
    stats.flows_drained += drained.size();

    previous = std::move(delta);
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
