// Data movement between peer nodes, behind the net::NetworkModel seam.
//
// Three network modes (see net/network_model.hpp for the mode matrix):
//  - kBottleneck (default, matches the paper's evaluation): a transfer takes
//    latency(path) + size / bottleneck-bandwidth(path); transfers do not
//    contend with each other.
//  - kFluidFair (ablation): live fluid model where concurrent transfers
//    crossing a link share it max-min fairly (SimGrid-style progressive
//    filling). Rates are re-solved incrementally through net::FairShareSolver
//    whenever a flow starts or ends: only the affected bottleneck component
//    is recomputed. A flow whose path crosses a saturated/zero-capacity link
//    gets rate 0 and can never complete; such flows are aborted immediately
//    instead of stalling forever. The next completion event is armed from
//    an incremental CompletionIndex (projected absolute finish times,
//    re-keyed only for the flows each component re-solve actually updated)
//    instead of a per-event O(active) scan.
//    Machinery: models/fluid_fair.cpp.
//  - kQuantisedFair: epoch-quantised max-min fair sharing. Rates are
//    re-solved ONLY at epoch barriers and frozen in between; flows finishing
//    their propagation phase wait as pending joins and enter the solver at
//    the next barrier; run_quantised() advances each pooled flow's
//    remaining volume LAZILY, once per epoch at its frozen rate (not
//    O(flows) per mutation like the fluid mode's eager advance), and
//    delivers a drained flow two barriers after the epoch in which it
//    drained. Aborts (churn, link failure, task failure) fire immediately
//    and leave the pool at once, but the frozen rates of surviving flows do
//    not move until the next barrier. The manager schedules NO completion
//    events in this mode - the barrier loop owns the clock. Machinery:
//    models/quantised_fair.cpp.
//
// The manager also answers what-if transfer-rate and transfer-time queries
// against the live network: "if a new transfer started on this path now,
// what rate would it get, and when would it finish?" The contention-aware
// scheduling policies and planners charge Eq. 4's transfer cost through
// expected_transfer_time_s. The answers are instantaneous: a fair-mode rate
// holds until the next flow arrival/completion re-solves its component, so
// predicted times are extrapolations. Contended-mode probes are memoized per
// (src, dst) pair in an epoch-keyed cache, the scheduler's only probe cache:
// a cached rate is valid exactly while the solver's mutation stamp, the
// manager's link-state stamp AND (quantised mode) the epoch barrier stamp all
// stand still, which holds for an entire scheduling cycle (the engine runs no
// flow events mid-cycle), so every home node's ranking pass shares one
// component solve per pair instead of paying O(component) per candidate.
// Invalidation is by stamp comparison only - cached answers are bit-identical
// to fresh probes by construction, and a sampled debug assert plus the
// probe_cache differential test hold the cache to that.
//
// Transfers abort with success=false when either endpoint leaves the system,
// or - when path tracking is on - when a link on their recorded route fails
// (link_state_changed). The grid layer's retry policy decides what happens
// next; the manager itself never re-routes an in-flight transfer.
//
// Every way out of the manager - delivery, abort, churn or link teardown,
// stall guard - goes through one batch teardown, resolve_batch(), in every
// mode: erase the whole batch, one solver removal for its pooled flows, then
// the callbacks in batch order. Only the fluid mode adds hooks around it
// (advance the fluid clock before, re-apply rates, stall guard and re-arm the
// completion after), and only when the batch held a pooled flow.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/completion_index.hpp"
#include "net/flow_sharing.hpp"
#include "net/network_model.hpp"
#include "net/routing.hpp"
#include "sim/engine.hpp"

namespace dpjit::grid {

/// Observability of one quantised barrier-loop run (run_quantised()).
struct QuantisedRunStats {
  std::uint64_t barriers = 0;       ///< epoch barriers executed
  std::uint64_t flows_drained = 0;  ///< drains detected (an abort before delivery still counts)
};

/// The quantised epoch actually used for a run: `requested_s` when positive,
/// otherwise max(min routed latency over all distinct node pairs, 60 s). The
/// 60 s floor keeps WAN topologies (sub-millisecond routed latencies) from
/// degenerating into millions of near-empty barriers. O(n^2) latency scan.
[[nodiscard]] double derive_quantised_epoch(const net::Routing& routing, double requested_s);

class TransferManager {
 public:
  /// The network-model seam: behaviour is selected per net/network_model.hpp.
  using Mode = net::NetworkMode;

  /// Completion callback: success=false means the transfer was aborted.
  /// Move-only (fired at most once); small captures stay allocation-free.
  using CompletionFn = sim::InlineFunction<void(bool success)>;

  /// `track_paths` records the routed path of bottleneck-mode transfers so
  /// link_state_changed can find them; contended modes always record paths.
  /// Off by default: the path walk is pure overhead without a fault plan.
  TransferManager(sim::Engine& engine, const net::Topology& topo, const net::Routing& routing,
                  Mode mode = Mode::kBottleneck, bool track_paths = false);

  /// Starts a transfer of `size_mb` megabits from src to dst; the callback
  /// fires (asynchronously) on delivery or abort. Loopback (src == dst)
  /// transfers complete, and transfers with no usable route abort, after
  /// zero delay. Returns a transfer id.
  std::uint64_t start(NodeId src, NodeId dst, double size_mb, CompletionFn on_done);

  /// Aborts every in-flight transfer with an endpoint at `n` (node departure)
  /// as one batch in every mode: all doomed flows are gone (and pooled ones
  /// out of the solver, with one batched re-solve) before the first callback
  /// fires, and callbacks fire in id-ascending order. Under quantised
  /// fairness the surviving flows' frozen rates still only move at the next
  /// barrier.
  void node_left(NodeId n);

  /// Aborts one transfer by id; false if already completed.
  bool abort(std::uint64_t id);

  /// A topology link failed (up=false) or recovered (up=true). On failure,
  /// every in-flight transfer whose recorded route crosses the link aborts
  /// (success=false, id-ascending order). Recovery only invalidates the probe
  /// cache: routes are fixed at start() time, so surviving transfers keep
  /// theirs, but future probes see the rerouted paths. Call AFTER
  /// Routing::set_link_state so retries and probes route around the failure.
  void link_state_changed(LinkId l, bool up);

  /// Transfers aborted by link failures (observability for fault scenarios).
  [[nodiscard]] std::uint64_t link_aborts() const { return link_aborts_; }

  [[nodiscard]] std::size_t active_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t completed_count() const { return completed_; }
  [[nodiscard]] double total_delivered_mb() const { return delivered_mb_; }
  [[nodiscard]] Mode mode() const { return mode_; }

  // --- quantised-fair barrier protocol (models/quantised_fair.cpp) ----------
  // Only valid in Mode::kQuantisedFair.

  /// The quantised barrier loop: drives the engine to `horizon` in epochs of
  /// `epoch_s` (> 0, finite) seconds. Barrier k at t_k = t_{k-1} + epoch_s
  /// (t_0 = 0, accumulated, while t_k <= horizon):
  ///   1. engine.run_until(t_k) - every grid event of the epoch;
  ///   2. deliver, in (finish_s, id) order, the drains step 3 reported at
  ///      t_{k-1}, skipping flows aborted since;
  ///   3. integrate every pooled flow over [t_{k-1}, t_k) at the rate frozen
  ///      at t_{k-1} and report the flows that drained;
  ///   4. quantised_barrier() - admissions and the epoch's frozen re-solve.
  /// A flow that drains in [t_{k-1}, t_k) is therefore delivered at t_{k+1},
  /// two epochs later. Afterwards the engine runs its tail events in
  /// (last barrier, horizon]; flows still in flight do not complete.
  QuantisedRunStats run_quantised(double epoch_s, SimTime horizon);

  /// Executes one epoch barrier at the engine's current time: delivers
  /// zero-size pending joins, admits the rest to the solver, re-freezes every
  /// pooled flow's rate_mbps and aborts barrier-stalled (zero-rate) flows.
  /// Bumps the barrier stamp the probe cache keys on.
  void quantised_barrier();

  /// Barriers executed so far (the probe-cache epoch key in quantised mode).
  [[nodiscard]] std::uint64_t barrier_stamp() const { return barrier_stamp_; }

  /// Flows admitted to the frozen-rate pool and not yet delivered/aborted.
  [[nodiscard]] std::size_t quantised_active() const;

  /// Flows waiting (propagation done) to be admitted at the next barrier.
  [[nodiscard]] std::size_t quantised_pending_joins() const;

  // --- what-if probes -------------------------------------------------------

  /// Rate a new src->dst transfer would get right now. Bottleneck mode: the
  /// routed path's bottleneck bandwidth (flows never contend). Contended
  /// modes: a side-effect-free what-if probe of the incremental max-min
  /// solver against the current in-flight flow set, memoized per pair until
  /// the next solver mutation, link-state change or (quantised) epoch
  /// barrier (see the class comment).
  [[nodiscard]] double predicted_rate_mbps(NodeId src, NodeId dst) const;

  /// latency(path) + size_mb / predicted_rate_mbps. 0 for loopback; latency
  /// alone for an empty payload or an infinite rate; +inf for unreachable
  /// pairs and saturated (zero-rate) paths. In contended modes this
  /// extrapolates the instantaneous allocation over the whole transfer.
  [[nodiscard]] double expected_transfer_time_s(NodeId src, NodeId dst, double size_mb) const;

  /// The pre-cache probe path: routes and solves on every call, never reads
  /// or writes the cache. This is the reference the cached answer must match
  /// bit-for-bit: the oracle of the probe-cache differential tests, not a
  /// path for schedulers.
  [[nodiscard]] double predicted_rate_mbps_uncached(NodeId src, NodeId dst) const;

  /// The legacy probe path: routes and then re-runs the progressive fill from
  /// scratch (FairShareSolver::probe_rate_reference), bypassing both the pair
  /// cache and the solver's recorded probe schedules: what every probe cost
  /// before the cache layers, kept as the oracle of the differential tests.
  [[nodiscard]] double predicted_rate_mbps_reference(NodeId src, NodeId dst) const;

  /// Contended-mode probes answered from the cache / answered by a fresh
  /// solve since construction (observability for tests).
  [[nodiscard]] std::uint64_t probe_cache_hits() const { return probe_cache_hits_; }
  [[nodiscard]] std::uint64_t probe_cache_misses() const { return probe_cache_misses_; }
  /// Fluid flows read to arm the next completion since construction: the
  /// completion index's minimum-key ties, not every active flow
  /// (observability for tests).
  [[nodiscard]] std::uint64_t completion_arm_reads() const { return completion_arm_reads_; }

 private:
  struct Flow {
    NodeId src;
    NodeId dst;
    double size_mb = 0.0;
    double remaining_mb = 0.0;
    double rate_mbps = 0.0;      ///< allocated rate (contended; quantised: frozen)
    std::vector<LinkId> links;   ///< route (contended always; bottleneck when tracked)
    CompletionFn on_done;
    /// Bottleneck-mode completion / contended-mode latency-phase event.
    /// Cleared (kInvalidHandle) the moment the latency phase ends so no later
    /// path can cancel a stale, potentially reused handle.
    sim::EventQueue::Handle event = sim::EventQueue::kInvalidHandle;
    bool fluid = false;  ///< contended: joined the (fluid/frozen) pool
    /// Quantised: propagation done, waiting for the next barrier to be
    /// admitted to the solver.
    bool join_pending = false;
    /// CompletionIndex slab slot from the last upsert, passed back as a hint
    /// to skip the id hash lookup on re-key. Stale values are safe: the index
    /// validates the hint against the flow id before trusting it.
    std::uint32_t ci_slot = CompletionIndex::kNoSlot;
  };

  /// Resolves one flow (no-op if it is already gone).
  void finish(std::uint64_t id, bool success) { resolve_batch(std::span(&id, 1), success); }
  /// The one teardown, for completion and abort alike: per flow (ids already
  /// resolved are skipped) cancel the timer of an unpooled flow, count a
  /// delivery and erase it; then one solver removal for the pooled flows,
  /// the fluid hooks (see the class comment), and the callbacks last, in
  /// `ids` order.
  void resolve_batch(std::span<const std::uint64_t> ids, bool success);

  // --- fluid-fair machinery (models/fluid_fair.cpp) ---
  void fair_flow_started(std::uint64_t id);
  /// Integrates remaining_mb of every fluid flow up to engine time. The
  /// eager O(flows)-per-mutation advance is fluid-mode only; quantised mode
  /// advances lazily at epoch barriers.
  void fair_advance_to_now();
  /// After a pool mutation re-solved: pulls solver_.updated() into the
  /// flows' rate_mbps and re-keys their next-completion projections (the
  /// only entries a component re-solve can invalidate), aborts any flow the
  /// re-solve left with rate <= 0 (saturated/zero-capacity link: it could
  /// never complete and no completion event could be armed for it), and
  /// re-arms the next completion.
  void fair_settle();
  void fair_schedule_next_completion();
  /// The armed completion event: delivers every flow that crossed the line.
  void fair_tick();

  // --- quantised-fair machinery (models/quantised_fair.cpp) ---
  /// Propagation phase over: mark the flow for admission at the next barrier.
  void quantised_flow_ready(std::uint64_t id);

  sim::Engine& engine_;
  const net::Topology& topo_;
  const net::Routing& routing_;
  Mode mode_;
  bool track_paths_;
  // --- contended-mode probe cache (see class comment). Keyed
  // (src << 32 | dst); valid while (solver mutation stamp, manager link
  // stamp, barrier stamp) all match the values captured when the cache was
  // last cleared. `mutable`: the oracle interface is const and the cache is
  // pure memoization - by the solver's probe-purity invariant a hit and a
  // fresh probe are indistinguishable.
  mutable std::unordered_map<std::uint64_t, double> probe_cache_;
  mutable std::uint64_t probe_cache_solver_stamp_ = 0;
  mutable std::uint64_t probe_cache_link_stamp_ = 0;
  mutable std::uint64_t probe_cache_barrier_stamp_ = 0;
  mutable std::uint64_t probe_cache_hits_ = 0;
  mutable std::uint64_t probe_cache_misses_ = 0;
  std::uint64_t completion_arm_reads_ = 0;
  /// Bumped by link_state_changed for BOTH directions: Routing reroutes on
  /// failure and recovery alike, so cached paths go stale either way.
  std::uint64_t link_stamp_ = 0;
  std::unordered_map<std::uint64_t, Flow> flows_;
  net::FairShareSolver solver_;
  /// Fluid mode: projected absolute finish per fluid flow, min-heap-ordered.
  CompletionIndex next_completion_;
  /// Arming scratch: ids tied at the index minimum (usually exactly one).
  std::vector<std::uint64_t> tie_scratch_;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t link_aborts_ = 0;
  double delivered_mb_ = 0.0;
  sim::EventQueue::Handle fair_event_ = sim::EventQueue::kInvalidHandle;
  bool fair_event_armed_ = false;
  SimTime fair_clock_ = 0.0;
  /// Epoch barriers executed; part of the probe-cache key in quantised mode.
  std::uint64_t barrier_stamp_ = 0;
};

}  // namespace dpjit::grid
