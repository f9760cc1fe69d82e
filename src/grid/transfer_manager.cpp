// Mode-agnostic facade of the TransferManager: flow bookkeeping, transfer
// lifecycle entry points, the one batch teardown and the what-if probes. The
// per-mode machinery lives behind the net::NetworkModel seam in
// models/fluid_fair.cpp and models/quantised_fair.cpp.
#include "grid/transfer_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "grid/models/transfer_model_detail.hpp"

namespace dpjit::grid {
namespace {

std::vector<double> link_capacities(const net::Topology& topo) {
  std::vector<double> caps;
  caps.reserve(topo.link_count());
  for (const auto& link : topo.links()) caps.push_back(link.bandwidth_mbps);
  return caps;
}

}  // namespace

TransferManager::TransferManager(sim::Engine& engine, const net::Topology& topo,
                                 const net::Routing& routing, Mode mode, bool track_paths)
    : engine_(engine), topo_(topo), routing_(routing), mode_(mode), track_paths_(track_paths),
      solver_(link_capacities(topo)) {}

std::uint64_t TransferManager::start(NodeId src, NodeId dst, double size_mb,
                                     CompletionFn on_done) {
  assert(size_mb >= 0.0);
  const std::uint64_t id = next_id_++;
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.size_mb = size_mb;
  flow.remaining_mb = size_mb;
  flow.on_done = std::move(on_done);

  // After zero delay (still asynchronously) a loopback delivers, and a pair
  // with no usable route aborts: unreachable, or - in bottleneck mode - a
  // path across a zero-capacity link, whose event would land at t = +inf.
  const bool loopback = src == dst;
  const double latency = loopback ? 0.0 : routing_.latency_s(src, dst);
  const bool routed = !loopback && std::isfinite(latency);
  const double bandwidth =
      routed && mode_ == Mode::kBottleneck ? routing_.bandwidth_mbps(src, dst) : kInf;
  if (!routed || bandwidth <= 0.0) {
    Flow& f = flows_.emplace(id, std::move(flow)).first->second;
    f.event = engine_.schedule_in(0.0, [this, id, loopback] { finish(id, loopback); });
    return id;
  }

  if (mode_ == Mode::kBottleneck) {
    if (track_paths_) flow.links = routing_.path_links(src, dst);
    Flow& f = flows_.emplace(id, std::move(flow)).first->second;
    f.event = engine_.schedule_in(latency + size_mb / bandwidth, [this, id] { finish(id, true); });
    return id;
  }

  // Contended modes: propagation first, then join the (fluid/frozen) pool -
  // immediately in fluid mode, at the next epoch barrier in quantised mode.
  flow.links = routing_.path_links(src, dst);
  Flow& f = flows_.emplace(id, std::move(flow)).first->second;
  if (mode_ == Mode::kQuantisedFair) {
    f.event = engine_.schedule_in(latency, [this, id] { quantised_flow_ready(id); });
  } else {
    f.event = engine_.schedule_in(latency, [this, id] { fair_flow_started(id); });
  }
  return id;
}

void TransferManager::resolve_batch(std::span<const std::uint64_t> ids, bool success) {
  const bool fluid_mode = mode_ == Mode::kFluidFair;
  std::vector<std::uint64_t> pooled;
  std::vector<CompletionFn> callbacks;
  callbacks.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) continue;  // resolved earlier, e.g. by a callback's abort
    Flow& flow = it->second;
    if (flow.fluid) {
      assert(flow.event == sim::EventQueue::kInvalidHandle);
      if (fluid_mode) {
        // Fluid hook: integrate the pool up to now before it first changes.
        // Erasing unpooled flows before this point does not matter - the
        // advance only touches pooled ones.
        if (pooled.empty()) fair_advance_to_now();
        next_completion_.erase(id);
      }
      pooled.push_back(id);
    } else {
      // Latency-phase, pending-join, loopback or bottleneck flow: kill its
      // timer (a no-op for a pending join, whose handle is already cleared).
      engine_.cancel(flow.event);
    }
    if (success) {
      ++completed_;
      delivered_mb_ += flow.size_mb;
    }
    callbacks.push_back(std::move(flow.on_done));
    flows_.erase(it);
  }
  if (!pooled.empty()) {
    solver_.remove_batch(pooled);
    // Quantised mode deliberately leaves the re-solve unapplied: surviving
    // flows keep their frozen rates until the next barrier reads the solver
    // back (removals never lower surviving rates, so no stall guard either).
    if (fluid_mode) fair_settle();
  }
  // Callbacks fire last, against fully consistent state: they may re-enter
  // start()/abort() (the grid restarts lost input transfers from the home
  // node, for example).
  for (auto& cb : callbacks) {
    if (cb) cb(success);
  }
}

void TransferManager::node_left(NodeId n) {
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == n || flow.dst == n) doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());  // hash-map order -> deterministic
  resolve_batch(doomed, false);
}

bool TransferManager::abort(std::uint64_t id) {
  if (!flows_.contains(id)) return false;
  finish(id, false);
  return true;
}

void TransferManager::link_state_changed(LinkId l, bool up) {
  // Probe paths change on failure AND recovery (Routing::set_link_state has
  // already rerouted by contract), so the cache stamp moves either way even
  // though only failures abort transfers below.
  ++link_stamp_;
  if (up) return;  // surviving transfers keep their (still valid) old routes
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, flow] : flows_) {
    if (std::find(flow.links.begin(), flow.links.end(), l) != flow.links.end()) {
      doomed.push_back(id);
    }
  }
  std::sort(doomed.begin(), doomed.end());  // hash-map order -> deterministic
  link_aborts_ += doomed.size();
  resolve_batch(doomed, false);
}

// --- what-if probes --------------------------------------------------------

double TransferManager::predicted_rate_mbps_uncached(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    // No contention in this model: the live rate IS the static path rate.
    return routing_.bandwidth_mbps(src, dst);
  }
  const std::vector<LinkId> links = routing_.path_links(src, dst);
  if (links.empty()) return 0.0;  // unreachable pair (no route)
  return solver_.probe_rate(links);
}

double TransferManager::predicted_rate_mbps_reference(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    return routing_.bandwidth_mbps(src, dst);
  }
  const std::vector<LinkId> links = routing_.path_links(src, dst);
  if (links.empty()) return 0.0;  // unreachable pair (no route)
  return solver_.probe_rate_reference(links);
}

double TransferManager::predicted_rate_mbps(NodeId src, NodeId dst) const {
  if (src == dst) return kInf;  // loopback transfers are free
  if (mode_ == Mode::kBottleneck) {
    // The matrix read is cheaper than any cache lookup and always live.
    return routing_.bandwidth_mbps(src, dst);
  }
  // Stamp check: the cache holds exactly while no flow joined/left the pool,
  // no link changed state, and (quantised mode) no epoch barrier re-froze the
  // rates. Probes themselves never move any stamp, so a ranking pass over
  // hundreds of candidates reuses one solve per distinct pair. The barrier
  // stamp is constant outside quantised mode, so the extra compare costs the
  // fluid path nothing.
  const std::uint64_t solver_stamp = solver_.mutation_stamp();
  if (probe_cache_solver_stamp_ != solver_stamp || probe_cache_link_stamp_ != link_stamp_ ||
      probe_cache_barrier_stamp_ != barrier_stamp_) {
    probe_cache_.clear();
    probe_cache_solver_stamp_ = solver_stamp;
    probe_cache_link_stamp_ = link_stamp_;
    probe_cache_barrier_stamp_ = barrier_stamp_;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.get())) << 32) |
      static_cast<std::uint32_t>(dst.get());
  if (const auto it = probe_cache_.find(key); it != probe_cache_.end()) {
    ++probe_cache_hits_;
#ifndef NDEBUG
    // Sampled differential check (every 64th hit): a full per-hit re-probe
    // would make Debug builds as slow as the uncached path; the dedicated
    // probe_cache test asserts bit-equality at EVERY step instead.
    if ((probe_cache_hits_ & 63u) == 0) {
      assert(it->second == predicted_rate_mbps_uncached(src, dst) &&
             "probe cache diverged from a fresh solve");
    }
#endif
    return it->second;
  }
  ++probe_cache_misses_;
  const double rate = predicted_rate_mbps_uncached(src, dst);
  probe_cache_.emplace(key, rate);
  return rate;
}

double TransferManager::expected_transfer_time_s(NodeId src, NodeId dst, double size_mb) const {
  if (src == dst) return 0.0;
  const double latency = routing_.latency_s(src, dst);
  if (!std::isfinite(latency)) return kInf;  // skip the probe entirely
  if (size_mb <= 0.0) return latency;
  const double rate = predicted_rate_mbps(src, dst);
  if (rate <= 0.0) return kInf;
  if (std::isinf(rate)) return latency;
  return latency + size_mb / rate;
}

}  // namespace dpjit::grid
