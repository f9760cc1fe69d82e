// Per-node gossip state: the bounded resource-state cache RSS(p_i) that the
// epidemic protocol maintains (paper Section III.B), and the running
// aggregation estimates.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.hpp"

namespace dpjit::gossip {

/// One entry of RSS(p_i): the freshest state this node knows about a peer.
struct ResourceEntry {
  NodeId node;
  /// Total load (MI) queued + running at `node` when the state was sampled.
  double load_mi = 0.0;
  /// Node capacity in MIPS.
  double capacity_mips = 1.0;
  /// Simulated time at which `node` sampled this state.
  SimTime stamped_at = 0.0;
  /// Remaining epidemic forwarding hops (paper: TTL = 4).
  int ttl = 0;
};

/// Bounded freshest-first cache of ResourceEntry, one per known peer.
///
/// Entry *order* is part of the observable behavior (neighbor selection
/// shuffles the entries in order, consuming RNG draws), so all mutations keep
/// the same vector layout the naive implementation produced: eviction
/// overwrites the *first* stalest slot in place.
///
/// merge() is the single hottest function of an end-to-end run (tens of
/// millions of calls), and almost every call is a no-op on a full view. Two
/// side structures keep those calls cheap without touching the layout:
/// - a direct-mapped node -> slot index makes the per-entry lookup O(1);
/// - a cached stalest stamp lets a full view reject an absent entry that is
///   no fresher than its stalest resident without scanning. Eviction finds the
///   victim and the next-stalest stamp in one pass, so the cache stays valid
///   across evictions; expire(), forget(), clear(), set_capacity() and an
///   in-place refresh of the stalest entry invalidate it, and the next
///   full-view merge rebuilds it. Inserts need no upkeep: they only happen
///   below capacity, which a view reaches only through an invalidating call.
/// rejects() exposes the no-op test so callers can skip filter work for
/// entries that could not change the view anyway.
class ResourceView {
 public:
  explicit ResourceView(std::size_t capacity = 30) : capacity_(capacity) {}

  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    stalest_valid_ = false;  // a view that stops being full may grow staler
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Merges an incoming entry: replaces an older entry about the same node,
  /// inserts otherwise. When full, the stalest entry is evicted if the
  /// incoming one is fresher. Returns true if the view changed.
  bool merge(const ResourceEntry& entry);

  /// True when merge(entry) is certain to leave the view unchanged: a known
  /// node's entry that is not fresher (nor an equal snapshot with more TTL),
  /// or an unknown node's entry that a full view would not admit.
  [[nodiscard]] bool rejects(const ResourceEntry& entry) const {
    const std::uint16_t slot = lookup(entry.node);
    if (slot != kNoSlot) {
      const ResourceEntry& e = entries_[slot];
      return !(entry.stamped_at > e.stamped_at ||
               (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl));
    }
    return entries_.size() >= capacity_ && !(stalest_stamp() < entry.stamped_at);
  }

  /// Drops entries older than `now - max_age` and entries about `self`.
  void expire(SimTime now, double max_age, NodeId self);

  /// Removes the entry about a node (e.g. observed dead). Returns true if found.
  bool forget(NodeId node);

  /// Updates the load recorded for `node` (local correction after dispatching
  /// work to it - Algorithm 1 line 15). Returns false if unknown.
  bool adjust_load(NodeId node, double delta_mi);

  [[nodiscard]] const std::vector<ResourceEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool contains(NodeId node) const;

  /// The entry about `node`, or nullptr when absent. O(1).
  [[nodiscard]] const ResourceEntry* find(NodeId node) const {
    const std::uint16_t slot = lookup(node);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }
  void clear() {
    entries_.clear();
    std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
    stalest_valid_ = false;
  }

 private:
  static constexpr std::uint16_t kNoSlot = 0xffff;

  /// Slot of `node` in entries_, or kNoSlot. Grows the index on demand.
  [[nodiscard]] std::uint16_t lookup(NodeId node) const {
    const auto i = static_cast<std::size_t>(node.get());
    return i < slot_of_.size() ? slot_of_[i] : kNoSlot;
  }
  void index(NodeId node, std::size_t slot) {
    assert(node.valid() && slot < kNoSlot);
    const auto i = static_cast<std::size_t>(node.get());
    if (i >= slot_of_.size()) slot_of_.resize(i + 1, kNoSlot);
    slot_of_[i] = static_cast<std::uint16_t>(slot);
  }
  void unindex(NodeId node) {
    const auto i = static_cast<std::size_t>(node.get());
    if (i < slot_of_.size()) slot_of_[i] = kNoSlot;
  }

  /// Minimum stamped_at over entries_ (+inf when empty), rebuilt on demand.
  [[nodiscard]] SimTime stalest_stamp() const {
    if (!stalest_valid_) {
      stalest_ = std::numeric_limits<SimTime>::infinity();
      for (const auto& e : entries_) stalest_ = std::min(stalest_, e.stamped_at);
      stalest_valid_ = true;
    }
    return stalest_;
  }

  std::size_t capacity_;
  std::vector<ResourceEntry> entries_;
  /// node id -> slot in entries_ (kNoSlot when absent); lazily grown.
  std::vector<std::uint16_t> slot_of_;
  /// Cache of the stalest stamp; meaningful only while stalest_valid_.
  mutable SimTime stalest_ = 0.0;
  mutable bool stalest_valid_ = false;
};

/// Push-pull averaging state for one metric (Jelasity et al., TOCS 2005).
/// The estimate actually *used* is the one published by the last completed
/// epoch; the current epoch's value keeps converging in the background and is
/// re-seeded from the local observation at every epoch boundary so that the
/// aggregate tracks churn.
struct AggregationState {
  double current = 0.0;    ///< value being averaged this epoch
  double published = 0.0;  ///< converged value from the previous epoch
};

}  // namespace dpjit::gossip
