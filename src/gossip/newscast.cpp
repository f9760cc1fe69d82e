#include "gossip/view.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dpjit::gossip {

// NOTE: every mutation below must leave entries_ in exactly the layout the
// original index-free implementation produced (same slots, same order): the
// neighbor-selection shuffle consumes RNG draws over the entries in order,
// so layout changes would silently change simulation results.

bool ResourceView::merge(const ResourceEntry& entry) {
  const std::uint16_t slot = lookup(entry.node);
  if (slot != kNoSlot) {
    ResourceEntry& e = entries_[slot];
    if (entry.stamped_at > e.stamped_at) {
      // Refreshing the stalest entry may raise the minimum.
      if (stalest_valid_ && e.stamped_at == stalest_) stalest_valid_ = false;
      e = entry;
      return true;
    }
    // Same snapshot seen again: keep the higher remaining TTL so forwarding
    // budget is not lost to duplicate delivery order.
    if (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl) e.ttl = entry.ttl;
    return false;
  }
  if (entries_.size() < capacity_) {
    index(entry.node, entries_.size());
    entries_.push_back(entry);
    return true;
  }
  // Full: evict the stalest entry if the newcomer is fresher. Most calls end
  // here, against the cached stamp, without touching the entries.
  const SimTime stalest = stalest_stamp();
  if (!(stalest < entry.stamped_at)) return false;
  // One pass: the first stalest slot (the victim, as min_element would pick
  // it) and the stalest stamp among the survivors.
  std::size_t victim = entries_.size();
  SimTime next = std::numeric_limits<SimTime>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const SimTime s = entries_[i].stamped_at;
    if (victim == entries_.size() && s == stalest) {
      victim = i;
    } else {
      next = std::min(next, s);
    }
  }
  assert(victim < entries_.size());
  unindex(entries_[victim].node);
  index(entry.node, victim);
  entries_[victim] = entry;
  stalest_ = std::min(next, entry.stamped_at);
  return true;
}

void ResourceView::expire(SimTime now, double max_age, NodeId self) {
  const auto before = entries_.size();
  std::erase_if(entries_, [&](const ResourceEntry& e) {
    const bool drop = e.node == self || (now - e.stamped_at) > max_age;
    if (drop) unindex(e.node);
    return drop;
  });
  // erase_if compacted the survivors; refresh their slots.
  if (entries_.size() != before) {
    for (std::size_t i = 0; i < entries_.size(); ++i) index(entries_[i].node, i);
    stalest_valid_ = false;
  }
}

bool ResourceView::forget(NodeId node) {
  const std::uint16_t slot = lookup(node);
  if (slot == kNoSlot) return false;
  unindex(node);
  entries_.erase(entries_.begin() + slot);
  for (std::size_t i = slot; i < entries_.size(); ++i) index(entries_[i].node, i);
  stalest_valid_ = false;
  return true;
}

bool ResourceView::adjust_load(NodeId node, double delta_mi) {
  const std::uint16_t slot = lookup(node);
  if (slot == kNoSlot) return false;
  ResourceEntry& e = entries_[slot];
  e.load_mi = std::max(0.0, e.load_mi + delta_mi);
  return true;
}

bool ResourceView::contains(NodeId node) const { return lookup(node) != kNoSlot; }

}  // namespace dpjit::gossip
