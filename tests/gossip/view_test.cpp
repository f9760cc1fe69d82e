#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gossip/view.hpp"
#include "util/rng.hpp"

namespace dpjit::gossip {
namespace {

ResourceEntry entry(int node, double load, SimTime at, int ttl = 4) {
  return ResourceEntry{NodeId{node}, load, 2.0, at, ttl};
}

TEST(ResourceView, MergeInsertsNewEntries) {
  ResourceView v(4);
  EXPECT_TRUE(v.merge(entry(1, 10, 1.0)));
  EXPECT_TRUE(v.merge(entry(2, 20, 1.0)));
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.contains(NodeId{1}));
}

TEST(ResourceView, FresherEntryReplacesStale) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0));
  EXPECT_TRUE(v.merge(entry(1, 99, 2.0)));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 99.0);
}

TEST(ResourceView, StaleEntryIgnored) {
  ResourceView v(4);
  v.merge(entry(1, 10, 5.0));
  EXPECT_FALSE(v.merge(entry(1, 99, 2.0)));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 10.0);
}

TEST(ResourceView, EqualTimestampKeepsHigherTtl) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0, 1));
  EXPECT_FALSE(v.merge(entry(1, 10, 1.0, 3)));
  EXPECT_EQ(v.entries()[0].ttl, 3);
}

TEST(ResourceView, CapacityEvictsStalest) {
  ResourceView v(2);
  v.merge(entry(1, 0, 1.0));
  v.merge(entry(2, 0, 5.0));
  EXPECT_TRUE(v.merge(entry(3, 0, 3.0)));  // evicts node 1 (stamped 1.0)
  EXPECT_EQ(v.size(), 2u);
  EXPECT_FALSE(v.contains(NodeId{1}));
  EXPECT_TRUE(v.contains(NodeId{3}));
}

TEST(ResourceView, FullViewRejectsStalerThanAll) {
  ResourceView v(2);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 6.0));
  EXPECT_FALSE(v.merge(entry(3, 0, 1.0)));
  EXPECT_FALSE(v.contains(NodeId{3}));
}

TEST(ResourceView, EqualTimestampLowerTtlIgnored) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0, 3));
  EXPECT_FALSE(v.merge(entry(1, 99, 1.0, 1)));
  EXPECT_EQ(v.entries()[0].ttl, 3);
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 10.0);  // payload not overwritten
}

TEST(ResourceView, FullViewEqualStampNewcomerRejected) {
  // Eviction requires the newcomer to be STRICTLY fresher than the stalest
  // resident; ties keep the resident (stable under duplicate delivery).
  ResourceView v(2);
  v.merge(entry(1, 0, 3.0));
  v.merge(entry(2, 0, 5.0));
  EXPECT_FALSE(v.merge(entry(3, 0, 3.0)));
  EXPECT_TRUE(v.contains(NodeId{1}));
  EXPECT_FALSE(v.contains(NodeId{3}));
}

TEST(ResourceView, EvictionReplacesStalestInPlace) {
  // Entry order is observable (neighbor selection shuffles entries in order),
  // so eviction must overwrite the stalest slot, not erase + append.
  ResourceView v(3);
  v.merge(entry(1, 0, 5.0));
  v.merge(entry(2, 0, 1.0));  // stalest, slot 1
  v.merge(entry(3, 0, 7.0));
  EXPECT_TRUE(v.merge(entry(4, 0, 2.0)));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.entries()[0].node, NodeId{1});
  EXPECT_EQ(v.entries()[1].node, NodeId{4});  // took node 2's slot
  EXPECT_EQ(v.entries()[2].node, NodeId{3});
}

TEST(ResourceView, FindIsSlotConsistentAcrossMutations) {
  ResourceView v(3);
  for (int n = 1; n <= 3; ++n) v.merge(entry(n, 10.0 * n, n));
  v.forget(NodeId{2});       // compacts: node 3 shifts into slot 1
  v.merge(entry(4, 40, 9.0));
  ASSERT_NE(v.find(NodeId{3}), nullptr);
  EXPECT_DOUBLE_EQ(v.find(NodeId{3})->load_mi, 30.0);
  EXPECT_EQ(v.find(NodeId{2}), nullptr);
  ASSERT_NE(v.find(NodeId{4}), nullptr);
  EXPECT_DOUBLE_EQ(v.find(NodeId{4})->load_mi, 40.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.find(v.entries()[i].node), &v.entries()[i]);
  }
}

/// Naive index-free reference implementing the documented merge semantics.
/// The production class promises to preserve this exact entry layout.
class NaiveView {
 public:
  explicit NaiveView(std::size_t capacity) : capacity_(capacity) {}

  bool merge(const ResourceEntry& entry) {
    for (auto& e : entries_) {
      if (e.node != entry.node) continue;
      if (entry.stamped_at > e.stamped_at) {
        e = entry;
        return true;
      }
      if (entry.stamped_at == e.stamped_at && entry.ttl > e.ttl) e.ttl = entry.ttl;
      return false;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(entry);
      return true;
    }
    auto stalest = std::min_element(entries_.begin(), entries_.end(),
                                    [](const ResourceEntry& a, const ResourceEntry& b) {
                                      return a.stamped_at < b.stamped_at;
                                    });
    if (stalest->stamped_at < entry.stamped_at) {
      *stalest = entry;
      return true;
    }
    return false;
  }

  bool forget(NodeId node) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->node == node) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  void expire(SimTime now, double max_age, NodeId self) {
    std::erase_if(entries_, [&](const ResourceEntry& e) {
      return e.node == self || (now - e.stamped_at) > max_age;
    });
  }

  bool adjust_load(NodeId node, double delta_mi) {
    for (auto& e : entries_) {
      if (e.node != node) continue;
      e.load_mi = std::max(0.0, e.load_mi + delta_mi);
      return true;
    }
    return false;
  }

  void clear() { entries_.clear(); }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  [[nodiscard]] const std::vector<ResourceEntry>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::vector<ResourceEntry> entries_;
};

/// Asserts that `fast` holds exactly `slow`'s entries, slot for slot.
void expect_same_layout(const ResourceView& fast, const std::vector<ResourceEntry>& slow) {
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const auto& a = fast.entries()[i];
    const auto& b = slow[i];
    ASSERT_EQ(a.node, b.node) << "slot " << i << " diverged";
    ASSERT_EQ(a.stamped_at, b.stamped_at);
    ASSERT_EQ(a.ttl, b.ttl);
    ASSERT_EQ(a.load_mi, b.load_mi);
    ASSERT_EQ(a.capacity_mips, b.capacity_mips);
    ASSERT_EQ(fast.find(a.node), &fast.entries()[i]);
  }
}

TEST(ResourceView, RandomizedDifferentialAgainstNaiveReference) {
  // Guards the O(1) slot index and the cached stalest stamp: every operation
  // that can move or invalidate them (forget, adjust_load, clear, resize,
  // expire) is interleaved with merges, and rejects() must never claim a merge
  // is a no-op when the reference changes.
  util::Rng rng(20260808);
  int rejected = 0;
  for (int round = 0; round < 20; ++round) {
    const std::size_t cap = 1 + rng.index(12);
    ResourceView fast(cap);
    NaiveView slow(cap);
    double now = 0.0;
    for (int op = 0; op < 400; ++op) {
      now += rng.uniform(0.0, 2.0);
      const int node = 1 + static_cast<int>(rng.index(20));
      const double roll = rng.uniform01();
      if (roll < 0.70) {
        // Stamps drawn near `now`, quantized so equal-stamp ties actually occur.
        const double stamp = std::floor(rng.uniform(0.0, now + 1.0));
        const auto e = ResourceEntry{NodeId{node}, rng.uniform(0.0, 50.0),
                                     1.0 + static_cast<double>(rng.index(4)), stamp,
                                     static_cast<int>(rng.index(5))};
        if (fast.rejects(e)) {
          ++rejected;
          const std::vector<ResourceEntry> before = slow.entries();
          EXPECT_FALSE(fast.merge(e));
          EXPECT_FALSE(slow.merge(e)) << "rejects() claimed a no-op the reference applied";
          ASSERT_NO_FATAL_FAILURE(expect_same_layout(fast, before));
        } else {
          EXPECT_EQ(fast.merge(e), slow.merge(e));
        }
      } else if (roll < 0.78) {
        EXPECT_EQ(fast.forget(NodeId{node}), slow.forget(NodeId{node}));
      } else if (roll < 0.86) {
        const double delta = rng.uniform(-30.0, 30.0);
        EXPECT_EQ(fast.adjust_load(NodeId{node}, delta), slow.adjust_load(NodeId{node}, delta));
      } else if (roll < 0.88) {
        fast.clear();
        slow.clear();
      } else if (roll < 0.90) {
        const std::size_t resized = 1 + rng.index(12);
        fast.set_capacity(resized);
        slow.set_capacity(resized);
      } else {
        fast.expire(now, 5.0, NodeId{node});
        slow.expire(now, 5.0, NodeId{node});
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_layout(fast, slow.entries()));
    }
  }
  EXPECT_GT(rejected, 500);  // the no-op path is exercised, not vacuous
}

TEST(ResourceView, ExpireDropsOldAndSelf) {
  ResourceView v(8);
  v.merge(entry(1, 0, 1.0));
  v.merge(entry(2, 0, 9.0));
  v.merge(entry(3, 0, 9.5));
  v.expire(/*now=*/10.0, /*max_age=*/2.0, /*self=*/NodeId{3});
  EXPECT_FALSE(v.contains(NodeId{1}));  // age 9 > 2
  EXPECT_TRUE(v.contains(NodeId{2}));
  EXPECT_FALSE(v.contains(NodeId{3}));  // self
}

TEST(ResourceView, ForgetRemovesEntry) {
  ResourceView v(4);
  v.merge(entry(1, 0, 1.0));
  EXPECT_TRUE(v.forget(NodeId{1}));
  EXPECT_FALSE(v.forget(NodeId{1}));
  EXPECT_EQ(v.size(), 0u);
}

TEST(ResourceView, AdjustLoadClampsAtZero) {
  ResourceView v(4);
  v.merge(entry(1, 10, 1.0));
  EXPECT_TRUE(v.adjust_load(NodeId{1}, 5.0));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 15.0);
  EXPECT_TRUE(v.adjust_load(NodeId{1}, -100.0));
  EXPECT_DOUBLE_EQ(v.entries()[0].load_mi, 0.0);
  EXPECT_FALSE(v.adjust_load(NodeId{9}, 1.0));
}

}  // namespace
}  // namespace dpjit::gossip
