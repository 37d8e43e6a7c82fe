// XOR ack-tracking algebra: the invariant is that a tree completes exactly
// when every tuple key has been folded in twice, in any order.

#include "smgr/ack_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "common/flat_u64_map.h"
#include "common/random.h"
#include "proto/messages.h"

namespace heron {
namespace smgr {
namespace {

constexpr int64_t kTimeout = 1000;

TEST(AckTrackerTest, SingleTupleTreeCompletes) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(1, 0xAA);
  tracker.Register(root, root, /*now=*/0);
  EXPECT_EQ(tracker.pending(), 1u);
  // The bolt acks the spout tuple: k_in == root, no children.
  auto done = tracker.Update(root, root, false);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->root, root);
  EXPECT_FALSE(done->fail);
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(AckTrackerTest, ChainTreeCompletesAfterEveryAck) {
  // spout → boltA (emits child) → boltB.
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x1);
  const api::TupleKey child = 0xCAFEBABE;
  tracker.Register(root, root, 0);
  // boltA acks the spout tuple having emitted `child` anchored to root.
  EXPECT_FALSE(tracker.Update(root, root ^ child, false).has_value());
  // boltB acks the child (leaf).
  auto done = tracker.Update(root, child, false);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->fail);
}

TEST(AckTrackerTest, OrderDoesNotMatter) {
  AckTracker t1(kTimeout);
  AckTracker t2(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x2);
  const api::TupleKey c1 = 111, c2 = 222;
  for (AckTracker* t : {&t1, &t2}) t->Register(root, root, 0);
  // Updates: spout-ack-with-children, leaf c1, leaf c2 — two orders.
  EXPECT_FALSE(t1.Update(root, root ^ c1 ^ c2, false).has_value());
  EXPECT_FALSE(t1.Update(root, c1, false).has_value());
  EXPECT_TRUE(t1.Update(root, c2, false).has_value());

  EXPECT_FALSE(t2.Update(root, c2, false).has_value());
  EXPECT_FALSE(t2.Update(root, c1, false).has_value());
  EXPECT_TRUE(t2.Update(root, root ^ c1 ^ c2, false).has_value());
}

TEST(AckTrackerTest, FailCompletesImmediately) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x3);
  tracker.Register(root, root, 0);
  auto done = tracker.Update(root, 0, true);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->fail);
  // Subsequent updates for the dead root are stale no-ops.
  EXPECT_FALSE(tracker.Update(root, root, false).has_value());
}

TEST(AckTrackerTest, StaleUpdateForUnknownRootIgnored) {
  AckTracker tracker(kTimeout);
  EXPECT_FALSE(tracker.Update(12345, 1, false).has_value());
}

TEST(AckTrackerTest, TimeoutsExpireOverdueRoots) {
  AckTracker tracker(kTimeout);
  const api::TupleKey r1 = proto::MakeRootKey(0, 1);
  const api::TupleKey r2 = proto::MakeRootKey(0, 2);
  tracker.Register(r1, r1, /*now=*/0);
  tracker.Register(r2, r2, /*now=*/500);
  EXPECT_EQ(tracker.NextDeadlineNanos(), kTimeout);

  auto expired = tracker.ExpireTimeouts(/*now=*/kTimeout);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root, r1);
  EXPECT_TRUE(expired[0].fail);
  EXPECT_EQ(tracker.pending(), 1u);

  // r2 still completes normally before its deadline.
  EXPECT_TRUE(tracker.Update(r2, r2, false).has_value());
  EXPECT_EQ(tracker.ExpireTimeouts(10 * kTimeout).size(), 0u);
}

TEST(AckTrackerTest, NextDeadlinePrunesCompletedRoots) {
  AckTracker tracker(kTimeout);
  const api::TupleKey r1 = proto::MakeRootKey(0, 1);
  const api::TupleKey r2 = proto::MakeRootKey(0, 2);
  tracker.Register(r1, r1, 0);
  tracker.Register(r2, r2, 100);
  EXPECT_TRUE(tracker.Update(r1, r1, false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(), 100 + kTimeout);
  EXPECT_TRUE(tracker.Update(r2, r2, false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(),
            std::numeric_limits<int64_t>::max());
}

TEST(AckTrackerTest, StaleDeadlineRecordsStayBounded) {
  // One root lost to a container kill is never acked, so its record pins
  // the front of the deadline FIFO until it times out. Completions behind
  // it must not pile up a record each (a deadline multimap would hold all
  // 100k here).
  AckTracker tracker(/*timeout=*/int64_t{1} << 40);
  const api::TupleKey lost = proto::MakeRootKey(0, 1);
  tracker.Register(lost, lost, /*now=*/0);
  const int64_t lost_deadline = tracker.NextDeadlineNanos();
  for (uint64_t i = 0; i < 100000; ++i) {
    const api::TupleKey root = proto::MakeRootKey(0, 2 + i);
    tracker.Register(root, root, static_cast<int64_t>(i));
    ASSERT_TRUE(tracker.Update(root, root, false).has_value());
    ASSERT_EQ(tracker.NextDeadlineNanos(), lost_deadline);
    ASSERT_LE(tracker.deadline_records(), 2 * tracker.pending() + 1) << i;
  }
  EXPECT_EQ(tracker.pending(), 1u);
  EXPECT_EQ(tracker.ExpireTimeouts(lost_deadline).size(), 1u);
  EXPECT_EQ(tracker.deadline_records(), 0u);
}

TEST(AckTrackerTest, RootKeyZeroIsTracked) {
  AckTracker tracker(kTimeout);
  tracker.Register(0, 0x55, 0);
  EXPECT_EQ(tracker.pending(), 1u);
  EXPECT_EQ(tracker.NextDeadlineNanos(), kTimeout);
  auto done = tracker.Update(0, 0x55, false);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->root, 0u);
  EXPECT_EQ(tracker.pending(), 0u);
}

/// Property: random tuple trees complete exactly at the last ack,
/// regardless of delivery order.
class AckTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AckTreeProperty, RandomTreeCompletesOnlyAtLastAck) {
  Random rng(GetParam());
  AckTracker tracker(1ll << 60);
  const api::TupleKey root = proto::MakeRootKey(0, rng.NextUint64());
  tracker.Register(root, root, 0);

  // Build a random tree: each node gets a key; each node's ack update is
  // its key XOR its children's keys.
  struct Node {
    api::TupleKey key;
    std::vector<size_t> children;
  };
  std::vector<Node> nodes;
  nodes.push_back({root, {}});
  const size_t total = 2 + rng.NextBelow(30);
  for (size_t i = 1; i < total; ++i) {
    const size_t parent = rng.NextBelow(nodes.size());
    nodes.push_back({rng.NextUint64() | 1, {}});
    nodes[parent].children.push_back(i);
  }
  std::vector<api::TupleKey> updates;
  for (const auto& node : nodes) {
    api::TupleKey update = node.key;
    for (const size_t child : node.children) {
      update ^= nodes[child].key;
    }
    updates.push_back(update);
  }
  // Deliver in shuffled order.
  for (size_t i = updates.size(); i > 1; --i) {
    std::swap(updates[i - 1], updates[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    auto done = tracker.Update(root, updates[i], false);
    if (i + 1 < updates.size()) {
      EXPECT_FALSE(done.has_value()) << "completed early at " << i;
    } else {
      EXPECT_TRUE(done.has_value()) << "did not complete at last ack";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckTreeProperty,
                         ::testing::Range<uint64_t>(1, 21));

// -- Reference models ----------------------------------------------------
//
// Seeded random interleavings checked step by step against std::map /
// std::multimap oracles. The key pools mix root key 0, clusters of keys
// that share a home slot at every capacity up to 4096 (one cluster homed
// at the last slot, so its probe run wraps), and enough random keys to
// grow the table through several doublings.

/// `n` keys whose HomeSlot at capacity 4096 — and so at every smaller
/// power of two — equals `slot`.
std::vector<uint64_t> KeysHomedAt(size_t slot, size_t n, Random* rng) {
  std::vector<uint64_t> keys;
  while (keys.size() < n) {
    const uint64_t key = rng->NextUint64();
    if (key != 0 && FlatU64Map<int>::HomeSlot(key, 4096) == slot) {
      keys.push_back(key);
    }
  }
  return keys;
}

std::vector<uint64_t> KeyPool(Random* rng, size_t random_keys) {
  std::vector<uint64_t> pool = {0};
  for (const size_t slot : {size_t{1234}, size_t{1235}, size_t{4095}}) {
    const auto cluster = KeysHomedAt(slot, 10, rng);
    pool.insert(pool.end(), cluster.begin(), cluster.end());
  }
  for (size_t i = 0; i < random_keys; ++i) pool.push_back(rng->NextUint64());
  return pool;
}

class FlatU64MapProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatU64MapProperty, MatchesStdMap) {
  Random rng(GetParam());
  const std::vector<uint64_t> pool = KeyPool(&rng, 6000);
  const size_t special = 31;  // Key 0 and the three clusters.
  FlatU64Map<uint64_t> table;
  std::map<uint64_t, uint64_t> oracle;
  EXPECT_EQ(table.capacity(), 0u);  // Nothing allocated up front.

  auto pick = [&] {
    return rng.NextBool(0.3) ? pool[rng.NextBelow(special)]
                             : pool[rng.NextBelow(pool.size())];
  };
  auto check_all = [&] {
    for (const uint64_t key : pool) {
      const uint64_t* found = table.Find(key);
      const auto it = oracle.find(key);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << key;
      }
    }
  };
  // Phases: growth (insert-heavy), erase-heavy drain, mixed churn.
  for (const double insert_share : {0.85, 0.15, 0.5}) {
    for (int step = 0; step < 8000; ++step) {
      const uint64_t key = pick();
      const double roll = rng.NextDouble();
      if (roll < insert_share) {
        const uint64_t value = rng.NextUint64();
        auto [slot, inserted] = table.TryEmplace(key);
        ASSERT_EQ(inserted, oracle.count(key) == 0) << key;
        if (inserted) {
          ASSERT_EQ(*slot, 0u);  // Value-initialized.
        }
        *slot = value;
        oracle[key] = value;
      } else if (roll < insert_share + (1 - insert_share) * 0.8) {
        ASSERT_EQ(table.Erase(key), oracle.erase(key) == 1) << key;
      } else {
        const uint64_t* found = table.Find(key);
        ASSERT_EQ(found != nullptr, oracle.count(key) == 1) << key;
      }
      ASSERT_EQ(table.size(), oracle.size());
      if (step % 1000 == 0) check_all();
    }
    check_all();
  }
  EXPECT_GE(table.capacity(), 4096u);  // Grew through several doublings.
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatU64MapProperty,
                         ::testing::Range<uint64_t>(1, 21));

/// The tracker's observable behaviour, rebuilt from ordered containers.
class TrackerOracle {
 public:
  explicit TrackerOracle(int64_t timeout) : timeout_(timeout) {}

  void Register(api::TupleKey root, api::TupleKey key, int64_t now) {
    auto [it, inserted] = entries_.try_emplace(root);
    it->second.xor_state ^= key;
    if (inserted) {
      it->second.deadline = now + timeout_;
      by_deadline_.emplace(it->second.deadline, root);
    }
  }

  std::optional<AckTracker::Completion> Update(api::TupleKey root,
                                               api::TupleKey xor_value,
                                               bool fail) {
    const auto it = entries_.find(root);
    if (it == entries_.end()) return std::nullopt;
    it->second.xor_state ^= xor_value;
    if (!fail && it->second.xor_state != 0) return std::nullopt;
    Forget(it);
    return AckTracker::Completion{root, fail};
  }

  /// Expired roots with their deadlines, oldest first.
  std::map<api::TupleKey, int64_t> Expire(int64_t now) {
    std::map<api::TupleKey, int64_t> out;
    while (!by_deadline_.empty() && by_deadline_.begin()->first <= now) {
      const auto [deadline, root] = *by_deadline_.begin();
      out.emplace(root, deadline);
      Forget(entries_.find(root));
    }
    return out;
  }

  int64_t NextDeadline() const {
    return by_deadline_.empty() ? std::numeric_limits<int64_t>::max()
                                : by_deadline_.begin()->first;
  }
  size_t pending() const { return entries_.size(); }
  api::TupleKey xor_state(api::TupleKey root) const {
    const auto it = entries_.find(root);
    return it == entries_.end() ? 0 : it->second.xor_state;
  }

 private:
  struct Entry {
    api::TupleKey xor_state = 0;
    int64_t deadline = 0;
  };

  void Forget(std::map<api::TupleKey, Entry>::iterator it) {
    auto [lo, hi] = by_deadline_.equal_range(it->second.deadline);
    for (; lo != hi; ++lo) {
      if (lo->second == it->first) {
        by_deadline_.erase(lo);
        break;
      }
    }
    entries_.erase(it);
  }

  int64_t timeout_;
  std::map<api::TupleKey, Entry> entries_;
  std::multimap<int64_t, api::TupleKey> by_deadline_;
};

/// Same roots as the oracle, in non-decreasing deadline order. (Ties may
/// come out in either order: a root completed and registered again under
/// the same key within one clock tick keeps its older record's place.)
void ExpectSameExpiry(const std::vector<AckTracker::Completion>& got,
                      const std::map<api::TupleKey, int64_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  int64_t last = std::numeric_limits<int64_t>::min();
  for (const auto& c : got) {
    ASSERT_TRUE(c.fail);
    const auto it = want.find(c.root);
    ASSERT_NE(it, want.end()) << c.root;
    ASSERT_GE(it->second, last);
    last = it->second;
  }
}

class AckTrackerModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AckTrackerModelProperty, MatchesOracleUnderRandomInterleavings) {
  Random rng(GetParam());
  constexpr int64_t kModelTimeout = 50000;
  const std::vector<uint64_t> pool = KeyPool(&rng, 3000);
  AckTracker tracker(kModelTimeout);
  TrackerOracle oracle(kModelTimeout);
  int64_t now = 0;
  size_t completions = 0;
  // Phases: registration-heavy growth, ack-heavy drain, mixed churn.
  for (const double register_share : {0.7, 0.2, 0.45}) {
    for (int step = 0; step < 6000; ++step) {
      now += static_cast<int64_t>(rng.NextBelow(40));
      const api::TupleKey root = pool[rng.NextBelow(pool.size())];
      const double roll = rng.NextDouble();
      if (roll < register_share) {
        const api::TupleKey key = rng.NextUint64();
        tracker.Register(root, key, now);
        oracle.Register(root, key, now);
      } else if (roll < 0.97) {
        // Mostly the update that closes the tree, sometimes a partial one
        // or a fail; unknown roots exercise the stale path.
        const bool fail = rng.NextBool(0.1);
        const api::TupleKey xor_value =
            rng.NextBool(0.75) ? oracle.xor_state(root) : rng.NextUint64();
        const auto got = tracker.Update(root, xor_value, fail);
        const auto want = oracle.Update(root, xor_value, fail);
        ASSERT_EQ(got.has_value(), want.has_value()) << step;
        if (got.has_value()) {
          ASSERT_EQ(got->root, want->root);
          ASSERT_EQ(got->fail, want->fail);
          ++completions;
        }
      } else if (rng.NextBool()) {
        ExpectSameExpiry(tracker.ExpireTimeouts(now), oracle.Expire(now));
        if (HasFatalFailure()) FAIL() << "step " << step;
      } else {
        ASSERT_EQ(tracker.NextDeadlineNanos(), oracle.NextDeadline()) << step;
      }
      ASSERT_EQ(tracker.pending(), oracle.pending()) << step;
      ASSERT_LE(tracker.deadline_records(), 2 * tracker.pending() + 1) << step;
    }
  }
  EXPECT_GT(completions, 1000u);
  ASSERT_EQ(tracker.NextDeadlineNanos(), oracle.NextDeadline());
  ExpectSameExpiry(tracker.ExpireTimeouts(now + kModelTimeout),
                   oracle.Expire(now + kModelTimeout));
  EXPECT_EQ(tracker.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckTrackerModelProperty,
                         ::testing::Range<uint64_t>(1, 21));

TEST(AckTrackerTest, BackwardsClockNeverExpiresARootEarly) {
  // The engine's clocks are monotone; if a reading ever went backwards,
  // the deadline is clamped up to the FIFO's back, so a root may expire
  // late but never before its own registration time + timeout.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed);
    constexpr int64_t kClampTimeout = 1000;
    AckTracker tracker(kClampTimeout);
    std::map<api::TupleKey, int64_t> own_deadline;
    int64_t now = 100000;
    for (int step = 0; step < 4000; ++step) {
      now += static_cast<int64_t>(rng.NextBelow(200)) - 80;  // Jitters back.
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        const api::TupleKey root = proto::MakeRootKey(1, rng.NextUint64());
        tracker.Register(root, root, now);
        own_deadline.emplace(root, now + kClampTimeout);
      } else if (roll < 0.7 && !own_deadline.empty()) {
        auto it = own_deadline.begin();
        std::advance(it, rng.NextBelow(own_deadline.size()));
        ASSERT_TRUE(tracker.Update(it->first, it->first, false).has_value());
        own_deadline.erase(it);
      } else {
        for (const auto& c : tracker.ExpireTimeouts(now)) {
          const auto it = own_deadline.find(c.root);
          ASSERT_NE(it, own_deadline.end());
          ASSERT_GE(now, it->second) << "root expired before its deadline";
          own_deadline.erase(it);
        }
      }
      ASSERT_EQ(tracker.pending(), own_deadline.size());
      ASSERT_LE(tracker.deadline_records(), 2 * tracker.pending() + 1);
    }
    // Clamping only ever delays: every root still expires eventually.
    tracker.ExpireTimeouts(std::numeric_limits<int64_t>::max());
    EXPECT_EQ(tracker.pending(), 0u);
  }
}

}  // namespace
}  // namespace smgr
}  // namespace heron
