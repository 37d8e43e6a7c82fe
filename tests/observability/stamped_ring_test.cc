// Unit tests for StampedRing, the one slot protocol behind the span ring
// (SpanCollector), the flight recorder (EventJournal) and the scheduler
// slice ring (SliceRing): one typed suite runs every ring mechanic over all
// three record codecs — record order, wraparound accounting, the capacity
// clamp, lossless concurrent recording, and concurrent writers racing a
// live reader (including writers that lap each other on a one- or
// two-slot ring) without a torn record ever reaching Snapshot(). The TSan
// lane runs this file for the data-race proof.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "observability/journal.h"
#include "observability/stamped_ring.h"
#include "observability/trace.h"

namespace heron {
namespace observability {
namespace {

// Per-type test codec. Make(writer, i) is writer `writer`'s i-th record:
// every field is a function of (writer, i), integer fields run negative,
// and Key() recovers (writer, i) from the record, so a record that mixes
// two writes' differing words compares unequal to Make(Key(record)).
// Extreme() fills every field with a limit value of its type.
constexpr int64_t kStride = 1000000000;

template <typename T>
struct Codec;

template <>
struct Codec<Span> {
  static Span Make(int writer, int64_t i) {
    return Span{uint64_t{1} << 63 | uint64_t(writer) << 40 | uint64_t(i),
                static_cast<TraceStage>(i % kNumTraceStages), -1 - writer,
                writer * kStride + i};
  }
  static std::pair<int, int64_t> Key(const Span& s) {
    return {-1 - s.location, int64_t(s.trace_id & ((uint64_t{1} << 40) - 1))};
  }
  static void Record(SpanCollector& ring, const Span& s) {
    ring.Record(s.trace_id, s.stage, s.location, s.at_nanos);
  }
  static Span Extreme() {
    return Span{std::numeric_limits<uint64_t>::max(), TraceStage::kAckComplete,
                std::numeric_limits<int32_t>::min(),
                std::numeric_limits<int64_t>::min()};
  }
};

template <>
struct Codec<JournalEvent> {
  static JournalEvent Make(int writer, int64_t i) {
    JournalEvent e;
    e.type = static_cast<JournalEventType>(i % kNumJournalEventTypes);
    e.origin = -1 - writer;
    e.task = -1 - static_cast<int32_t>(i);
    e.at_nanos = writer * kStride + i;
    e.arg0 = i;
    e.arg1 = -3 * i - 1;
    char detail[kJournalDetailBytes + 1];
    std::snprintf(detail, sizeof(detail), "%02d-%013lld", writer,
                  static_cast<long long>(i));
    e.detail = detail;  // Exactly kJournalDetailBytes: both detail words.
    return e;
  }
  static std::pair<int, int64_t> Key(const JournalEvent& e) {
    return {-1 - e.origin, e.arg0};
  }
  static void Record(EventJournal& ring, const JournalEvent& e) {
    ring.Record(e.type, e.origin, e.task, e.at_nanos, e.arg0, e.arg1,
                e.detail.c_str());
  }
  static JournalEvent Extreme() {
    JournalEvent e;
    e.type = JournalEventType::kPlanSwap;
    e.origin = std::numeric_limits<int32_t>::min();
    e.task = std::numeric_limits<int32_t>::max();
    e.at_nanos = std::numeric_limits<int64_t>::min();
    e.arg0 = -1;
    e.arg1 = std::numeric_limits<int64_t>::max();
    e.detail = std::string(kJournalDetailBytes, '\xff');
    return e;
  }
};

template <>
struct Codec<SchedSlice> {
  static SchedSlice Make(int writer, int64_t i) {
    return SchedSlice{-1 - writer, static_cast<int32_t>(i),
                      writer * kStride + i, -1 - i};
  }
  static std::pair<int, int64_t> Key(const SchedSlice& s) {
    return {-1 - s.worker, s.tasklet};
  }
  static void Record(SliceRing& ring, const SchedSlice& s) {
    ring.Record(s.worker, s.tasklet, s.start_nanos, s.dur_nanos);
  }
  static SchedSlice Extreme() {
    return SchedSlice{std::numeric_limits<int32_t>::min(), -1,
                      std::numeric_limits<int64_t>::min(), -1};
  }
};

// The record expected at ring index `seq` (only JournalEvent carries it).
template <typename T>
T At(T record, uint64_t seq) {
  if constexpr (std::is_same_v<T, JournalEvent>) record.seq = seq;
  return record;
}

// Whether `got` is exactly some writer's record, not a mix of two.
template <typename T>
bool Intact(const T& got) {
  const auto [writer, i] = Codec<T>::Key(got);
  T want = Codec<T>::Make(writer, i);
  if constexpr (std::is_same_v<T, JournalEvent>) want.seq = got.seq;
  return got == want;
}

// Runs `writers` threads that each record `per_writer` records into `ring`
// while one reader snapshots it until they finish. Returns the number of
// torn or out-of-order records the reader saw.
template <typename T>
int RaceWritersAgainstReader(StampedRing<T>& ring, int writers,
                             int per_writer) {
  std::atomic<bool> stop{false};
  int bad = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<T> snap = ring.Snapshot();
      if (snap.size() > ring.capacity()) ++bad;
      for (size_t k = 0; k < snap.size(); ++k) {
        if (!Intact(snap[k])) ++bad;
        if constexpr (std::is_same_v<T, JournalEvent>) {
          if (k > 0 && snap[k].seq <= snap[k - 1].seq) ++bad;
        }
      }
    }
  });
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&ring, w, per_writer] {
      for (int i = 0; i < per_writer; ++i) {
        Codec<T>::Record(ring, Codec<T>::Make(w, i));
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  return bad;
}

template <typename T>
class StampedRingTest : public ::testing::Test {};

using RecordTypes = ::testing::Types<Span, JournalEvent, SchedSlice>;
TYPED_TEST_SUITE(StampedRingTest, RecordTypes);

TYPED_TEST(StampedRingTest, RecordsAndSnapshotsInOrder) {
  using T = TypeParam;
  StampedRing<T> ring(8);
  for (int i = 0; i < 3; ++i) Codec<T>::Record(ring, Codec<T>::Make(0, i));

  const std::vector<T> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], At(Codec<T>::Make(0, i), i)) << "record " << i;
  }
  EXPECT_EQ(ring.total_recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TYPED_TEST(StampedRingTest, ExtremeFieldValuesSurvivePacking) {
  using T = TypeParam;
  StampedRing<T> ring(2);
  Codec<T>::Record(ring, Codec<T>::Extreme());
  const std::vector<T> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Codec<T>::Extreme());
}

TYPED_TEST(StampedRingTest, WraparoundKeepsNewestAndCountsDropped) {
  using T = TypeParam;
  StampedRing<T> ring(4);
  for (int i = 0; i < 10; ++i) Codec<T>::Record(ring, Codec<T>::Make(0, i));

  const std::vector<T> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 4u);
  // The newest four survive, oldest-first, indices counting past capacity.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(got[k], At(Codec<T>::Make(0, 6 + k), 6 + k)) << "record " << k;
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TYPED_TEST(StampedRingTest, ZeroCapacityClampsToOne) {
  using T = TypeParam;
  StampedRing<T> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  Codec<T>::Record(ring, Codec<T>::Make(0, 0));
  Codec<T>::Record(ring, Codec<T>::Make(0, 1));

  const std::vector<T> got = ring.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], At(Codec<T>::Make(0, 1), 1));
  EXPECT_EQ(ring.dropped(), 1u);
}

// Without wraparound no writer can lap another: concurrent writers lose
// nothing and every record comes back exactly once.
TYPED_TEST(StampedRingTest, ConcurrentWritersWithoutWrapLoseNothing) {
  using T = TypeParam;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 1000;
  StampedRing<T> ring(1 << 14);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        Codec<T>::Record(ring, Codec<T>::Make(w, i));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ring.total_recorded(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(ring.dropped(), 0u);
  std::set<std::pair<int, int64_t>> seen;
  for (const T& got : ring.Snapshot()) {
    EXPECT_TRUE(Intact(got));
    EXPECT_TRUE(seen.insert(Codec<T>::Key(got)).second);
  }
  EXPECT_EQ(seen.size(), size_t{kWriters} * kPerWriter);
}

// Concurrent writers plus a live reader: every snapshotted record is some
// writer's record exactly, never a torn slot.
TYPED_TEST(StampedRingTest, ConcurrentWritersWithLiveReaderNeverTear) {
  using T = TypeParam;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  StampedRing<T> ring(256);
  EXPECT_EQ(RaceWritersAgainstReader(ring, kWriters, kPerWriter), 0);

  EXPECT_EQ(ring.total_recorded(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(ring.dropped(), uint64_t{kWriters} * kPerWriter - 256);
  const std::vector<T> final_snap = ring.Snapshot();
  EXPECT_LE(final_snap.size(), 256u);
  for (const T& got : final_snap) EXPECT_TRUE(Intact(got));
}

// On a one- or two-slot ring the writers lap each other constantly: a
// writer that finds its slot claimed by another lap drops its own record
// instead of interleaving its words with the other writer's, so the
// reader checks every field of every record it sees. More writers than
// cores get preempted mid-record, which is what lets a lap interleave
// with a slower writer's stores even on an idle host.
TYPED_TEST(StampedRingTest, LappingWritersNeverPublishAMix) {
  using T = TypeParam;
  constexpr int kWriters = 16;
  constexpr int kPerWriter = 5000;
  for (const size_t capacity : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    StampedRing<T> ring(capacity);
    EXPECT_EQ(RaceWritersAgainstReader(ring, kWriters, kPerWriter), 0);

    EXPECT_EQ(ring.total_recorded(), uint64_t{kWriters} * kPerWriter);
    EXPECT_EQ(ring.dropped(), uint64_t{kWriters} * kPerWriter - capacity);
    const std::vector<T> final_snap = ring.Snapshot();
    EXPECT_LE(final_snap.size(), capacity);
    for (const T& got : final_snap) EXPECT_TRUE(Intact(got));
  }
}

}  // namespace
}  // namespace observability
}  // namespace heron
