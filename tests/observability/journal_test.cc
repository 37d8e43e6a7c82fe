// Unit tests for the flight recorder: the journal event's detail tag
// (round trip, truncation, nullptr), the journal snapshot digest and the
// Chrome trace_event timeline export. The EventJournal and SliceRing ring
// mechanics are tested with the span ring in stamped_ring_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "observability/journal.h"
#include "observability/json.h"
#include "observability/snapshot.h"
#include "observability/trace_export.h"

namespace heron {
namespace observability {
namespace {

// -- EventJournal ----------------------------------------------------------

TEST(EventJournalTest, DetailRoundTripsAndTruncates) {
  EventJournal ring(4);
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 1, 2, 4, "bolt");
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 2, 2, 4,
              "a-component-name-too-long-for-the-ring");
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 3, 2, 4, nullptr);

  const std::vector<JournalEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "bolt");
  EXPECT_EQ(events[1].detail.size(), kJournalDetailBytes);
  EXPECT_EQ(events[1].detail,
            std::string("a-component-name-too-long").substr(
                0, kJournalDetailBytes));
  EXPECT_EQ(events[2].detail, "");
}

// -- Journal digest --------------------------------------------------------

TEST(SummarizeJournalTest, CountsByTypeInEnumOrder) {
  std::vector<JournalEvent> events;
  JournalEvent e;
  e.type = JournalEventType::kBackpressureStop;
  events.push_back(e);
  e.type = JournalEventType::kBackpressureStart;
  events.push_back(e);
  events.push_back(e);

  const TopologySnapshot::JournalSummary summary =
      SummarizeJournal(events, /*recorded=*/5, /*dropped=*/2);
  EXPECT_EQ(summary.events, 3u);
  EXPECT_EQ(summary.recorded, 5u);
  EXPECT_EQ(summary.dropped, 2u);
  ASSERT_EQ(summary.by_type.size(), 2u);
  EXPECT_EQ(summary.by_type[0].type, "backpressure_start");
  EXPECT_EQ(summary.by_type[0].count, 2u);
  EXPECT_EQ(summary.by_type[1].type, "backpressure_stop");
  EXPECT_EQ(summary.by_type[1].count, 1u);
}

TEST(SnapshotJournalTest, JournalAndSchedulerSectionsRoundTrip) {
  TopologySnapshot snap;
  snap.topology = "t";
  snap.journal.events = 12;
  snap.journal.recorded = 20;
  snap.journal.dropped = 8;
  snap.journal.by_type.push_back({"backpressure_start", 6});
  snap.journal.by_type.push_back({"plan_swap", 6});
  snap.scheduler.workers = 3;
  snap.scheduler.tasklets = 9;
  snap.scheduler.slices = 1234;
  snap.scheduler.overruns = 5;
  snap.scheduler.occupancy = 0.5;
  snap.scheduler.busy_ms = 10;
  snap.scheduler.wall_ms = 20;
  snap.scheduler.slice_events = 100;
  snap.scheduler.dropped_slices = 7;

  const auto parsed = TopologySnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->journal == snap.journal);
  EXPECT_TRUE(parsed->scheduler == snap.scheduler);
}

// -- Timeline export -------------------------------------------------------

TimelineInput SampleInput() {
  TimelineInput input;
  input.spans.push_back({/*trace_id=*/7, TraceStage::kSpoutEmit,
                         /*location=*/1, /*at_nanos=*/1000});
  input.spans.push_back({7, TraceStage::kSmgrRoute, 0, 2000});
  input.spans.push_back({7, TraceStage::kExecute, 2, 3500});
  JournalEvent e;
  e.seq = 0;
  e.type = JournalEventType::kBackpressureStart;
  e.origin = 0;
  e.at_nanos = 1500;
  e.arg0 = 9;
  input.events.push_back(e);
  e.seq = 1;
  e.type = JournalEventType::kScalingDecision;
  e.origin = -1;
  e.at_nanos = 4000;
  e.detail = "bolt";
  input.events.push_back(e);
  input.slices.push_back({/*worker=*/0, /*tasklet=*/1, 1200, 300});
  input.tasklet_names = {"smgr-0", "task-2"};
  return input;
}

TEST(TraceExportTest, ProducesValidJsonWithAllTrackKinds) {
  const std::string doc = BuildChromeTrace(SampleInput());
  const auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_metadata = false, saw_duration = false, saw_instant = false;
  bool saw_worker_slice = false, saw_control = false;
  for (const json::Value& e : events->array) {
    const std::string ph = e.StringOr("ph", "");
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    if (ph == "X") saw_duration = true;
    if (ph == "i") saw_instant = true;
    const int pid = static_cast<int>(e.NumberOr("pid", -1));
    if (pid >= 2000 && e.StringOr("name", "") == "task-2") {
      saw_worker_slice = true;  // Slice named via tasklet_names[1].
    }
    if (pid == 0 && e.StringOr("name", "") == "scaling_decision") {
      saw_control = true;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_worker_slice);
  EXPECT_TRUE(saw_control);
}

TEST(TraceExportTest, TimestampsAreMonotonicPerTrack) {
  const auto parsed = json::Parse(BuildChromeTrace(SampleInput()));
  ASSERT_TRUE(parsed.ok());
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::pair<int, double>> last_per_pid;
  for (const json::Value& e : events->array) {
    if (e.StringOr("ph", "") == "M") continue;
    const int pid = static_cast<int>(e.NumberOr("pid", -1));
    const double ts = e.NumberOr("ts", -1);
    bool found = false;
    for (auto& [p, last] : last_per_pid) {
      if (p != pid) continue;
      EXPECT_GE(ts, last) << "track " << pid << " went backwards";
      last = ts;
      found = true;
    }
    if (!found) last_per_pid.push_back({pid, ts});
  }
  EXPECT_FALSE(last_per_pid.empty());
}

TEST(TraceExportTest, DeterministicForIdenticalInput) {
  EXPECT_EQ(BuildChromeTrace(SampleInput()), BuildChromeTrace(SampleInput()));
}

TEST(TraceExportTest, SpanSlicesTelescope) {
  const auto parsed = json::Parse(BuildChromeTrace(SampleInput()));
  ASSERT_TRUE(parsed.ok());
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // smgr_route spans spout_emit→route (1.0µs..2.0µs); execute spans
  // route→execute (2.0µs..3.5µs). Together they tile emit→execute.
  for (const json::Value& e : events->array) {
    const std::string name = e.StringOr("name", "");
    if (name == "smgr_route") {
      EXPECT_DOUBLE_EQ(e.NumberOr("ts", 0), 1.0);
      EXPECT_DOUBLE_EQ(e.NumberOr("dur", 0), 1.0);
    } else if (name == "execute") {
      EXPECT_DOUBLE_EQ(e.NumberOr("ts", 0), 2.0);
      EXPECT_DOUBLE_EQ(e.NumberOr("dur", 0), 1.5);
    }
  }
}

}  // namespace
}  // namespace observability
}  // namespace heron
