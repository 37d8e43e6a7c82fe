// Unit tests for the observability layer: trace stage names, the
// telescoping trace breakdown, the JSON writer/parser, the TMaster
// MetricsCache's windowed rollups and their state-tree publication, and
// the TopologySnapshot round trip. The span ring's mechanics are tested
// with the other StampedRing codecs in stamped_ring_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "observability/json.h"
#include "observability/metrics_cache.h"
#include "observability/snapshot.h"
#include "observability/trace.h"
#include "statemgr/in_memory_state_manager.h"
#include "statemgr/state_manager.h"

namespace heron {
namespace observability {
namespace {

// -- TraceStage ------------------------------------------------------------

TEST(TraceStageTest, NamesAreStable) {
  EXPECT_STREQ(TraceStageName(TraceStage::kSpoutEmit), "spout_emit");
  EXPECT_STREQ(TraceStageName(TraceStage::kSmgrRoute), "smgr_route");
  EXPECT_STREQ(TraceStageName(TraceStage::kTransportHop), "transport_hop");
  EXPECT_STREQ(TraceStageName(TraceStage::kInstanceDequeue),
               "instance_dequeue");
  EXPECT_STREQ(TraceStageName(TraceStage::kExecute), "execute");
  EXPECT_STREQ(TraceStageName(TraceStage::kAckComplete), "ack_complete");
}

// -- BuildTraceBreakdown ---------------------------------------------------

TEST(TraceBreakdownTest, DeltasTelescopeToEndToEnd) {
  std::vector<Span> spans = {
      {1, TraceStage::kSpoutEmit, 0, 1000},
      {1, TraceStage::kSmgrRoute, 0, 1300},
      {1, TraceStage::kTransportHop, 1, 1800},
      {1, TraceStage::kInstanceDequeue, 1, 2000},
      {1, TraceStage::kExecute, 1, 2600},
      {1, TraceStage::kAckComplete, 0, 3000},
  };
  const TraceBreakdown breakdown = BuildTraceBreakdown(spans);
  ASSERT_EQ(breakdown.traces.size(), 1u);
  EXPECT_EQ(breakdown.complete_count, 1u);
  const TraceRecord& record = breakdown.traces[0];
  EXPECT_TRUE(record.complete());
  EXPECT_EQ(record.end_to_end_nanos, 2000);

  int64_t sum = 0;
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    if (record.delta_nanos[s] >= 0) sum += record.delta_nanos[s];
  }
  EXPECT_EQ(sum, record.end_to_end_nanos);
  EXPECT_EQ(record.delta_nanos[size_t(TraceStage::kSmgrRoute)], 300);
  EXPECT_EQ(record.delta_nanos[size_t(TraceStage::kTransportHop)], 500);
  EXPECT_EQ(record.delta_nanos[size_t(TraceStage::kAckComplete)], 400);
}

TEST(TraceBreakdownTest, MissingTransportHopFoldsIntoDequeue) {
  // Container-local delivery: no transport hop recorded.
  std::vector<Span> spans = {
      {9, TraceStage::kSpoutEmit, 0, 100},
      {9, TraceStage::kSmgrRoute, 0, 150},
      {9, TraceStage::kInstanceDequeue, 1, 400},
      {9, TraceStage::kAckComplete, 0, 500},
  };
  const TraceBreakdown breakdown = BuildTraceBreakdown(spans);
  ASSERT_EQ(breakdown.traces.size(), 1u);
  const TraceRecord& record = breakdown.traces[0];
  EXPECT_EQ(record.at_nanos[size_t(TraceStage::kTransportHop)], -1);
  EXPECT_EQ(record.delta_nanos[size_t(TraceStage::kTransportHop)], -1);
  // The 250ns the hop would have claimed lands on kInstanceDequeue.
  EXPECT_EQ(record.delta_nanos[size_t(TraceStage::kInstanceDequeue)], 250);
  EXPECT_EQ(record.end_to_end_nanos, 400);
}

TEST(TraceBreakdownTest, IncompleteTracesExcludedFromMeans) {
  std::vector<Span> spans = {
      {1, TraceStage::kSpoutEmit, 0, 0},
      {1, TraceStage::kAckComplete, 0, 1000},
      // Trace 2 never completed (no ack).
      {2, TraceStage::kSpoutEmit, 0, 0},
      {2, TraceStage::kSmgrRoute, 0, 900000},
  };
  const TraceBreakdown breakdown = BuildTraceBreakdown(spans);
  EXPECT_EQ(breakdown.traces.size(), 2u);
  EXPECT_EQ(breakdown.complete_count, 1u);
  EXPECT_DOUBLE_EQ(breakdown.mean_end_to_end_nanos, 1000.0);

  double stage_sum = 0;
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    stage_sum += breakdown.mean_delta_nanos[s];
  }
  EXPECT_DOUBLE_EQ(stage_sum, breakdown.mean_end_to_end_nanos);
}

// -- JSON ------------------------------------------------------------------

TEST(JsonTest, WriterProducesParseableDocument) {
  json::Writer w;
  w.BeginObject();
  w.Key("name").String("he said \"hi\"\n");
  w.Key("count").Int(-42);
  w.Key("ratio").Number(0.125);
  w.Key("flag").Bool(true);
  w.Key("items").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.EndObject();

  auto v = json::Parse(w.Take());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->StringOr("name", ""), "he said \"hi\"\n");
  EXPECT_DOUBLE_EQ(v->NumberOr("count", 0), -42);
  EXPECT_DOUBLE_EQ(v->NumberOr("ratio", 0), 0.125);
  EXPECT_TRUE(v->BoolOr("flag", false));
  const json::Value* items = v->Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array.size(), 3u);
  EXPECT_DOUBLE_EQ(items->array[2].number, 3);
}

TEST(JsonTest, DoublesRoundTripExactly) {
  for (const double value :
       {0.1, 1.0 / 3.0, 1e-9, 123456789.123456, 2e20, -0.0625}) {
    json::Writer w;
    w.BeginObject();
    w.Key("v").Number(value);
    w.EndObject();
    auto v = json::Parse(w.Take());
    ASSERT_TRUE(v.ok());
    EXPECT_DOUBLE_EQ(v->NumberOr("v", 0), value);
  }
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
}

// -- MetricsCache ----------------------------------------------------------

class MetricsCacheTest : public ::testing::Test {
 protected:
  MetricsCacheTest() : cache_(MakeOptions()) {
    cache_.SetTopology("wordcount", {{0, "word"}, {1, "count"}});
  }

  static MetricsCache::Options MakeOptions() {
    MetricsCache::Options options;
    options.window_nanos = 1'000'000'000;  // 1s windows.
    options.max_windows = 3;
    return options;
  }

  void FlushTask(int task, double emitted, double executed, int64_t at) {
    cache_.Flush("task-" + std::to_string(task),
                 {{"instance.emitted", emitted},
                  {"instance.executed", executed},
                  {"instance.complete.latency.ns.p50", 2e6},
                  {"instance.complete.latency.ns.p90", 4e6},
                  {"instance.complete.latency.ns.p99", 8e6}},
                 at);
  }

  MetricsCache cache_;
};

TEST_F(MetricsCacheTest, WindowedRollupsComputeDeltasAndThroughput) {
  // Two rounds inside the same 1s window, 500ms apart.
  FlushTask(0, 100, 0, 1'100'000'000);
  FlushTask(1, 0, 80, 1'100'000'000);
  FlushTask(0, 600, 0, 1'600'000'000);
  FlushTask(1, 0, 480, 1'600'000'000);

  const auto rollups = cache_.ComponentRollups();
  ASSERT_EQ(rollups.size(), 2u);
  // Sorted by component: "count" then "word".
  EXPECT_EQ(rollups[0].component, "count");
  EXPECT_DOUBLE_EQ(rollups[0].processed_delta, 400);
  EXPECT_DOUBLE_EQ(rollups[0].processed_total, 480);
  EXPECT_EQ(rollups[1].component, "word");
  EXPECT_DOUBLE_EQ(rollups[1].processed_delta, 500);
  EXPECT_DOUBLE_EQ(rollups[1].window_covered_sec, 0.5);
  EXPECT_DOUBLE_EQ(rollups[1].throughput_tps, 1000);
  EXPECT_DOUBLE_EQ(rollups[1].latency_p50_ms, 2);
  EXPECT_DOUBLE_EQ(rollups[1].latency_p90_ms, 4);
  EXPECT_DOUBLE_EQ(rollups[1].latency_p99_ms, 8);

  const ComponentRollup total = cache_.TopologyRollup();
  EXPECT_EQ(total.component, std::string(kTopologyRollup));
  EXPECT_EQ(total.tasks, 2);
  EXPECT_DOUBLE_EQ(total.processed_delta, 900);
}

TEST_F(MetricsCacheTest, RetainsAtMostMaxWindows) {
  for (int64_t window = 0; window < 6; ++window) {
    FlushTask(0, window * 10.0, 0, window * 1'000'000'000 + 1);
  }
  EXPECT_EQ(cache_.window_count(), 3u);
  EXPECT_EQ(cache_.rounds_ingested(), 6u);
  // The newest window's rollup reflects the newest round.
  const auto rollups = cache_.ComponentRollups();
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_DOUBLE_EQ(rollups[0].processed_total, 50);
}

TEST_F(MetricsCacheTest, CounterResetAcrossRestartRebasesInsteadOfGoingNegative) {
  // A task flushes cumulative counters, dies mid-window, and its fresh
  // incarnation starts counting from zero. The window delta used to come
  // out negative (end - begin with end < begin), which poisoned the
  // throughput rollup the scaling policy reads. A reset must rebase: the
  // post-restart count IS the progress since the reset.
  FlushTask(0, 1000, 0, 1'100'000'000);  // Cumulative 1000 before the kill.
  FlushTask(0, 50, 0, 1'700'000'000);    // Restarted: cumulative starts over.

  const auto rollups = cache_.ComponentRollups();
  ASSERT_EQ(rollups.size(), 1u);
  EXPECT_EQ(rollups[0].component, "word");
  EXPECT_GE(rollups[0].processed_delta, 0.0);
  EXPECT_DOUBLE_EQ(rollups[0].processed_delta, 50);
  EXPECT_GE(rollups[0].throughput_tps, 0.0);

  // The topology rollup inherits the rebased (non-negative) delta too.
  const ComponentRollup total = cache_.TopologyRollup();
  EXPECT_DOUBLE_EQ(total.processed_delta, 50);
}

TEST_F(MetricsCacheTest, PerTaskProcessedDeltaSplitsByTaskAndSurvivesReset) {
  FlushTask(0, 100, 0, 1'100'000'000);
  FlushTask(1, 0, 40, 1'100'000'000);
  FlushTask(0, 600, 0, 1'600'000'000);
  FlushTask(1, 0, 10, 1'600'000'000);  // Task 1 restarted mid-window.

  const auto deltas = cache_.PerTaskProcessedDelta();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(deltas.at(0), 500);  // 600 - 100.
  EXPECT_DOUBLE_EQ(deltas.at(1), 10);   // Reset: rebased, not 10 - 40.
}

TEST_F(MetricsCacheTest, BackpressureAndRestartsLandOnTopologyRollup) {
  cache_.Flush("smgr-0", {{"smgr.backpressure.duration.ns", 1e6}},
               1'100'000'000);
  cache_.Flush("smgr-0", {{"smgr.backpressure.duration.ns", 5e6}},
               1'800'000'000);
  cache_.NoteRestart(1);
  cache_.NoteRestart(1);

  const ComponentRollup total = cache_.TopologyRollup();
  EXPECT_DOUBLE_EQ(total.backpressure_ms, 4);
  EXPECT_EQ(total.restarts, 2u);
}

TEST_F(MetricsCacheTest, PublishesRollupsToStateTree) {
  statemgr::InMemoryStateManager sm;
  ASSERT_TRUE(sm.Initialize(Config()).ok());
  cache_.SetPublishTarget(&sm);

  FlushTask(0, 100, 0, 1'100'000'000);
  FlushTask(0, 300, 0, 1'900'000'000);
  ASSERT_TRUE(cache_.PublishNow().ok());

  auto topo_json =
      sm.GetNodeData(statemgr::paths::MetricsTopologyRollup("wordcount"));
  ASSERT_TRUE(topo_json.ok());
  auto topo = ComponentRollup::FromJson(*topo_json);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo->component, std::string(kTopologyRollup));
  EXPECT_DOUBLE_EQ(topo->processed_delta, 200);

  auto comp_json =
      sm.GetNodeData(statemgr::paths::MetricsComponent("wordcount", "word"));
  ASSERT_TRUE(comp_json.ok());
  auto comp = ComponentRollup::FromJson(*comp_json);
  ASSERT_TRUE(comp.ok());
  EXPECT_EQ(comp->component, "word");
  EXPECT_DOUBLE_EQ(comp->processed_total, 300);
}

TEST_F(MetricsCacheTest, PublishesAutomaticallyWhenWindowRolls) {
  statemgr::InMemoryStateManager sm;
  ASSERT_TRUE(sm.Initialize(Config()).ok());
  cache_.SetPublishTarget(&sm);

  FlushTask(0, 10, 0, 1'100'000'000);
  // No publication yet — the first window has not completed.
  EXPECT_FALSE(
      sm.GetNodeData(statemgr::paths::MetricsTopologyRollup("wordcount"))
          .ok());
  // A round in the next bucket rolls the window and publishes.
  FlushTask(0, 20, 0, 2'100'000'000);
  EXPECT_TRUE(
      sm.GetNodeData(statemgr::paths::MetricsTopologyRollup("wordcount"))
          .ok());
}

TEST(ComponentRollupTest, JsonRoundTripsFieldForField) {
  ComponentRollup rollup;
  rollup.component = "word";
  rollup.window_start_nanos = 123'000'000'000;
  rollup.window_covered_sec = 0.75;
  rollup.tasks = 4;
  rollup.processed_delta = 1234.5;
  rollup.processed_total = 99999;
  rollup.throughput_tps = 1646;
  rollup.latency_p50_ms = 1.25;
  rollup.latency_p90_ms = 3.5;
  rollup.latency_p99_ms = 9.875;
  rollup.backpressure_ms = 42.5;
  rollup.restarts = 3;

  auto parsed = ComponentRollup::FromJson(rollup.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->component, rollup.component);
  EXPECT_EQ(parsed->window_start_nanos, rollup.window_start_nanos);
  EXPECT_DOUBLE_EQ(parsed->window_covered_sec, rollup.window_covered_sec);
  EXPECT_EQ(parsed->tasks, rollup.tasks);
  EXPECT_DOUBLE_EQ(parsed->processed_delta, rollup.processed_delta);
  EXPECT_DOUBLE_EQ(parsed->processed_total, rollup.processed_total);
  EXPECT_DOUBLE_EQ(parsed->throughput_tps, rollup.throughput_tps);
  EXPECT_DOUBLE_EQ(parsed->latency_p50_ms, rollup.latency_p50_ms);
  EXPECT_DOUBLE_EQ(parsed->latency_p90_ms, rollup.latency_p90_ms);
  EXPECT_DOUBLE_EQ(parsed->latency_p99_ms, rollup.latency_p99_ms);
  EXPECT_DOUBLE_EQ(parsed->backpressure_ms, rollup.backpressure_ms);
  EXPECT_EQ(parsed->restarts, rollup.restarts);
}

// -- TopologySnapshot ------------------------------------------------------

TEST(TopologySnapshotTest, JsonRoundTripsFieldForField) {
  TopologySnapshot snap;
  snap.topology = "wordcount";
  snap.captured_at_nanos = 5'500'000'000;
  snap.num_containers = 2;
  snap.tasks = {{0, "word", 0}, {1, "count", 1}};
  snap.dead_containers = {1};
  snap.restarts_total = 2;
  snap.topology_rollup.component = kTopologyRollup;
  snap.topology_rollup.processed_delta = 500;
  snap.components.resize(1);
  snap.components[0].component = "word";
  snap.components[0].throughput_tps = 1000;
  snap.trace.traces = 16;
  snap.trace.complete = 12;
  snap.trace.spans = 80;
  snap.trace.dropped_spans = 4;
  snap.trace.mean_end_to_end_ms = 2.5;
  snap.trace.stages = {{"spout_emit", 0.0},       {"smgr_route", 0.25},
                       {"transport_hop", 0.5},    {"instance_dequeue", 1.0},
                       {"execute", 0.25},         {"ack_complete", 0.5}};

  auto parsed = TopologySnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->topology, snap.topology);
  EXPECT_EQ(parsed->captured_at_nanos, snap.captured_at_nanos);
  EXPECT_EQ(parsed->num_containers, snap.num_containers);
  EXPECT_EQ(parsed->tasks, snap.tasks);
  EXPECT_EQ(parsed->dead_containers, snap.dead_containers);
  EXPECT_EQ(parsed->restarts_total, snap.restarts_total);
  EXPECT_DOUBLE_EQ(parsed->topology_rollup.processed_delta,
                   snap.topology_rollup.processed_delta);
  ASSERT_EQ(parsed->components.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->components[0].throughput_tps, 1000);
  EXPECT_TRUE(parsed->trace == snap.trace);
}

TEST(TopologySnapshotTest, SummarizeTracesAlwaysEmitsSixStages) {
  const TraceBreakdown empty = BuildTraceBreakdown({});
  const auto summary = SummarizeTraces(empty, 0, 0);
  ASSERT_EQ(summary.stages.size(), kNumTraceStages);
  EXPECT_EQ(summary.stages[0].stage, "spout_emit");
  EXPECT_EQ(summary.stages[5].stage, "ack_complete");
  EXPECT_EQ(summary.traces, 0u);
}

}  // namespace
}  // namespace observability
}  // namespace heron
