#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "metrics/metrics_manager.h"

namespace heron {
namespace metrics {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  c.Increment();
  c.Increment(9);
  EXPECT_EQ(c.value(), 10u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(5);
  g.Add(-2);
  EXPECT_EQ(g.value(), 3);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram h;
  for (const uint64_t v : {10u, 20u, 30u, 40u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, QuantilesApproximateWithinBucketResolution) {
  Histogram h;
  // 1000 samples uniform on [1000, 2000).
  for (int i = 0; i < 1000; ++i) h.Record(1000 + i);
  const uint64_t p50 = h.Quantile(0.5);
  // Log2 buckets: everything lands in [1024, 2048); interpolation should
  // put the median within a factor-of-2 band of the true value.
  EXPECT_GE(p50, 1000u);
  EXPECT_LE(p50, 2000u);
  EXPECT_LE(h.Quantile(0.0), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(1.0));
  EXPECT_EQ(h.Quantile(1.0), 1999u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(RegistryTest, SameNameSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
}

TEST(RegistryTest, SnapshotFlattensEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(-7);
  registry.GetHistogram("h")->Record(50);
  const auto samples = registry.Snapshot();

  const auto find = [&samples](const std::string& name) -> double {
    for (const auto& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing sample " << name;
    return -1;
  };
  EXPECT_DOUBLE_EQ(find("c"), 3);
  EXPECT_DOUBLE_EQ(find("g"), -7);
  EXPECT_DOUBLE_EQ(find("h.count"), 1);
  EXPECT_DOUBLE_EQ(find("h.mean"), 50);
}

TEST(RegistryTest, SnapshotEmitsMinAndMidQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  for (const uint64_t v : {10u, 20u, 40u, 80u}) h->Record(v);
  const auto samples = registry.Snapshot();

  const auto find = [&samples](const std::string& name) -> double {
    for (const auto& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing sample " << name;
    return -1;
  };
  // The full histogram sample family:
  // .count/.mean/.min/.p50/.p90/.p99/.p999/.p9999/.max.
  EXPECT_DOUBLE_EQ(find("lat.count"), 4);
  EXPECT_DOUBLE_EQ(find("lat.min"), 10);
  EXPECT_DOUBLE_EQ(find("lat.max"), 80);
  EXPECT_DOUBLE_EQ(find("lat.p90"), static_cast<double>(h->Quantile(0.9)));
  // Ordering sanity across the emitted quantiles, deep tail included.
  EXPECT_LE(find("lat.min"), find("lat.p50"));
  EXPECT_LE(find("lat.p50"), find("lat.p90"));
  EXPECT_LE(find("lat.p90"), find("lat.p99"));
  EXPECT_LE(find("lat.p99"), find("lat.p999"));
  EXPECT_LE(find("lat.p999"), find("lat.p9999"));
  EXPECT_LE(find("lat.p9999"), find("lat.max"));
}

/// Keeps every collection round it receives, for reading them back.
class RecordingSink final : public IMetricsSink {
 public:
  struct Round {
    std::string source;
    std::vector<Sample> samples;
    int64_t collected_at_nanos;
  };

  void Flush(const std::string& source, const std::vector<Sample>& samples,
             int64_t collected_at_nanos) override {
    rounds.push_back({source, samples, collected_at_nanos});
  }

  /// Latest value of `source`/`name`, or `fallback`.
  double Latest(const std::string& source, const std::string& name,
                double fallback = 0) const {
    for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
      if (it->source != source) continue;
      for (const Sample& s : it->samples) {
        if (s.name == name) return s.value;
      }
    }
    return fallback;
  }

  std::vector<Round> rounds;
};

TEST(MetricsManagerTest, CollectsEverySourceIntoEverySink) {
  VirtualClock clock(123);
  MetricsManager manager(&clock);
  MetricsRegistry smgr_registry;
  MetricsRegistry task_registry;
  smgr_registry.GetCounter("tuples")->Increment(10);
  task_registry.GetCounter("emitted")->Increment(20);

  ASSERT_TRUE(manager.RegisterSource("smgr-0", &smgr_registry).ok());
  ASSERT_TRUE(manager.RegisterSource("task-1", &task_registry).ok());
  EXPECT_TRUE(
      manager.RegisterSource("smgr-0", &smgr_registry).IsAlreadyExists());

  auto sink = std::make_shared<RecordingSink>();
  manager.AddSink(sink);
  manager.Collect();

  EXPECT_DOUBLE_EQ(sink->Latest("smgr-0", "tuples"), 10);
  EXPECT_DOUBLE_EQ(sink->Latest("task-1", "emitted"), 20);
  EXPECT_DOUBLE_EQ(sink->Latest("task-1", "missing", -1), -1);
  EXPECT_EQ(sink->rounds.size(), 2u);
  EXPECT_EQ(sink->rounds[0].collected_at_nanos, 123);

  // Latest wins after another round.
  task_registry.GetCounter("emitted")->Increment(5);
  manager.Collect();
  EXPECT_DOUBLE_EQ(sink->Latest("task-1", "emitted"), 25);

  ASSERT_TRUE(manager.RemoveSource("task-1").ok());
  EXPECT_TRUE(manager.RemoveSource("task-1").IsNotFound());
  EXPECT_EQ(manager.Sources(), std::vector<std::string>{"smgr-0"});
}

}  // namespace
}  // namespace metrics
}  // namespace heron
