#include "runtime/tasklet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "ipc/channel.h"
#include "metrics/metrics.h"
#include "tests/common/counting_clock.h"

namespace heron {
namespace runtime {
namespace {

EventLoop::Options LoopOptions(const std::string& name) {
  EventLoop::Options options;
  options.name = name;
  return options;
}

// -- ParseIdlePolicy -------------------------------------------------------

TEST(IdlePolicyTest, ParsesEveryKnobValue) {
  EXPECT_EQ(*ParseIdlePolicy("condvar-park"), IdlePolicy::kCondvarPark);
  EXPECT_EQ(*ParseIdlePolicy("adaptive-spin"), IdlePolicy::kAdaptiveSpin);
  EXPECT_EQ(*ParseIdlePolicy("busy-spin"), IdlePolicy::kBusySpin);
  EXPECT_TRUE(ParseIdlePolicy("spin-harder").status().IsInvalidArgument());
  EXPECT_STREQ(IdlePolicyName(IdlePolicy::kAdaptiveSpin), "adaptive-spin");
}

// -- Tasklet slice autotune ------------------------------------------------

// The full AIMD cycle: the budget slow-starts at min_burst (a cold loop
// must not open with a full-burst step), grows additively while steps stay
// cheap, then halves per overrunning step back down to the floor once
// tuples turn expensive (simulated per-tuple cost via the SimClock).
TEST(TaskletTest, SliceBudgetSlowStartsGrowsAndHalvesOnOverrun) {
  SimClock clock(0);
  EventLoop loop(LoopOptions("aimd"), &clock);
  ipc::Channel<int> source(/*capacity=*/4096);
  // Per-tuple cost is switchable: free first (to watch additive growth),
  // then expensive (to watch multiplicative decrease).
  int64_t tuple_cost_nanos = 0;
  loop.AddChannel<int>(&source, [&clock, &tuple_cost_nanos](int&&) {
    clock.AdvanceNanos(tuple_cost_nanos);
  });

  TaskletOptions options;
  options.target_slice_nanos = 200000;  // Two 100us tuples fit; more do not.
  options.min_burst = 8;
  options.max_burst = 1024;
  options.burst_step = 32;
  Tasklet tasklet(&loop, options, &clock);
  EXPECT_EQ(tasklet.budget(), options.min_burst);  // Slow start.

  // Free tuples: every worked step is in budget, +burst_step each.
  for (int i = 0; i < 64 && tasklet.budget() < options.max_burst; ++i) {
    for (int j = 0; j < 64; ++j) source.TrySend(int(j)).ok();
    tasklet.Drive();
  }
  EXPECT_EQ(tasklet.budget(), options.max_burst);

  // Expensive tuples: the first full-burst step overruns the target by
  // far and halves the budget — the one step the autotuner cannot see
  // coming. But that step also seeds the per-tuple cost EWMA, so from
  // here the predictive clamp sizes every burst to fit the slice target:
  // sustained expensive tuples cause no further overruns, regardless of
  // how the AIMD budget re-probes upward.
  tuple_cost_nanos = 100000;  // 100 us per tuple.
  for (int i = 0; i < 4096; ++i) source.TrySend(int(i)).ok();
  EXPECT_TRUE(tasklet.Drive());
  EXPECT_LE(tasklet.budget(), options.max_burst / 2);
  EXPECT_GE(tasklet.overruns(), 1u);
  EXPECT_GT(tasklet.cost_ewma_nanos(), 0.0);
  const uint64_t overruns_after_first = tasklet.overruns();
  for (int i = 0; i < 12 && source.size() > 0; ++i) tasklet.Drive();
  EXPECT_EQ(tasklet.overruns(), overruns_after_first);
}

// Idle steps carry no cost signal and must leave the budget untouched: a
// budget that creeps toward max while the loop idles would meet the next
// flood with a cold full-burst step — the recurring version of the
// startup transient slow-start exists to prevent.
TEST(TaskletTest, IdleStepsLeaveBudgetUntouched) {
  SimClock clock(0);
  EventLoop loop(LoopOptions("idle"), &clock);
  ipc::Channel<int> source(/*capacity=*/64);
  loop.AddChannel<int>(&source, [](int&&) {});

  TaskletOptions options;
  options.min_burst = 8;
  options.max_burst = 64;
  options.burst_step = 4;
  Tasklet tasklet(&loop, options, &clock);
  EXPECT_EQ(tasklet.budget(), options.min_burst);

  for (int i = 0; i < 100; ++i) tasklet.Drive();
  EXPECT_EQ(tasklet.budget(), options.min_burst);

  // One worked (free) step is evidence: the budget grows additively.
  ASSERT_TRUE(source.TrySend(1).ok());
  tasklet.Drive();
  EXPECT_EQ(tasklet.budget(), options.min_burst + options.burst_step);
}

// Idle workers run once per step, not once per burst — a slice must span
// many steps so producers (a spout's NextTuple is an idle worker) are not
// starved to one call per scheduling pass.
TEST(TaskletTest, SliceRunsManyStepsForIdleWorkerProgress) {
  SimClock clock(0);
  EventLoop loop(LoopOptions("idle"), &clock);
  int calls = 0;
  loop.AddIdle([&calls] {
    ++calls;
    return true;  // Always has work, like a spout under offered load.
  });

  TaskletOptions options;
  options.max_steps_per_slice = 16;
  Tasklet tasklet(&loop, options, &clock);
  EXPECT_TRUE(tasklet.Drive());
  // Under a SimClock no wall time passes, so the deterministic step cap
  // is the slice bound: exactly max_steps_per_slice idle calls.
  EXPECT_EQ(calls, 16);
  EXPECT_EQ(tasklet.slices(), 1u);

  tasklet.Drive();
  EXPECT_EQ(calls, 32);
}

// The clock budget of a slice: Drive() reads the clock once for the
// slice's start and each step once for its end, which is also the next
// step's start — steps + 1 reads, even with a registry timing every step.
// Plain RunOnce() still reads its own start.
TEST(TaskletTest, SliceReadsTheClockOncePerStepPlusOnce) {
  constexpr int64_t kTick = 1000;  // Every read moves time 1 us.
  CountingClock clock(kTick);
  metrics::MetricsRegistry registry;
  EventLoop::Options loop_options = LoopOptions("lone");
  loop_options.registry = &registry;
  loop_options.metric_prefix = "lone";
  EventLoop loop(loop_options, &clock);
  int calls = 0;
  loop.AddIdle([&calls] {
    ++calls;
    return true;
  });
  std::vector<int64_t> service_times;
  loop.AddService([&service_times](int64_t now) {
    service_times.push_back(now);
    return EventLoop::kNoDeadline;
  });
  const size_t steps = TaskletOptions().max_steps_per_slice;
  Tasklet tasklet(&loop, TaskletOptions(), &clock);
  for (int slice = 0; slice < 3; ++slice) {
    const uint64_t before = clock.reads();
    EXPECT_TRUE(tasklet.Drive());
    EXPECT_EQ(clock.reads() - before, steps + 1) << "slice " << slice;
    // The slice spans its steps' end readings, one tick each.
    EXPECT_EQ(tasklet.slice_end_nanos() - tasklet.slice_start_nanos(),
              static_cast<int64_t>(steps) * kTick);
  }
  EXPECT_EQ(calls, static_cast<int>(3 * steps));
  // Each step's busy time runs from its start (the previous reading) to
  // its end: one tick per step, and services saw each step's start.
  EXPECT_EQ(registry.GetCounter("lone.loop.busy.ns")->value(),
            3 * steps * kTick);
  ASSERT_EQ(service_times.size(), 3 * steps);
  EXPECT_EQ(service_times[1] - service_times[0], kTick);

  const uint64_t before = clock.reads();
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(clock.reads() - before, 2u);
}

// A drained loop ends its slice immediately instead of spinning the cap.
TEST(TaskletTest, NoWorkEndsSliceAfterOneStep) {
  SimClock clock(0);
  EventLoop loop(LoopOptions("drained"), &clock);
  ipc::Channel<int> source(/*capacity=*/4);
  loop.AddChannel<int>(&source, [](int&&) {});

  Tasklet tasklet(&loop, TaskletOptions(), &clock);
  EXPECT_FALSE(tasklet.Drive());
  EXPECT_EQ(loop.iterations(), 1u);
  EXPECT_FALSE(tasklet.Done());

  source.Close();
  tasklet.Drive();
  EXPECT_TRUE(tasklet.Done());  // Every source closed and drained.
}

// -- TaskletPool (inline mode: deterministic DriveAll) ---------------------

TEST(TaskletPoolTest, DriveAllStepsEveryMemberUntilDone) {
  TaskletPool::Options options;
  options.workers = 2;
  options.threaded = false;
  SimClock clock(0);
  TaskletPool pool(options, &clock);
  EXPECT_EQ(pool.num_workers(), 2u);

  constexpr int kLoops = 8;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::unique_ptr<ipc::Channel<int>>> channels;
  std::vector<int> handled(kLoops, 0);
  for (int i = 0; i < kLoops; ++i) {
    loops.push_back(std::make_unique<EventLoop>(
        LoopOptions("member-" + std::to_string(i)), &clock));
    channels.push_back(std::make_unique<ipc::Channel<int>>(64));
    int* slot = &handled[i];
    loops.back()->AddChannel<int>(channels.back().get(),
                                  [slot](int&&) { ++*slot; });
    for (int j = 0; j <= i; ++j) ASSERT_TRUE(channels[i]->TrySend(int(j)).ok());
    pool.Add(loops.back().get());
  }

  // Starvation freedom: every member (spread round-robin over both inline
  // workers) drains to completion under repeated full passes, regardless
  // of how unevenly the work was dealt.
  int passes = 0;
  while (pool.DriveAll() && passes < 1000) ++passes;
  for (int i = 0; i < kLoops; ++i) {
    EXPECT_EQ(handled[i], i + 1) << "member " << i << " starved";
  }
}

// The default step cap bounds the handoff between a producer and its
// consumer on one worker: a spout-like loop whose idle worker always
// emits gets at most 4 rounds per pass, so each pass hands the consumer
// a small batch instead of one long production run.
TEST(TaskletPoolTest, DefaultSliceBoundsProducerRoundsPerPass) {
  constexpr int kCap = 4;
  TaskletPool::Options options;
  options.workers = 1;
  options.threaded = false;
  SimClock clock(0);
  TaskletPool pool(options, &clock);

  // Roomy enough that a longer slice could overfill a pass.
  ipc::Channel<int> channel(/*capacity=*/4096);
  EventLoop producer(LoopOptions("producer"), &clock);
  producer.AddIdle([&channel] { return channel.TrySend(1).ok(); });
  EventLoop consumer(LoopOptions("consumer"), &clock);
  int received = 0;
  consumer.AddChannel<int>(&channel, [&received](int&&) { ++received; });
  pool.Add(&producer);
  pool.Add(&consumer);

  int previous = 0;
  for (int pass = 0; pass < 32; ++pass) {
    ASSERT_TRUE(pool.DriveAll());
    EXPECT_LE(received - previous, kCap) << "pass " << pass;
    EXPECT_GT(received, previous) << "pass " << pass;
    previous = received;
  }

  // A lone loop that always progresses: the cap alone ends its slice.
  EventLoop lone(LoopOptions("lone"), &clock);
  int calls = 0;
  lone.AddIdle([&calls] {
    ++calls;
    return true;
  });
  Tasklet tasklet(&lone, TaskletOptions(), &clock);
  EXPECT_TRUE(tasklet.Drive());
  EXPECT_EQ(calls, kCap);
  tasklet.Drive();
  EXPECT_EQ(calls, 2 * kCap);
}

TEST(TaskletPoolTest, RetiredMemberStopsBeingDriven) {
  TaskletPool::Options options;
  options.workers = 1;
  options.threaded = false;
  SimClock clock(0);
  TaskletPool pool(options, &clock);

  EventLoop loop(LoopOptions("retiree"), &clock);
  int calls = 0;
  loop.AddIdle([&calls] {
    ++calls;
    return true;
  });
  TaskletPool::Handle* handle = pool.Add(&loop);
  pool.DriveAll();
  const int before = calls;
  EXPECT_GT(before, 0);
  EXPECT_EQ(pool.num_members(), 1u);

  pool.Retire(handle);
  pool.Retire(handle);  // Idempotent.
  pool.DriveAll();
  EXPECT_EQ(calls, before);  // No further drives after Retire.
  // Retire moved the membership generation, so that pass rebuilt the
  // worker's snapshot and pruned the handle.
  EXPECT_EQ(pool.num_members(), 0u);
  pool.Retire(nullptr);      // Null is a no-op.
}

TEST(TaskletPoolTest, DoneMemberRunsShutdownHooksOnce) {
  TaskletPool::Options options;
  options.workers = 1;
  options.threaded = false;
  SimClock clock(0);
  TaskletPool pool(options, &clock);

  EventLoop loop(LoopOptions("done"), &clock);
  ipc::Channel<int> source(8);
  loop.AddChannel<int>(&source, [](int&&) {});
  int shutdowns = 0;
  loop.OnShutdown([&shutdowns] { ++shutdowns; });
  ASSERT_TRUE(source.TrySend(7).ok());
  source.Close();

  pool.Add(&loop);
  for (int i = 0; i < 4; ++i) pool.DriveAll();
  EXPECT_EQ(shutdowns, 1);  // Hooks fired on the drive pass that drained it.
}

// -- TaskletPool (threaded mode) -------------------------------------------

class ThreadedPoolTest : public ::testing::TestWithParam<IdlePolicy> {};

// Work submitted from outside the pool flows through the chained wakeup
// to the worker, gets processed, and the worker re-parks (or re-spins)
// without losing tuples — across every idle policy.
TEST_P(ThreadedPoolTest, ProcessesExternalWorkUnderEveryIdlePolicy) {
  TaskletPool::Options options;
  options.workers = 2;
  options.idle_policy = GetParam();
  options.spin_window_nanos = 20000;
  RealClock clock;
  TaskletPool pool(options, &clock);

  constexpr int kLoops = 8;
  constexpr int kTuplesPerLoop = 500;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::unique_ptr<ipc::Channel<int>>> channels;
  std::vector<std::atomic<int>> handled(kLoops);
  for (int i = 0; i < kLoops; ++i) {
    loops.push_back(std::make_unique<EventLoop>(
        LoopOptions("worker-" + std::to_string(i)), &clock));
    channels.push_back(std::make_unique<ipc::Channel<int>>(128));
    std::atomic<int>* slot = &handled[i];
    loops.back()->AddChannel<int>(channels.back().get(), [slot](int&&) {
      slot->fetch_add(1, std::memory_order_relaxed);
    });
    pool.Add(loops.back().get());
  }
  pool.Start();

  // Producers hammer all 8 loops concurrently; the 2 workers multiplex.
  std::vector<std::thread> producers;
  for (int i = 0; i < kLoops; ++i) {
    producers.emplace_back([&channels, i] {
      for (int j = 0; j < kTuplesPerLoop; ++j) {
        while (!channels[i]->TrySend(int(j)).ok()) {
          std::this_thread::yield();
        }
      }
      channels[i]->Close();
    });
  }
  for (auto& t : producers) t.join();

  // Every tasklet drains fully: closing the channels flips Done(), so
  // waiting on the handled counts is starvation-freedom in miniature.
  const auto deadline = clock.NowNanos() + 20000000000LL;  // 20 s.
  for (int i = 0; i < kLoops; ++i) {
    while (handled[i].load(std::memory_order_relaxed) < kTuplesPerLoop &&
           clock.NowNanos() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(handled[i].load(std::memory_order_relaxed), kTuplesPerLoop)
        << "loop " << i << " under " << IdlePolicyName(GetParam());
  }
  pool.Stop();
}

INSTANTIATE_TEST_SUITE_P(IdlePolicies, ThreadedPoolTest,
                         ::testing::Values(IdlePolicy::kCondvarPark,
                                           IdlePolicy::kAdaptiveSpin,
                                           IdlePolicy::kBusySpin),
                         [](const auto& info) {
                           std::string name = IdlePolicyName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Retire during live traffic: the caller owns the loop the moment Retire
// returns, so destroying it immediately afterward must be safe even while
// workers are mid-pass (this is the graceful-Stop path of every module).
TEST(ThreadedPoolLifecycleTest, RetireDuringTrafficLeavesLoopOwnedByCaller) {
  TaskletPool::Options options;
  options.workers = 2;
  RealClock clock;
  TaskletPool pool(options, &clock);
  pool.Start();

  for (int round = 0; round < 20; ++round) {
    auto loop = std::make_unique<EventLoop>(
        LoopOptions("churn-" + std::to_string(round)), &clock);
    ipc::Channel<int> channel(64);
    std::atomic<int> seen{0};
    loop->AddChannel<int>(&channel, [&seen](int&&) {
      seen.fetch_add(1, std::memory_order_relaxed);
    });
    TaskletPool::Handle* handle = pool.Add(loop.get());
    for (int j = 0; j < 32; ++j) channel.TrySend(int(j)).ok();
    if (round % 2 == 0) std::this_thread::yield();
    pool.Retire(handle);
    channel.Close();
    loop.reset();  // Must not race the workers: Retire() fenced them out.
  }
  pool.Stop();
}

}  // namespace
}  // namespace runtime
}  // namespace heron
