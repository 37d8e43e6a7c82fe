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

// -- Tasklet burst and cost clamp ------------------------------------------

// Until a step has drained an envelope there is no cost to clamp by, so a
// cold step drains at most Tasklet::kColdBurst per source; after it, with
// no estimate, a step drains the loop's own burst per source, the bound
// thread mode and step mode use too. Under a SimClock steps take no time,
// so no estimate ever forms and every warm step stays at the burst.
TEST(TaskletTest, ColdStepDrainsTheColdBurstThenTheLoopBurst) {
  SimClock clock(0);
  EventLoop::Options loop_options = LoopOptions("cold");
  loop_options.burst = 128;
  EventLoop loop(loop_options, &clock);
  ipc::Channel<int> first(/*capacity=*/512);
  ipc::Channel<int> second(/*capacity=*/512);
  loop.AddChannel<int>(&first, [](int&&) {});
  loop.AddChannel<int>(&second, [](int&&) {});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(first.TrySend(int(i)).ok());
    ASSERT_TRUE(second.TrySend(int(i)).ok());
  }

  TaskletOptions options;
  options.max_steps_per_slice = 1;
  Tasklet tasklet(&loop, options, &clock);
  static_assert(Tasklet::kColdBurst == 8);
  for (const size_t expected : {8u, 128u, 128u, 36u}) {
    EXPECT_TRUE(tasklet.Drive());
    EXPECT_EQ(loop.last_step_handled(), 2 * expected);
  }
  EXPECT_EQ(tasklet.cost_ewma_nanos(), 0.0);
  EXPECT_EQ(tasklet.overruns(), 0u);

  // Work that drains nothing (an idle worker, a timer) leaves a loop cold:
  // it prices no envelope.
  EventLoop spout(loop_options, &clock);
  ipc::Channel<int> input(/*capacity=*/512);
  spout.AddChannel<int>(&input, [](int&&) {});
  spout.AddIdle([] { return true; });
  Tasklet spout_tasklet(&spout, options, &clock);
  EXPECT_TRUE(spout_tasklet.Drive());
  EXPECT_EQ(spout.last_step_handled(), 0u);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(input.TrySend(int(i)).ok());
  for (const size_t expected : {8u, 128u}) {
    EXPECT_TRUE(spout_tasklet.Drive());
    EXPECT_EQ(spout.last_step_handled(), expected);
  }
}

// Once a timed step has priced an envelope, a step drains at most
// step_bound / cost envelopes per source, floor 1, where the step bound is
// kStepBoundSlices slice targets. Envelopes dearer than the bound drain one
// per source per step; a cheap loop is never clamped below its burst.
TEST(TaskletTest, CostClampSizesBurstsToTheStepBound) {
  // Every handled envelope reads the clock once, so costs one tick, and a
  // tick is more than the step bound.
  TaskletOptions dear_options;
  dear_options.target_slice_nanos = 1000;  // Step bound 8 us.
  constexpr int64_t kDearTick = 10000;     // 10 us per envelope.
  CountingClock dear_clock(kDearTick);
  EventLoop dear(LoopOptions("dear"), &dear_clock);
  ipc::Channel<int> first(/*capacity=*/512);
  ipc::Channel<int> second(/*capacity=*/512);
  const auto charge = [&dear_clock](int&&) { dear_clock.NowNanos(); };
  dear.AddChannel<int>(&first, charge);
  dear.AddChannel<int>(&second, charge);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(first.TrySend(int(i)).ok());
    ASSERT_TRUE(second.TrySend(int(i)).ok());
  }
  Tasklet dear_tasklet(&dear, dear_options, &dear_clock);
  // The first step is cold: kColdBurst from each source, and the slice
  // ends on its target.
  EXPECT_TRUE(dear_tasklet.Drive());
  EXPECT_EQ(dear.last_step_handled(), 2 * Tasklet::kColdBurst);
  EXPECT_GT(dear_tasklet.cost_ewma_nanos(),
            static_cast<double>(Tasklet::kStepBoundSlices *
                                dear_options.target_slice_nanos));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(dear_tasklet.Drive());
    EXPECT_EQ(dear.last_step_handled(), 2u) << "step " << i + 1;
  }
  // Every one of those steps still ran past the bound, and was counted.
  EXPECT_EQ(dear_tasklet.overruns(), 21u);

  // An envelope at half the slice target: the clamp is the step bound
  // over that cost, 8 slice targets / (1/2 target) = 16 per step.
  SimClock clock(0);
  TaskletOptions options;
  options.max_steps_per_slice = 1;
  EventLoop priced(LoopOptions("priced"), &clock);
  ipc::Channel<int> source(/*capacity=*/512);
  priced.AddChannel<int>(&source, [&clock, &options](int&&) {
    clock.AdvanceNanos(options.target_slice_nanos / 2);
  });
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(source.TrySend(int(i)).ok());
  Tasklet priced_tasklet(&priced, options, &clock);
  EXPECT_TRUE(priced_tasklet.Drive());
  EXPECT_EQ(priced.last_step_handled(), Tasklet::kColdBurst);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(priced_tasklet.Drive());
    EXPECT_EQ(priced.last_step_handled(),
              static_cast<size_t>(2 * Tasklet::kStepBoundSlices));
  }
  // The cold step (4 targets) and the clamped ones (8) fit the bound.
  EXPECT_EQ(priced_tasklet.overruns(), 0u);

  // Cheap envelopes: one 1 ns tick per step over a full burst.
  CountingClock cheap_clock(/*nanos_per_read=*/1);
  EventLoop cheap(LoopOptions("cheap"), &cheap_clock);
  ipc::Channel<int> backlog(/*capacity=*/2048);
  cheap.AddChannel<int>(&backlog, [](int&&) {});
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(backlog.TrySend(int(i)).ok());
  Tasklet cheap_tasklet(&cheap, options, &cheap_clock);
  EXPECT_TRUE(cheap_tasklet.Drive());
  EXPECT_EQ(cheap.last_step_handled(), Tasklet::kColdBurst);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(cheap_tasklet.Drive());
    EXPECT_EQ(cheap.last_step_handled(), 128u) << "step " << i + 1;
  }
  EXPECT_GT(cheap_tasklet.cost_ewma_nanos(), 0.0);
}

// An idle step handles nothing, so it carries no cost signal and leaves
// the estimate where the last worked step put it.
TEST(TaskletTest, IdleStepLeavesCostEstimateUnchanged) {
  CountingClock clock(/*nanos_per_read=*/1000);
  EventLoop loop(LoopOptions("idle"), &clock);
  ipc::Channel<int> source(/*capacity=*/64);
  loop.AddChannel<int>(&source, [](int&&) {});
  Tasklet tasklet(&loop, TaskletOptions(), &clock);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(source.TrySend(int(i)).ok());
  EXPECT_TRUE(tasklet.Drive());
  const double cost = tasklet.cost_ewma_nanos();
  EXPECT_GT(cost, 0.0);

  for (int i = 0; i < 100; ++i) EXPECT_FALSE(tasklet.Drive());
  EXPECT_EQ(tasklet.cost_ewma_nanos(), cost);
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
  // A service runs once per step and reports no work.
  int steps = 0;
  loop.AddService([&steps](int64_t) {
    ++steps;
    return EventLoop::kNoDeadline;
  });

  Tasklet tasklet(&loop, TaskletOptions(), &clock);
  EXPECT_FALSE(tasklet.Drive());
  EXPECT_EQ(steps, 1);
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
