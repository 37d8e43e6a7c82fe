#include "runtime/event_loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "ipc/channel.h"
#include "runtime/tasklet.h"
#include "tests/common/counting_clock.h"

namespace heron {
namespace runtime {
namespace {

EventLoop::Options StepOptions(const std::string& name) {
  EventLoop::Options options;
  options.name = name;
  return options;
}

// -- Timers ----------------------------------------------------------------

TEST(EventLoopTest, TimersFireInDeadlineThenInsertionOrder) {
  SimClock clock(0);
  EventLoop loop(StepOptions("timers"), &clock);
  std::vector<std::string> fired;
  loop.AddTimer(100, [&] { fired.push_back("A@100"); });
  loop.AddTimer(50, [&] { fired.push_back("B@50"); });
  loop.AddTimer(100, [&] { fired.push_back("C@100"); });  // Same deadline as A.
  EXPECT_EQ(loop.num_timers(), 3u);
  EXPECT_EQ(loop.NextTimerDeadlineNanos(), 50);

  EXPECT_FALSE(loop.RunOnce());  // t=0: nothing due.
  EXPECT_TRUE(fired.empty());

  clock.AdvanceNanos(200);
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(fired, (std::vector<std::string>{"B@50", "A@100", "C@100"}));
  EXPECT_EQ(loop.num_timers(), 0u);
  EXPECT_EQ(loop.NextTimerDeadlineNanos(), EventLoop::kNoDeadline);
}

TEST(EventLoopTest, CancelTimerSuppressesFire) {
  SimClock clock(0);
  EventLoop loop(StepOptions("cancel"), &clock);
  int fires = 0;
  const EventLoop::TimerId id = loop.AddTimer(10, [&] { ++fires; });
  EXPECT_TRUE(loop.CancelTimer(id));
  EXPECT_FALSE(loop.CancelTimer(id));  // Already cancelled.
  clock.AdvanceNanos(100);
  loop.RunOnce();
  EXPECT_EQ(fires, 0);
}

TEST(EventLoopTest, PeriodicReArmsUnderSimClock) {
  SimClock clock(0);
  EventLoop loop(StepOptions("periodic"), &clock);
  int fires = 0;
  loop.AddPeriodic(10, [&] { ++fires; });  // First fire at t=10.

  EXPECT_FALSE(loop.RunOnce());
  EXPECT_EQ(fires, 0);

  clock.AdvanceNanos(10);  // t=10.
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(fires, 1);

  EXPECT_FALSE(loop.RunOnce());  // Re-armed at t=20, not due yet.
  EXPECT_EQ(fires, 1);

  // A long stall coalesces into ONE fire, not a catch-up burst.
  clock.AdvanceNanos(95);  // t=105, nominally 9 periods late.
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(loop.RunOnce());  // Next fire re-armed at t=115.
  EXPECT_EQ(fires, 2);
  clock.AdvanceNanos(10);  // t=115.
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(fires, 3);
}

TEST(EventLoopTest, TimerArmedFromCallbackWaitsOneIteration) {
  SimClock clock(0);
  EventLoop loop(StepOptions("rearm"), &clock);
  std::vector<int> order;
  loop.AddTimer(5, [&] {
    order.push_back(1);
    // Immediately-due timer armed from a callback must not starve the
    // iteration: it fires on the NEXT RunOnce.
    loop.AddTimer(clock.NowNanos(), [&] { order.push_back(2); });
  });
  clock.AdvanceNanos(5);
  loop.RunOnce();
  EXPECT_EQ(order, (std::vector<int>{1}));
  loop.RunOnce();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// -- Channel sources -------------------------------------------------------

TEST(EventLoopTest, SourceBurstIsBounded) {
  SimClock clock(0);
  EventLoop::Options options = StepOptions("burst");
  options.burst = 4;
  EventLoop loop(options, &clock);
  ipc::Channel<int> channel(64);
  int handled = 0;
  loop.AddChannel<int>(&channel, [&](int&&) { ++handled; });
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());

  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(handled, 4);  // One burst.
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(handled, 8);
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_EQ(handled, 10);
  EXPECT_FALSE(loop.RunOnce());  // Drained.
}

TEST(EventLoopTest, RemoveChannelUnregistersHandler) {
  SimClock clock(0);
  EventLoop loop(StepOptions("remove"), &clock);
  ipc::Channel<int> a(8);
  ipc::Channel<int> b(8);
  int from_a = 0;
  int from_b = 0;
  const EventLoop::SourceId id_a =
      loop.AddChannel<int>(&a, [&](int&&) { ++from_a; });
  loop.AddChannel<int>(&b, [&](int&&) { ++from_b; });
  EXPECT_EQ(loop.num_sources(), 2u);

  loop.RemoveChannel(id_a);
  EXPECT_EQ(loop.num_sources(), 1u);

  ASSERT_TRUE(a.TrySend(1).ok());
  ASSERT_TRUE(b.TrySend(2).ok());
  loop.RunOnce();
  EXPECT_EQ(from_a, 0);  // Removed source no longer polled.
  EXPECT_EQ(from_b, 1);
}

TEST(EventLoopTest, ShutdownDrainStrandsNoEnvelope) {
  SimClock clock(0);
  EventLoop loop(StepOptions("drain"), &clock);
  ipc::Channel<int> channel(16);
  std::vector<int> handled;
  int shutdowns = 0;
  loop.AddChannel<int>(&channel, [&](int&& v) { handled.push_back(v); });
  loop.OnShutdown([&] { ++shutdowns; });

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());
  channel.Close();

  loop.Run();  // Must consume all five, then exit on closed-and-drained.
  EXPECT_EQ(handled, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(shutdowns, 1);
  loop.Shutdown();  // Idempotent: hooks must not run twice.
  EXPECT_EQ(shutdowns, 1);
}

TEST(EventLoopTest, StartupHooksRunOnceBeforeFirstIteration) {
  SimClock clock(0);
  EventLoop loop(StepOptions("startup"), &clock);
  std::vector<std::string> order;
  loop.OnStartup([&] { order.push_back("open"); });
  ipc::Channel<int> channel(8);
  loop.AddChannel<int>(&channel, [&](int&&) { order.push_back("envelope"); });
  ASSERT_TRUE(channel.TrySend(1).ok());
  loop.RunOnce();
  loop.RunOnce();
  EXPECT_EQ(order, (std::vector<std::string>{"open", "envelope"}));
}

// -- Idle workers and services ---------------------------------------------

TEST(EventLoopTest, IdleWorkerProgressDrivesReturnValue) {
  SimClock clock(0);
  EventLoop loop(StepOptions("idle"), &clock);
  int budget = 3;
  loop.AddIdle([&] { return budget > 0 ? (--budget, true) : false; });
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_TRUE(loop.RunOnce());
  EXPECT_FALSE(loop.RunOnce());  // Worker reports no progress.
  EXPECT_EQ(budget, 0);
}

// The one wake rule Run() and a pool worker both park by: the earliest
// timer or service deadline, capped at the idle backoff once the loop has
// an idle worker (whose polled state sends no notification).
TEST(EventLoopTest, WakeDeadlineIsEarliestDueCappedByIdleBackoff) {
  SimClock clock(0);
  EventLoop loop(StepOptions("wake"), &clock);
  EXPECT_EQ(loop.WakeDeadlineNanos(1000), EventLoop::kNoDeadline);
  loop.AddTimer(5000000, [] {});
  EXPECT_EQ(loop.WakeDeadlineNanos(1000), 5000000);
  loop.AddService([](int64_t now) { return now + 3000000; });
  loop.RunOnce();  // Services report their deadline when they run.
  EXPECT_EQ(loop.WakeDeadlineNanos(1000), 3000000);
  loop.AddIdle([] { return false; });
  EXPECT_EQ(loop.WakeDeadlineNanos(1000), 1000 + 200000);
  EXPECT_EQ(EventLoop::kIdleBackoffNanos, 200000);
}

TEST(EventLoopTest, ServiceRunsEveryIterationWithNow) {
  SimClock clock(1000);
  EventLoop loop(StepOptions("service"), &clock);
  std::vector<int64_t> nows;
  loop.AddService([&](int64_t now) {
    nows.push_back(now);
    return EventLoop::kNoDeadline;
  });
  loop.RunOnce();
  clock.AdvanceNanos(500);
  loop.RunOnce();
  EXPECT_EQ(nows, (std::vector<int64_t>{1000, 1500}));
}

// -- Step-mode determinism -------------------------------------------------

std::vector<std::string> RunScriptedIteration() {
  SimClock clock(0);
  EventLoop loop(StepOptions("deterministic"), &clock);
  std::vector<std::string> events;
  ipc::Channel<int> first(8);
  ipc::Channel<int> second(8);
  loop.AddChannel<int>(&first, [&](int&& v) {
    events.push_back("first:" + std::to_string(v));
  });
  loop.AddChannel<int>(&second, [&](int&& v) {
    events.push_back("second:" + std::to_string(v));
  });
  loop.AddTimer(10, [&] { events.push_back("timer"); });
  loop.AddIdle([&] {
    events.push_back("idle");
    return false;
  });
  EXPECT_TRUE(first.TrySend(1).ok());
  EXPECT_TRUE(first.TrySend(2).ok());
  EXPECT_TRUE(second.TrySend(3).ok());
  clock.AdvanceNanos(10);
  loop.RunOnce();
  return events;
}

TEST(EventLoopTest, RunOnceIsDeterministic) {
  const auto a = RunScriptedIteration();
  const auto b = RunScriptedIteration();
  EXPECT_EQ(a, b);
  // Fixed intra-iteration order: due timers, sources in registration
  // order, then idle workers.
  EXPECT_EQ(a, (std::vector<std::string>{"timer", "first:1", "first:2",
                                         "second:3", "idle"}));
}

// -- Instrumentation -------------------------------------------------------

// Busy time is each step's wall time: RunOnce() reads the clock for its
// start and its end, one tick apart, so n steps add exactly n ticks.
TEST(EventLoopTest, InstrumentationCountsBusyTime) {
  constexpr int64_t kTick = 1000;
  CountingClock clock(kTick);
  metrics::MetricsRegistry registry;
  EventLoop::Options options = StepOptions("metered");
  options.registry = &registry;
  options.metric_prefix = "test";
  EventLoop loop(options, &clock);
  for (int i = 0; i < 7; ++i) loop.RunOnce();
  EXPECT_EQ(registry.GetCounter("test.loop.busy.ns")->value(),
            static_cast<uint64_t>(7 * kTick));
}

// -- Threaded lifecycle ----------------------------------------------------

TEST(EventLoopTest, ThreadedRunExitsOnClosedAndDrained) {
  SimClock clock(0);
  EventLoop loop(StepOptions("threaded"), &clock);
  ipc::Channel<int> channel(1024);
  std::atomic<int> handled{0};
  int shutdowns = 0;  // Written on the loop thread, read after the join.
  loop.AddChannel<int>(&channel, [&](int&&) {
    handled.fetch_add(1, std::memory_order_relaxed);
  });
  loop.OnShutdown([&] { ++shutdowns; });
  loop.Start();
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());
  channel.Close();
  loop.Finish();  // Joins: returns only after close + full drain.
  EXPECT_EQ(handled.load(), 500);
  EXPECT_EQ(shutdowns, 1);
  loop.Finish();
  EXPECT_EQ(shutdowns, 1);
}

TEST(EventLoopTest, StopInterruptsThreadedRun) {
  // RealClock: the parked loop must wake promptly on Stop()'s nudge.
  EventLoop loop(StepOptions("stoppable"), RealClock::Get());
  ipc::Channel<int> channel(8);
  loop.AddChannel<int>(&channel, [](int&&) {});
  loop.Start();
  loop.Stop();
  loop.Join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoopTest, WakeupCoalescesNotifications) {
  EventLoop loop(StepOptions("wakeups"), RealClock::Get());
  ipc::Channel<int> channel(4096);
  std::atomic<int> handled{0};
  loop.AddChannel<int>(&channel, [&](int&&) {
    handled.fetch_add(1, std::memory_order_relaxed);
  });
  loop.Start();
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());
  channel.Close();
  loop.Join();
  EXPECT_EQ(handled.load(), 2000);
  // Burst draining coalesces: far fewer wakeups than notifications.
  EXPECT_LT(loop.wakeups(), 2000u);
}

// -- Finish and Halt, whatever drives the loop -----------------------------

TaskletPool::Options InlinePoolOptions() {
  TaskletPool::Options options;
  options.workers = 1;
  options.threaded = false;
  return options;
}

// A pooled loop's owner ends it without knowing the pool: Finish() fences
// the worker off and steps the loop here until Run() would have exited.
TEST(EventLoopTest, FinishRetiresAPooledLoopAndDrainsItOnTheCaller) {
  SimClock clock(0);
  TaskletPool pool(InlinePoolOptions(), &clock);
  EventLoop loop(StepOptions("pooled"), &clock);
  ipc::Channel<int> channel(512);
  int handled = 0;
  int idle_calls = 0;
  int shutdowns = 0;
  loop.AddChannel<int>(&channel, [&](int&&) { ++handled; });
  loop.AddIdle([&] { return ++idle_calls, false; });
  loop.OnShutdown([&] { ++shutdowns; });
  pool.Add(&loop);

  constexpr int kQueued = 300;  // More than one 128-envelope burst.
  for (int i = 0; i < kQueued; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());
  channel.Close();
  loop.Finish();
  EXPECT_EQ(handled, kQueued);
  EXPECT_EQ(shutdowns, 1);

  const int idle_before = idle_calls;
  pool.DriveAll();
  EXPECT_EQ(idle_calls, idle_before);  // The pool no longer steps it.
  EXPECT_EQ(pool.num_members(), 0u);
  EXPECT_EQ(shutdowns, 1);
}

// A loop nothing drove (a test stepped it) only runs its hooks: no
// envelope queued after the last step is handled.
TEST(EventLoopTest, FinishOnAnUndrivenLoopOnlyRunsItsHooks) {
  SimClock clock(0);
  EventLoop loop(StepOptions("undriven"), &clock);
  ipc::Channel<int> channel(16);
  int handled = 0;
  int shutdowns = 0;
  loop.AddChannel<int>(&channel, [&](int&&) { ++handled; });
  loop.OnShutdown([&] { ++shutdowns; });
  loop.RunOnce();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(channel.TrySend(int(i)).ok());
  channel.Close();
  loop.Finish();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(channel.size(), 5u);
  EXPECT_EQ(shutdowns, 1);
}

TEST(EventLoopTest, HaltRetiresAPooledLoopAndItsHooksNeverRun) {
  SimClock clock(0);
  TaskletPool pool(InlinePoolOptions(), &clock);
  EventLoop loop(StepOptions("halted"), &clock);
  int idle_calls = 0;
  int shutdowns = 0;
  loop.AddIdle([&] { return ++idle_calls, true; });
  loop.OnShutdown([&] { ++shutdowns; });
  pool.Add(&loop);
  pool.DriveAll();
  ASSERT_GT(idle_calls, 0);

  loop.Halt();
  const int idle_before = idle_calls;
  pool.DriveAll();
  EXPECT_EQ(idle_calls, idle_before);  // Retired before Halt returned.
  EXPECT_EQ(pool.num_members(), 0u);
  loop.Finish();
  EXPECT_EQ(shutdowns, 0);
}

}  // namespace
}  // namespace runtime
}  // namespace heron
