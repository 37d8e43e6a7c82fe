#ifndef HERON_RUNTIME_EVENT_LOOP_H_
#define HERON_RUNTIME_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "ipc/channel.h"
#include "ipc/wakeup.h"
#include "metrics/metrics.h"

namespace heron {
namespace runtime {

/// \brief The shared reactor kernel every Heron module loop runs on —
/// the code rendering of the paper's §II claim that modules are plain
/// programs around a tiny IPC kernel (Fig. 1).
///
/// One EventLoop multiplexes, on a single thread:
///  - **channel sources**: registered `ipc::Channel` endpoints drained in
///    bounded bursts (`Options::burst`), with end-of-stream detected via
///    `ipc::RecvState` (no extra closed() round-trip);
///  - **timers**: a deadline-ordered min-heap (`AddTimer`/`AddPeriodic`),
///    driven by the injected monotonic `Clock` so `SimClock` tests replay
///    deterministically. Periodic timers re-arm from the *fire* time
///    (coalescing: a long stall yields one fire, not a catch-up burst);
///  - **services**: dynamic-deadline housekeeping (ack expiry, retry
///    flushing) — called every iteration with `now`, returning the next
///    deadline the loop must wake for (`kNoDeadline` when idle);
///  - **idle workers**: cooperative work generators (a spout's NextTuple
///    round) run once per iteration; when none reports progress and no
///    envelope arrived, the loop parks on its coalescing `ipc::Wakeup`
///    for at most `kIdleBackoffNanos`.
///
/// ## Step-mode testing contract
/// `RunOnce()` executes exactly one iteration — due timers, one burst per
/// source, services, idle workers — without blocking and without threads.
/// Given the same clock readings and channel contents, the work performed
/// is deterministic: sources fire in registration order, timers in
/// (deadline, insertion) order. Deterministic tests and the DES-adjacent
/// benches construct modules in step mode and interleave `RunOnce()` with
/// `SimClock::AdvanceNanos`, which is how a full route→drain→ack cycle is
/// exercised with zero threads (tests/integration/step_mode_test.cc).
///
/// ## Lifecycle
/// `Run()` executes until `Stop()` is requested or every registered
/// channel source is closed *and drained* (shutdown-drain: no envelope is
/// stranded). On exit it runs the `OnShutdown` hooks exactly once (final
/// cache drains, outbox flushes). An owned thread (`Start()`), a
/// `TaskletPool` worker or a test calling `RunOnce()` drives the loop, and
/// the module that registered the loop's work does not know which:
/// whoever launched the loop chooses, and `Finish()` ends the loop the
/// same way under each. Registration calls
/// (AddChannel/AddTimer/...) must come from the loop thread itself (i.e.
/// inside callbacks) or before the loop starts; `Stop()` is safe from any
/// thread.
///
/// ## Instrumentation
/// When `Options::registry` is set, the loop maintains uniformly-named
/// per-loop metrics (previously re-implemented inconsistently by every
/// module loop): the `<prefix>.thread.cpu.ns` gauge (the driving thread's
/// CPU time, sampled one step in 1024 and at shutdown; Fig. 14 reads it),
/// the `<prefix>.loop.busy.ns` counter (wall time inside steps; perfbench
/// reads it), and the `<prefix>.loop.wakeups` and
/// `<prefix>.loop.idle.throttled` counters.
class EventLoop {
 public:
  using TimerId = uint64_t;
  using SourceId = uint64_t;

  /// "No deadline": the loop may sleep until the next notification.
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();
  /// Longest park while idle workers exist but none made progress: they
  /// poll state that sends no notification.
  static constexpr int64_t kIdleBackoffNanos = 200000;  // 200 us.
  /// Cap on any single park in Run(), a lost-wakeup safety net.
  static constexpr int64_t kMaxParkNanos = 100000000;  // 100 ms.

  struct Options {
    /// Loop name, for logs and thread naming.
    std::string name = "loop";
    /// Max envelopes drained per source per iteration (burst-drain bound).
    size_t burst = 128;
    /// Instrumentation target; nullptr disables loop metrics.
    metrics::MetricsRegistry* registry = nullptr;
    /// Metric name prefix, e.g. "smgr" → "smgr.thread.cpu.ns".
    std::string metric_prefix = "loop";
  };

  EventLoop(const Options& options, const Clock* clock);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // -- Registration -------------------------------------------------------

  /// Registers `channel` as a source: each iteration drains up to
  /// `Options::burst` items into `handler`. Binds the channel's wakeup to
  /// this loop. The channel must outlive every *iteration* that polls it;
  /// teardown order is free — the loop's destructor unbind checks the
  /// channel's alive token, so a channel destroyed before the loop is
  /// skipped instead of having its dead mutex locked (undefined behavior
  /// that wedged the UBSan lane).
  template <typename T>
  SourceId AddChannel(ipc::Channel<T>* channel,
                      std::function<void(T&&)> handler) {
    channel->BindWakeup(&wakeup_);
    Source source;
    source.id = next_source_id_++;
    source.poll = [channel, handler = std::move(handler)](
                      size_t burst, size_t* handled) -> bool {
      for (size_t i = 0; i < burst; ++i) {
        ipc::RecvState state;
        auto item = channel->TryRecv(&state);
        if (state == ipc::RecvState::kClosed) return true;
        if (!item.has_value()) break;
        handler(std::move(*item));
        ++*handled;
      }
      return false;
    };
    source.unbind = [channel, alive = channel->alive_token()] {
      if (alive.lock()) channel->BindWakeup(nullptr);
    };
    sources_.push_back(std::move(source));
    return sources_.back().id;
  }

  /// Unregisters a source (unbinds its wakeup). Safe from handlers.
  void RemoveChannel(SourceId id);

  /// One-shot timer at absolute `deadline_nanos` (Clock domain).
  TimerId AddTimer(int64_t deadline_nanos, std::function<void()> fn);
  /// Periodic timer; first fire at now + period, re-armed from fire time.
  TimerId AddPeriodic(int64_t period_nanos, std::function<void()> fn);
  /// Cancels a pending timer; false when already fired/unknown.
  bool CancelTimer(TimerId id);

  /// Idle worker: runs once per iteration; returns whether it progressed.
  void AddIdle(std::function<bool()> fn);

  /// Throttleable idle worker: like AddIdle, but skipped (counting as "no
  /// progress") on iterations where `throttled()` returns true. This is
  /// the reactor-level rendering of spout back pressure — the worker is
  /// paused without the worker body having to poll the flag itself, and
  /// the skip is counted in `<prefix>.loop.idle.throttled`. `throttled`
  /// runs on the loop thread every iteration; it must be cheap and may
  /// read cross-thread state (an atomic flag raised by another module's
  /// loop).
  void AddIdle(std::function<bool()> fn, std::function<bool()> throttled);

  /// Dynamic-deadline service: called every iteration with `now`; performs
  /// any due housekeeping and returns the next deadline (kNoDeadline when
  /// it needs no wakeup).
  void AddService(std::function<int64_t(int64_t now)> fn);

  /// Runs once on the loop thread before the first iteration (user-object
  /// Open/Prepare). In step mode, runs on the first RunOnce().
  void OnStartup(std::function<void()> fn);
  /// Runs exactly once after the final iteration (final drains/flushes).
  void OnShutdown(std::function<void()> fn);

  // -- Execution ----------------------------------------------------------

  /// Blocking reactor: iterate until Stop() or all channel sources are
  /// closed-and-drained; then run shutdown hooks.
  void Run();

  /// Step mode: exactly one non-blocking iteration (startup hooks on the
  /// first call). Returns true when any timer fired, envelope was handled,
  /// or idle worker progressed.
  bool RunOnce();
  /// RunOnce() whose iteration starts at `start_nanos`, a Clock reading the
  /// caller already holds, and drains at most min(`Options::burst`,
  /// `burst_cap`) envelopes per source: timers and services see the start
  /// as `now`, and the step reads the clock only for its end
  /// (last_step_end_nanos()). A tasklet stepping back to back passes each
  /// step's end as the next step's start, so one step costs one clock
  /// read, and passes its cold cap or cost clamp as `burst_cap`.
  bool RunOnce(int64_t start_nanos, size_t burst_cap);

  /// Spawns a thread running Run().
  void Start();
  /// Requests Run() to exit after the current iteration (does not drain —
  /// close the channels instead when drain semantics matter).
  void Stop();
  /// Hard-kill: like Stop(), but the shutdown hooks never run — not now,
  /// not on a later Finish() or Shutdown() call. Models abrupt process
  /// death (a killed container gets no final cache drain or outbox
  /// flush). A pooled loop is retired from its pool before Halt returns.
  /// Irreversible; call from the thread that owns the loop.
  void Halt();
  /// Joins the Start() thread, if any.
  void Join();
  /// Ends the loop on the calling thread, whatever drove it: a pooled loop
  /// is retired from its pool and stepped here until Run() would have
  /// exited, a Start() thread is joined, and then the shutdown hooks run.
  /// A loop nothing drove only runs its hooks. Returns once Run() would
  /// have, so close the loop's channels or Stop() it first. Call from the
  /// thread that owns the loop, never from the one driving it.
  void Finish();
  /// Runs the shutdown hooks now if the loop has started but not yet shut
  /// down (Run()'s exit path, and a pool's for a loop it drove to Done).
  void Shutdown();

  // -- Cooperative driving (runtime::TaskletPool) --------------------------
  //
  // A tasklet drives the loop via RunOnce() from a pool worker thread
  // instead of Run() on an owned thread. These accessors expose exactly
  // what the external driver needs: what a step drained and when it
  // ended, the exit condition Run() would have checked, the wakeup it
  // chains to its worker, and the deadline that bounds the worker's park.
  // All of them follow the loop's single-driver discipline.

  /// Envelopes drained across all sources by the most recent Step(): the
  /// denominator a cooperative driver needs to turn a step's wall time
  /// into a per-tuple cost estimate. Call only from the driving thread.
  size_t last_step_handled() const { return last_step_handled_; }
  /// Clock reading taken at the end of the most recent Step(): a tasklet's
  /// step elapsed time and its next step's start. Driving thread only.
  int64_t last_step_end_nanos() const { return last_step_end_nanos_; }
  /// True when every registered channel source is closed and drained — the
  /// condition (with stopped()) that ends Run(). Meaningful only from the
  /// driving thread.
  bool sources_done() const { return all_sources_done_; }
  /// The loop's coalescing latch, for chaining into a pool worker.
  ipc::Wakeup* wakeup() { return &wakeup_; }
  /// The one wake rule: the latest a loop parked at `now` may sleep — the
  /// earliest timer or service deadline, capped at now + kIdleBackoffNanos
  /// while the loop has idle workers; kNoDeadline when nothing is due.
  /// Run() parks by it, and a pool worker by the minimum over its members.
  /// Call only from the driving thread.
  int64_t WakeDeadlineNanos(int64_t now) const;

  // -- Introspection (tests, benches) -------------------------------------

  const std::string& name() const { return options_.name; }
  uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }
  /// Earliest pending timer deadline, kNoDeadline when the heap is empty.
  int64_t NextTimerDeadlineNanos() const;
  size_t num_sources() const;
  size_t num_timers() const { return armed_.size(); }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

 private:
  struct Source {
    SourceId id = 0;
    /// Drains up to `burst` items, bumping *handled; true = closed+drained.
    std::function<bool(size_t burst, size_t* handled)> poll;
    std::function<void()> unbind;
    bool closed = false;
    bool removed = false;
  };

  struct TimerEntry {
    int64_t deadline = 0;
    uint64_t seq = 0;  ///< Insertion order; ties fire FIFO.
    TimerId id = 0;
    bool operator>(const TimerEntry& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : seq > other.seq;
    }
  };

  struct TimerState {
    std::function<void()> fn;
    int64_t period_nanos = 0;  ///< 0 = one-shot.
    bool cancelled = false;
  };

  /// One iteration starting at `start` (due timers → bursts of at most
  /// `burst` per source → services → idle workers); reads the clock once,
  /// for its end.
  bool Step(int64_t start, size_t burst);
  /// Fires every timer with deadline <= now; returns count fired.
  size_t FireDueTimers(int64_t now);
  /// True when Run() must exit: stopped, or channels exist and all are done.
  bool ShouldExit() const;
  void EnsureStartup();
  /// Hands a pooled loop back to its owner: runs and clears `retire_`.
  void RetireFromPool();
  TimerId ArmTimer(int64_t deadline, int64_t period, std::function<void()> fn);

  Options options_;
  const Clock* clock_;

  ipc::Wakeup wakeup_;
  std::vector<Source> sources_;
  SourceId next_source_id_ = 1;
  bool all_sources_done_ = false;
  /// Envelopes drained by, and the end time of, the most recent Step()
  /// (driving thread only).
  size_t last_step_handled_ = 0;
  int64_t last_step_end_nanos_ = 0;

  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;
  std::map<TimerId, TimerState> armed_;
  TimerId next_timer_id_ = 1;
  uint64_t timer_seq_ = 0;
  std::vector<TimerId> due_scratch_;  ///< Reused per iteration.

  struct IdleWorker {
    std::function<bool()> fn;
    std::function<bool()> throttled;  ///< Null = never throttled.
  };
  std::vector<IdleWorker> idle_;
  /// Hoisted "any worker has a throttle predicate" check: when false, Step
  /// runs a branch-free sweep over idle_ instead of testing each worker's
  /// predicate slot — a busy-spin driver pays no per-iteration atomic load
  /// for a feature nothing registered.
  bool has_throttled_idle_ = false;
  std::vector<std::function<int64_t(int64_t)>> services_;
  int64_t service_deadline_ = kNoDeadline;
  std::vector<std::function<void()>> startup_hooks_;
  std::vector<std::function<void()>> shutdown_hooks_;
  bool startup_done_ = false;
  bool shutdown_done_ = false;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> halted_{false};
  /// Set by TaskletPool::Add while a pool drives this loop: fences the
  /// pool's worker off it, so Finish() and Halt() can take the loop back.
  /// Owner thread only; the pool's worker never reads it.
  std::function<void()> retire_;
  friend class TaskletPool;

  // Instrumentation.
  std::atomic<uint64_t> wakeups_{0};
  /// Steps so far, for the 1-in-1024 thread CPU sample (driving thread
  /// only; counted only with a registry).
  uint64_t steps_ = 0;
  metrics::Gauge* thread_cpu_ = nullptr;
  metrics::Counter* wakeup_counter_ = nullptr;
  metrics::Counter* idle_throttled_counter_ = nullptr;
  metrics::Counter* busy_ns_counter_ = nullptr;
};

}  // namespace runtime
}  // namespace heron

#endif  // HERON_RUNTIME_EVENT_LOOP_H_
