#include "runtime/event_loop.h"

#include <algorithm>

#include "common/logging.h"

namespace heron {
namespace runtime {

EventLoop::EventLoop(const Options& options, const Clock* clock)
    : options_(options), clock_(clock) {
  if (options_.registry != nullptr) {
    const std::string& p = options_.metric_prefix;
    thread_cpu_ = options_.registry->GetGauge(p + ".thread.cpu.ns");
    wakeup_counter_ = options_.registry->GetCounter(p + ".loop.wakeups");
    idle_throttled_counter_ =
        options_.registry->GetCounter(p + ".loop.idle.throttled");
    busy_ns_counter_ = options_.registry->GetCounter(p + ".loop.busy.ns");
  }
}

EventLoop::~EventLoop() {
  Stop();
  Join();
  // Unbind every channel so a channel outliving this loop never notifies a
  // dangling Wakeup.
  for (Source& source : sources_) {
    if (source.unbind) source.unbind();
  }
}

void EventLoop::RemoveChannel(SourceId id) {
  for (Source& source : sources_) {
    if (source.id == id && !source.removed) {
      source.removed = true;
      if (source.unbind) source.unbind();
      source.unbind = nullptr;
      return;
    }
  }
}

EventLoop::TimerId EventLoop::ArmTimer(int64_t deadline, int64_t period,
                                       std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  armed_[id] = TimerState{std::move(fn), period, /*cancelled=*/false};
  timer_heap_.push(TimerEntry{deadline, timer_seq_++, id});
  return id;
}

EventLoop::TimerId EventLoop::AddTimer(int64_t deadline_nanos,
                                       std::function<void()> fn) {
  return ArmTimer(deadline_nanos, /*period=*/0, std::move(fn));
}

EventLoop::TimerId EventLoop::AddPeriodic(int64_t period_nanos,
                                          std::function<void()> fn) {
  return ArmTimer(clock_->NowNanos() + period_nanos, period_nanos,
                  std::move(fn));
}

bool EventLoop::CancelTimer(TimerId id) {
  const auto it = armed_.find(id);
  if (it == armed_.end() || it->second.cancelled) return false;
  // Lazy cancellation: the heap entry is skipped when popped.
  it->second.cancelled = true;
  return true;
}

void EventLoop::AddIdle(std::function<bool()> fn) {
  idle_.push_back(IdleWorker{std::move(fn), nullptr});
}

void EventLoop::AddIdle(std::function<bool()> fn,
                        std::function<bool()> throttled) {
  if (throttled) has_throttled_idle_ = true;
  idle_.push_back(IdleWorker{std::move(fn), std::move(throttled)});
}

void EventLoop::AddService(std::function<int64_t(int64_t)> fn) {
  services_.push_back(std::move(fn));
}

void EventLoop::OnStartup(std::function<void()> fn) {
  startup_hooks_.push_back(std::move(fn));
}

void EventLoop::OnShutdown(std::function<void()> fn) {
  shutdown_hooks_.push_back(std::move(fn));
}

int64_t EventLoop::NextTimerDeadlineNanos() const {
  // The heap may carry cancelled entries; scan past them without popping
  // (they are rare and cheap to sleep through once).
  if (timer_heap_.empty()) return kNoDeadline;
  return timer_heap_.top().deadline;
}

size_t EventLoop::num_sources() const {
  size_t n = 0;
  for (const Source& source : sources_) {
    if (!source.removed) ++n;
  }
  return n;
}

int64_t EventLoop::WakeDeadlineNanos(int64_t now) const {
  const int64_t due = std::min(NextTimerDeadlineNanos(), service_deadline_);
  if (idle_.empty()) return due;
  return std::min(due, now + kIdleBackoffNanos);
}

size_t EventLoop::FireDueTimers(int64_t now) {
  // Collect first, then run: a callback may arm new timers (periodic
  // re-arm, retry backoff) and those must wait for the next iteration even
  // when already due, or a zero-period timer could starve the sources.
  due_scratch_.clear();
  while (!timer_heap_.empty() && timer_heap_.top().deadline <= now) {
    const TimerEntry entry = timer_heap_.top();
    timer_heap_.pop();
    const auto it = armed_.find(entry.id);
    if (it == armed_.end()) continue;  // Stale heap entry (re-armed/fired).
    if (it->second.cancelled) {
      armed_.erase(it);
      continue;
    }
    due_scratch_.push_back(entry.id);
  }
  size_t fired = 0;
  for (const TimerId id : due_scratch_) {
    const auto it = armed_.find(id);
    if (it == armed_.end() || it->second.cancelled) continue;
    it->second.fn();
    ++fired;
    if (it->second.period_nanos > 0 && !it->second.cancelled) {
      // Re-arm from fire time: coalesced, no catch-up burst after a stall.
      timer_heap_.push(TimerEntry{clock_->NowNanos() + it->second.period_nanos,
                                  timer_seq_++, id});
    } else {
      armed_.erase(id);
    }
  }
  return fired;
}

bool EventLoop::Step(int64_t start, size_t burst) {
  bool did_work = FireDueTimers(start) > 0;

  // Drain a bounded burst from every source, registration order.
  bool any_open = false;
  bool has_sources = false;
  last_step_handled_ = 0;
  for (Source& source : sources_) {
    if (source.removed) continue;
    has_sources = true;
    if (source.closed) continue;
    size_t handled = 0;
    source.closed = source.poll(burst, &handled);
    last_step_handled_ += handled;
    if (handled > 0) did_work = true;
    if (!source.closed) any_open = true;
  }
  all_sources_done_ = has_sources && !any_open;

  // Dynamic-deadline services (ack expiry, retry flush, ...), at the
  // step's start time: the step's only clock read is its end.
  if (!services_.empty()) {
    service_deadline_ = kNoDeadline;
    for (auto& service : services_) {
      service_deadline_ = std::min(service_deadline_, service(start));
    }
  }

  // Idle workers (spout NextTuple rounds) run after inbound traffic so
  // acks free pending slots before the next emission attempt. The throttle
  // check is hoisted: loops with no throttleable worker (every bolt, the
  // SMGR) take the predicate-free sweep, so a busy-spin driver never pays
  // a per-iteration predicate call (an atomic back-pressure load) for a
  // feature nothing registered.
  if (!has_throttled_idle_) {
    for (IdleWorker& worker : idle_) {
      if (worker.fn()) did_work = true;
    }
  } else {
    for (IdleWorker& worker : idle_) {
      if (worker.throttled && worker.throttled()) {
        // Paused (e.g. spout back pressure): skipped, counted, no progress —
        // the loop parks on its idle backoff and re-checks next iteration.
        if (idle_throttled_counter_ != nullptr) {
          idle_throttled_counter_->Increment();
        }
        continue;
      }
      if (worker.fn()) did_work = true;
    }
  }

  const int64_t end = clock_->NowNanos();
  last_step_end_nanos_ = end;
  if (busy_ns_counter_ != nullptr) {
    busy_ns_counter_->Increment(
        static_cast<uint64_t>(std::max<int64_t>(end - start, 0)));
  }
  if (thread_cpu_ != nullptr && (++steps_ & 1023) == 0) {
    thread_cpu_->Set(ThreadCpuNanos());
  }
  return did_work;
}

bool EventLoop::ShouldExit() const {
  if (stop_.load(std::memory_order_acquire)) return true;
  return all_sources_done_;
}

void EventLoop::EnsureStartup() {
  if (startup_done_) return;
  startup_done_ = true;
  for (auto& hook : startup_hooks_) hook();
}

void EventLoop::Shutdown() {
  // A halted loop models a killed process: its final drains and flushes
  // never happened and must not happen later either.
  if (halted_.load(std::memory_order_acquire)) return;
  if (!startup_done_ || shutdown_done_) return;
  shutdown_done_ = true;
  for (auto& hook : shutdown_hooks_) hook();
  if (thread_cpu_ != nullptr) thread_cpu_->Set(ThreadCpuNanos());
}

bool EventLoop::RunOnce() {
  EnsureStartup();
  return Step(clock_->NowNanos(), options_.burst);
}

bool EventLoop::RunOnce(int64_t start_nanos, size_t burst_cap) {
  EnsureStartup();
  return Step(start_nanos, std::min(options_.burst, burst_cap));
}

void EventLoop::Run() {
  EnsureStartup();
  while (!ShouldExit()) {
    const bool did_work = Step(clock_->NowNanos(), options_.burst);
    if (ShouldExit()) break;
    if (did_work) continue;  // Hot: drain everything before parking.

    // Idle: park on the coalescing wakeup until the next deadline.
    const int64_t now = last_step_end_nanos_;
    const int64_t deadline = WakeDeadlineNanos(now);
    int64_t park = kMaxParkNanos;
    if (deadline != kNoDeadline) {
      park = std::min<int64_t>(park, deadline - now);
    }
    if (park > 0) {
      const bool notified = wakeup_.WaitFor(park);
      if (notified) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        if (wakeup_counter_ != nullptr) wakeup_counter_->Increment();
      }
    }
  }
  Shutdown();
}

void EventLoop::Start() {
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  wakeup_.Notify();
}

void EventLoop::Halt() {
  halted_.store(true, std::memory_order_release);
  Stop();
  RetireFromPool();
}

void EventLoop::Join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::RetireFromPool() {
  if (!retire_) return;
  const std::function<void()> retire = std::move(retire_);
  retire_ = nullptr;
  retire();
}

void EventLoop::Finish() {
  if (retire_) {
    // The pool's worker is fenced off: finish here exactly the steps Run()
    // would still have taken (none if the pool already drove it to Done).
    RetireFromPool();
    while (!ShouldExit()) RunOnce();
  }
  Join();
  Shutdown();
}

}  // namespace runtime
}  // namespace heron
