#include "runtime/tasklet.h"

#include <algorithm>

#include "common/logging.h"

namespace heron {
namespace runtime {
namespace {

/// One spin-loop beat that tells the core (not the OS) we are waiting.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Result<IdlePolicy> ParseIdlePolicy(std::string_view text) {
  if (text == "condvar-park") return IdlePolicy::kCondvarPark;
  if (text == "adaptive-spin") return IdlePolicy::kAdaptiveSpin;
  if (text == "busy-spin") return IdlePolicy::kBusySpin;
  return Status::InvalidArgument("unknown idle policy: '" + std::string(text) +
                                 "' (condvar-park | adaptive-spin | "
                                 "busy-spin)");
}

const char* IdlePolicyName(IdlePolicy policy) {
  switch (policy) {
    case IdlePolicy::kCondvarPark:
      return "condvar-park";
    case IdlePolicy::kAdaptiveSpin:
      return "adaptive-spin";
    case IdlePolicy::kBusySpin:
      return "busy-spin";
  }
  return "unknown";
}

/// Pool-owned per-tasklet state. `mu` is the drive fence: held for every
/// Drive() of this tasklet and taken once by Retire(), so "retired
/// observed under mu" means "no driver will ever touch the loop again".
class TaskletPool::Handle {
 public:
  Handle(EventLoop* loop, const TaskletOptions& options, const Clock* clock,
         int32_t ord)
      : tasklet(loop, options, clock), ord(ord) {}

  Tasklet tasklet;
  const int32_t ord;  ///< Pool registration ordinal (slice-ring identity).
  std::mutex mu;
  std::atomic<bool> retired{false};
  bool finished = false;  ///< Loop reached Done(); guarded by mu.
};

/// One scheduling thread (or inline stepper): round-robin drives its
/// member tasklets, idles per the pool policy.
class TaskletPool::Worker {
 public:
  Worker(const Options* options, const Clock* clock, size_t index,
         std::atomic<uint64_t>* membership)
      : options_(options), clock_(clock), index_(index),
        membership_(membership) {}

  void Add(std::shared_ptr<Handle> handle) {
    handle->tasklet.loop()->wakeup()->Chain(&wakeup_);
    {
      std::lock_guard<std::mutex> lock(list_mu_);
      members_.push_back(std::move(handle));
    }
    // Bumped after the push and before the notify: the pass the notify
    // wakes sees the new generation and rebuilds its snapshot.
    membership_->fetch_add(1, std::memory_order_release);
    wakeup_.Notify();
  }

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    wakeup_.Notify();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// One drive pass over the member snapshot. Returns whether any
  /// tasklet progressed.
  bool Pass() {
    RefreshSnapshot();
    bool did_work = false;
    observability::SliceRing* ring = options_->slice_ring;
    for (Handle* handle : snapshot_) {
      std::lock_guard<std::mutex> drive(handle->mu);
      if (handle->retired.load(std::memory_order_acquire) || handle->finished) {
        continue;
      }
      Tasklet& tasklet = handle->tasklet;
      if (tasklet.Drive()) {
        did_work = true;
        // Timeline slice: only progressing drives are recorded — idle
        // passes happen thousands of times a second and carry no signal.
        if (ring != nullptr) {
          ring->Record(static_cast<int32_t>(index_), handle->ord,
                       tasklet.slice_start_nanos(),
                       tasklet.slice_end_nanos() - tasklet.slice_start_nanos());
        }
      }
      if (tasklet.Done()) {
        // Mirror Run()'s exit: the loop's sources closed and drained (or
        // Stop was requested) while pooled — run its shutdown hooks here
        // on the driving thread. Halted loops no-op this.
        tasklet.loop()->Shutdown();
        handle->finished = true;
      }
    }
    return did_work;
  }

  ipc::Wakeup* wakeup() { return &wakeup_; }

  size_t num_members() {
    std::lock_guard<std::mutex> lock(list_mu_);
    return members_.size();
  }

  /// Worker wall-time spent inside drive passes (profiling; 0 when off).
  int64_t busy_nanos() const {
    return busy_nanos_.load(std::memory_order_relaxed);
  }
  /// When Run() began, -1 before Start (occupancy denominator).
  int64_t started_nanos() const {
    return started_nanos_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    wakeup_.SetOwnerThread();
    const bool profile = options_->slice_ring != nullptr;
    started_nanos_.store(clock_->NowNanos(), std::memory_order_relaxed);
    int64_t spin_start = -1;  // -1 = not currently in an idle spin window.
    while (!stop_.load(std::memory_order_acquire)) {
      bool did_work;
      if (profile) {
        const int64_t t0 = clock_->NowNanos();
        did_work = Pass();
        busy_nanos_.fetch_add(
            std::max<int64_t>(clock_->NowNanos() - t0, 0),
            std::memory_order_relaxed);
      } else {
        did_work = Pass();
      }
      if (stop_.load(std::memory_order_acquire)) break;
      if (did_work) {
        spin_start = -1;
        continue;
      }
      // A member latch left pending means work was announced during or
      // after the pass (coalesced away from the worker latch): re-drive
      // instead of parking. Polling also re-arms the latch's forwarding.
      if (PollMembers()) {
        spin_start = -1;
        continue;
      }
      switch (options_->idle_policy) {
        case IdlePolicy::kBusySpin:
          CpuRelax();
          continue;
        case IdlePolicy::kAdaptiveSpin: {
          const int64_t now = clock_->NowNanos();
          if (spin_start < 0) spin_start = now;
          if (now - spin_start < kSpinWindowNanos) {
            CpuRelax();
            continue;
          }
          break;  // Spin window exhausted: fall through to the park.
        }
        case IdlePolicy::kCondvarPark:
          break;
      }
      Park();
      spin_start = -1;
    }
  }

  /// Rebuilds the raw-pointer member snapshot, pruning retired handles,
  /// when the pool's membership generation moved since the last rebuild;
  /// a pass over an unchanged membership copies nothing. A snapshot
  /// pointer stays valid until the next rebuild: only this worker erases
  /// from `members_`, whose shared_ptrs keep every snapshot entry alive.
  void RefreshSnapshot() {
    const uint64_t generation = membership_->load(std::memory_order_acquire);
    if (generation == snapshot_generation_) return;
    snapshot_generation_ = generation;
    std::lock_guard<std::mutex> lock(list_mu_);
    members_.erase(
        std::remove_if(members_.begin(), members_.end(),
                       [](const std::shared_ptr<Handle>& h) {
                         return h->retired.load(std::memory_order_acquire);
                       }),
        members_.end());
    snapshot_.clear();
    for (const std::shared_ptr<Handle>& handle : members_) {
      snapshot_.push_back(handle.get());
    }
  }

  // Every member-loop access below (Poll, deadline reads) happens under
  // the handle's drive mutex with `retired` re-checked: the loop object
  // belongs to the module and may be destroyed any time after Retire()
  // returns, so the fence must cover more than just Drive().
  bool PollMembers() {
    bool pending = false;
    for (Handle* handle : snapshot_) {
      std::lock_guard<std::mutex> fence(handle->mu);
      if (handle->retired.load(std::memory_order_acquire)) continue;
      if (handle->tasklet.loop()->wakeup()->Poll()) pending = true;
    }
    return pending;
  }

  void Park() {
    // Bound the park by the members' wake rule: the earliest timer or
    // service deadline, or the idle backoff of a member with idle workers.
    const int64_t now = clock_->NowNanos();
    int64_t deadline = EventLoop::kNoDeadline;
    for (Handle* handle : snapshot_) {
      std::lock_guard<std::mutex> fence(handle->mu);
      if (handle->retired.load(std::memory_order_acquire) || handle->finished) {
        continue;
      }
      deadline =
          std::min(deadline, handle->tasklet.loop()->WakeDeadlineNanos(now));
    }
    int64_t park = kMaxParkNanos;
    if (deadline != EventLoop::kNoDeadline) {
      park = std::min<int64_t>(park, deadline - now);
    }
    if (park > 0) wakeup_.WaitFor(park);
  }

  const Options* options_;
  const Clock* clock_;
  size_t index_;
  /// The pool's membership generation (TaskletPool::membership_).
  std::atomic<uint64_t>* membership_;

  ipc::Wakeup wakeup_;
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int64_t> started_nanos_{-1};
  std::mutex list_mu_;
  std::vector<std::shared_ptr<Handle>> members_;  ///< Guarded by list_mu_.
  /// Driving thread only: raw pointers into `members_` as of
  /// `snapshot_generation_`.
  std::vector<Handle*> snapshot_;
  uint64_t snapshot_generation_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

TaskletPool::TaskletPool(const Options& options, const Clock* clock)
    : options_(options), clock_(clock) {
  size_t n = options_.workers;
  if (n == 0) {
    n = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(&options_, clock_, i, &membership_));
  }
}

TaskletPool::~TaskletPool() { Stop(); }

TaskletPool::Handle* TaskletPool::Add(EventLoop* loop) {
  std::shared_ptr<Handle> handle;
  Handle* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    handle = std::make_shared<Handle>(loop, options_.tasklet, clock_,
                                      static_cast<int32_t>(names_.size()));
    raw = handle.get();
    names_.push_back(loop->name());
    registry_.emplace(raw, handle);
  }
  // Set before a worker can see the loop; only the loop's owner reads it.
  loop->retire_ = [this, raw] { Retire(raw); };
  const size_t slot =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  workers_[slot]->Add(std::move(handle));
  return raw;
}

void TaskletPool::Retire(Handle* handle) {
  if (handle == nullptr) return;
  // Claim ownership from the registry first: once `retired` flips, the
  // worker prunes its shared_ptrs at the next pass, so without this hold
  // the handle could be freed between the flip and the unchain below.
  // A second Retire of the same pointer finds the registry empty and
  // returns without ever dereferencing (possibly freed) memory.
  std::shared_ptr<Handle> keep;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(handle);
    if (it == registry_.end()) return;
    keep = std::move(it->second);
    registry_.erase(it);
  }
  if (keep->retired.exchange(true, std::memory_order_acq_rel)) return;
  // Bumped after the flip, so a worker that sees the new generation also
  // sees `retired` and prunes the handle at its next pass.
  membership_.fetch_add(1, std::memory_order_release);
  // Fence: wait out any in-flight Drive(). After this, workers observe
  // `retired` under mu before touching the tasklet, so the loop is ours.
  { std::lock_guard<std::mutex> fence(keep->mu); }
  keep->tasklet.loop()->wakeup()->Chain(nullptr);
}

void TaskletPool::Start() {
  if (started_ || !options_.threaded) return;
  started_ = true;
  for (auto& worker : workers_) worker->Start();
}

void TaskletPool::Stop() {
  if (!started_) return;
  started_ = false;
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
}

bool TaskletPool::DriveAll() {
  bool did_work = false;
  for (auto& worker : workers_) {
    if (worker->Pass()) did_work = true;
  }
  return did_work;
}

TaskletPool::SchedulerStats TaskletPool::CollectStats(int64_t now_nanos) const {
  SchedulerStats stats;
  stats.workers = workers_.size();
  for (const auto& worker : workers_) {
    stats.busy_nanos += worker->busy_nanos();
    const int64_t started = worker->started_nanos();
    if (started >= 0 && now_nanos > started) {
      stats.wall_nanos += now_nanos - started;
    }
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [raw, handle] : registry_) {
    // The drive mutex is the established fence: holding it briefly means
    // no Drive() is mutating the tasklet's counters while we read them.
    std::lock_guard<std::mutex> fence(handle->mu);
    ++stats.tasklets;
    stats.slices += handle->tasklet.slices();
    stats.overruns += handle->tasklet.overruns();
  }
  return stats;
}

size_t TaskletPool::num_members() const {
  size_t members = 0;
  for (const auto& worker : workers_) members += worker->num_members();
  return members;
}

std::vector<std::string> TaskletPool::TaskletNames() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return names_;
}

}  // namespace runtime
}  // namespace heron
