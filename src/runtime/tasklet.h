#ifndef HERON_RUNTIME_TASKLET_H_
#define HERON_RUNTIME_TASKLET_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "ipc/wakeup.h"
#include "observability/journal.h"
#include "runtime/event_loop.h"

namespace heron {
namespace runtime {

/// What a pool worker does when none of its tasklets made progress.
///
///   kCondvarPark   park on the worker's coalescing Wakeup until a chained
///                  member loop announces work or a deadline arrives — the
///                  default, lowest CPU, pays one futex wake per handoff.
///   kAdaptiveSpin  spin (cpu-relax) for a bounded window first, then fall
///                  back to parking — absorbs sub-window handoff gaps
///                  without a syscall, the Hazelcast-Jet middle ground.
///   kBusySpin      never park; spin on the member loops — lowest tail
///                  latency, one core burned per worker.
enum class IdlePolicy {
  kCondvarPark,
  kAdaptiveSpin,
  kBusySpin,
};

/// Parses "condvar-park" | "adaptive-spin" | "busy-spin".
Result<IdlePolicy> ParseIdlePolicy(std::string_view text);
const char* IdlePolicyName(IdlePolicy policy);

/// Knobs for one tasklet's slice (see Tasklet).
struct TaskletOptions {
  /// Target wall time for one Drive() slice: a tasklet's fair share of a
  /// pass. The bound on one uninterruptible RunOnce() step is
  /// Tasklet::kStepBoundSlices times this target.
  int64_t target_slice_nanos = 200000;  // 200 us.
  /// Deterministic bound on RunOnce() steps per slice. The wall-time
  /// check cannot be the only slice bound: under a virtual clock time
  /// never advances inside Drive(), and idle-worker progress (a spout's
  /// NextTuple runs once per step, not once per burst) must still be
  /// sliced fairly against source-burst progress. The cap is the batch
  /// size of a producing slice: every step a spout keeps making progress
  /// adds one NextTuple round that its consumers on the same worker wait
  /// behind. 4 steps hand the consumers about 64 one-KiB tuples per pass
  /// (64 steps let ~500 through before any consumer ran). A smaller cap
  /// means more passes, and every member pays one drive per pass whether
  /// it has work or not; 4 became affordable once a step read the clock
  /// once and a pass stopped copying the member list (DESIGN.md, "Why
  /// the step cap is 4").
  size_t max_steps_per_slice = 4;
};

/// \brief One cooperatively-scheduled module loop: an EventLoop driven in
/// bounded slices from a pool worker instead of Run() on an owned thread.
///
/// Drive() = one slice: repeated RunOnce() steps until the slice's wall
/// budget (`target_slice_nanos`) or the deterministic step cap is spent,
/// or the loop reports no progress. Each step drains at most the loop's
/// own `EventLoop::Options::burst` per source, the bound thread mode and
/// step mode use too. One step is the uninterruptible unit, so a tasklet
/// may not hog its worker past the step bound (kStepBoundSlices slice
/// targets); two things lower a step's burst: a per-envelope cost clamp
/// that sizes it to finish inside that bound, and a cold cap
/// (kColdBurst) until a step has drained something to price. Steps that
/// still run past the bound are counted (`overruns()`). Idle-worker
/// progress (a spout's NextTuple) happens once per step, so a slice is a
/// few steps: one step per pass would let a burst-drained consumer starve
/// its producer of offered load, and many steps per pass would make the
/// consumer wait behind one long production run. Everything here runs on
/// one driving thread at a time — the pool's per-handle mutex enforces
/// that.
class Tasklet {
 public:
  /// The step bound, in slice targets. Distinct from the slice target on
  /// purpose: the slice is a tasklet's fair share of a pass, while the step
  /// bound is the worst stall one tasklet may inflict on its worker. Sizing
  /// steps to the slice target itself would convoy bursty traffic — a
  /// 64-tuple burst whose drain costs a few slice targets of CPU would be
  /// doled out a handful of tuples per pass, turning microseconds of work
  /// into milliseconds of queueing.
  static constexpr int64_t kStepBoundSlices = 8;
  /// Envelopes per source a cold step may drain: until a step has drained
  /// an envelope there is no cost to clamp by, and a full burst at an
  /// unknown cost (a CPU-heavy Execute meeting a backlog) could stall the
  /// worker for many step bounds. A new loop, and every loop a recovery,
  /// rollback or scale restarts, starts cold.
  static constexpr size_t kColdBurst = 8;

  Tasklet(EventLoop* loop, const TaskletOptions& options, const Clock* clock)
      : loop_(loop), options_(options), clock_(clock),
        step_bound_nanos_(kStepBoundSlices * options.target_slice_nanos) {}

  /// One slice: returns whether the loop reported progress. The slice
  /// reads the clock once for its start; every step reads only its end,
  /// which is the step's elapsed time, the next step's start and the
  /// slice-target check at once.
  bool Drive() {
    int64_t now = clock_->NowNanos();
    slice_start_nanos_ = now;
    bool did_work = false;
    size_t steps = 0;
    do {
      // The cost clamp: the per-envelope cost EWMA turns the step bound
      // into a burst the step can finish in time, with a floor of 1 — a
      // loop whose single envelope costs more than the bound (a CPU-heavy
      // Execute) drains one at a time. Before any estimate a cold step
      // drains at most kColdBurst per source, and a warm one (always,
      // under a virtual clock, where steps take no time) the loop's own
      // burst; either way stepping stays deterministic.
      size_t burst_cap =
          warm_ ? std::numeric_limits<size_t>::max() : kColdBurst;
      if (cost_ewma_nanos_ > 0) {
        burst_cap = std::max(
            size_t{1},
            static_cast<size_t>(static_cast<double>(step_bound_nanos_) /
                                cost_ewma_nanos_));
      }
      const bool step_work = loop_->RunOnce(now, burst_cap);
      const int64_t step_end = loop_->last_step_end_nanos();
      const int64_t step_elapsed = step_end - now;
      now = step_end;
      const size_t handled = loop_->last_step_handled();
      if (handled > 0) {
        warm_ = true;
        if (step_elapsed > 0) {
          const double cost = static_cast<double>(step_elapsed) /
                              static_cast<double>(handled);
          cost_ewma_nanos_ =
              cost_ewma_nanos_ > 0 ? (cost_ewma_nanos_ * 7 + cost) / 8 : cost;
        }
      }
      ++steps;
      if (!step_work) break;
      if (step_elapsed > step_bound_nanos_) ++overruns_;
      did_work = true;
    } while (steps < options_.max_steps_per_slice &&
             now - slice_start_nanos_ < options_.target_slice_nanos);
    slice_end_nanos_ = now;
    ++slices_;
    return did_work;
  }

  /// True when the loop would have exited Run(): stopped, or every channel
  /// source closed and drained.
  bool Done() const { return loop_->stopped() || loop_->sources_done(); }

  EventLoop* loop() const { return loop_; }
  /// Per-envelope wall cost estimate (ns); 0 until a timed step drained
  /// work.
  double cost_ewma_nanos() const { return cost_ewma_nanos_; }
  uint64_t slices() const { return slices_; }
  /// Steps that did work and ran past the step bound.
  uint64_t overruns() const { return overruns_; }
  /// Clock readings that began and ended the most recent Drive().
  int64_t slice_start_nanos() const { return slice_start_nanos_; }
  int64_t slice_end_nanos() const { return slice_end_nanos_; }

 private:
  EventLoop* loop_;
  TaskletOptions options_;
  const Clock* clock_;
  const int64_t step_bound_nanos_;
  bool warm_ = false;  ///< A step has drained an envelope.
  double cost_ewma_nanos_ = 0;
  uint64_t slices_ = 0;
  uint64_t overruns_ = 0;
  int64_t slice_start_nanos_ = 0;
  int64_t slice_end_nanos_ = 0;
};

/// \brief Thread-per-core cooperative scheduler: N workers, each driving
/// many tasklets round-robin, parking per the configured IdlePolicy.
///
/// This is `heron.execution.mode=cooperative`'s engine. Instead of one OS
/// thread per instance (tail latency at the mercy of the kernel scheduler
/// once instances outnumber cores), every module EventLoop becomes a
/// tasklet on one of a fixed set of workers — the Hazelcast-Jet execution
/// model grafted onto the paper's §II reactor kernel.
///
/// ## Wakeup protocol (lost-wakeup-free parking)
/// Add() chains the member loop's Wakeup to its worker's Wakeup: producers
/// notify the member latch, which forwards one coalesced notify to the
/// worker. Because member latches coalesce (a second notify while pending
/// forwards nothing), a worker must Poll() every member latch immediately
/// before parking — any pending latch means undrained work, so it re-drives
/// instead of parking, and the cleared latch re-arms forwarding. A notify
/// landing between the Poll and the park still reaches the worker's own
/// latch, which WaitFor() consumes.
///
/// ## Retire fence
/// Retire() is synchronous: it marks the handle retired, then acquires the
/// per-handle drive mutex, guaranteeing any in-flight Drive() finished and
/// no later one starts. After Retire() returns, the caller owns the loop
/// again (e.g. to drain it on its own thread during graceful Stop). Add()
/// records the retire on the loop itself, so the loop's owner ends a
/// pooled loop with EventLoop::Finish() or Halt() without holding the
/// handle.
///
/// ## Member snapshot
/// A pass walks a raw-pointer snapshot of the worker's member list, so a
/// pass over an unchanged membership takes no list lock and touches no
/// shared_ptr count. A pool-wide generation tells the worker when to
/// rebuild it: Add bumps it after the push and before its notify, Retire
/// after flipping `retired`. Only the worker erases from its member list
/// (when it rebuilds), so every snapshot pointer outlives the pass.
///
/// ## Inline mode
/// `Options::threaded=false` spawns no threads; DriveAll() steps every
/// worker's tasklets once, in registration order, from the caller — the
/// deterministic two-universe harness for cooperative mode.
class TaskletPool {
 public:
  /// Cap on any single worker park (back-pressure flags clear silently).
  static constexpr int64_t kMaxParkNanos = 1000000;  // 1 ms.
  /// Adaptive-spin window before falling back to a park.
  static constexpr int64_t kSpinWindowNanos = 50000;  // 50 us.

  struct Options {
    /// Worker count; 0 = one per hardware core.
    size_t workers = 0;
    /// False = inline stepping via DriveAll() (deterministic tests).
    bool threaded = true;
    IdlePolicy idle_policy = IdlePolicy::kCondvarPark;
    TaskletOptions tasklet;
    /// Timeline slices: when set, every progressing Drive() records a
    /// (worker, tasklet, start, duration) slice, and workers account busy
    /// wall-time per pass so CollectStats() can report an occupancy ratio
    /// (two clock reads per pass). Owned by the caller (LocalCluster);
    /// nullptr leaves the scheduler out of the timeline and unprofiled,
    /// with the rest of the observability layer when the journal is dark.
    observability::SliceRing* slice_ring = nullptr;
  };

  class Handle;

  TaskletPool(const Options& options, const Clock* clock);
  ~TaskletPool();

  TaskletPool(const TaskletPool&) = delete;
  TaskletPool& operator=(const TaskletPool&) = delete;

  /// Registers `loop` as a tasklet, round-robin across workers, and chains
  /// its wakeup. The loop must be fully registered (channels, timers, idle
  /// workers) before Add — the pool worker becomes its driving thread —
  /// and the pool must outlive the loop's Finish() or Halt(), which retire
  /// it. Returns a handle for Retire(); owned by the pool.
  Handle* Add(EventLoop* loop);

  /// Synchronously stops driving `handle`'s loop (see class comment).
  /// Idempotent; null is a no-op. Does not stop or drain the loop itself.
  void Retire(Handle* handle);

  void Start();
  /// Stops and joins every worker. Member loops are left as-is.
  void Stop();

  /// Inline mode: one Drive pass over every tasklet; true when any
  /// progressed. Threaded pools must not call this.
  bool DriveAll();

  /// \brief Aggregated scheduler profile: what the pool's tasklets and
  /// workers have been doing since Start(). Tasklet counters cover the
  /// *live* (un-retired) handles; worker busy/wall cover every threaded
  /// worker since its Run() began.
  struct SchedulerStats {
    size_t workers = 0;
    uint64_t tasklets = 0;     ///< Live handles.
    uint64_t slices = 0;       ///< Drive() slices across live tasklets.
    uint64_t overruns = 0;     ///< Steps that blew the step bound.
    int64_t busy_nanos = 0;    ///< Worker wall-time inside drive passes.
    int64_t wall_nanos = 0;    ///< Worker wall-time since Run() started.
    /// Fraction of worker wall-time spent driving; 0 when unprofiled or
    /// inline (no worker threads, so no wall to divide by).
    double occupancy() const {
      return wall_nanos > 0
                 ? static_cast<double>(busy_nanos) /
                       static_cast<double>(wall_nanos)
                 : 0.0;
    }
  };

  /// Snapshot of the scheduler profile; safe from any thread (briefly
  /// fences each tasklet's drive mutex). `now_nanos` bounds the wall term.
  SchedulerStats CollectStats(int64_t now_nanos) const;

  /// Registration-ordered tasklet names (their loops' names); index =
  /// the ordinal recorded in SchedSlice::tasklet. Names persist past
  /// retirement so old slices stay resolvable.
  std::vector<std::string> TaskletNames() const;

  size_t num_workers() const { return workers_.size(); }
  /// Handles on the workers' member lists: the live ones, plus retired
  /// ones their worker has not yet pruned (it does at its next pass).
  size_t num_members() const;
  const Options& options() const { return options_; }

 private:
  class Worker;

  Options options_;
  const Clock* clock_;
  /// Membership generation: Add and Retire bump it, and a worker rebuilds
  /// its member snapshot only when it moved. Declared before `workers_`,
  /// which point at it.
  std::atomic<uint64_t> membership_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<size_t> next_worker_{0};
  bool started_ = false;
  /// Keeps every un-retired handle alive independent of the workers'
  /// member lists, so Retire() can safely dereference the raw pointer it
  /// was given (and detect an already-retired one without touching it).
  mutable std::mutex registry_mu_;
  std::unordered_map<Handle*, std::shared_ptr<Handle>> registry_;
  /// Registration-ordered loop names; index = SchedSlice ordinal.
  /// Guarded by registry_mu_; grows only.
  std::vector<std::string> names_;
};

}  // namespace runtime
}  // namespace heron

#endif  // HERON_RUNTIME_TASKLET_H_
