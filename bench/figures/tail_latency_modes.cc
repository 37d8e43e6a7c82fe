// Tail latency by execution mode: thread-per-instance vs the cooperative
// tasklet engine, across idle policies.
//
// The experiment the cooperative engine exists for: once instances
// outnumber cores, thread-per-instance hands every tuple handoff to the
// kernel scheduler, and the p99.9/p99.99 complete latency inflates by the
// scheduling quantum. The cooperative engine multiplexes every module
// loop onto a fixed worker set with bounded, cost-clamped slices, so
// the deep tail is a function of the pass length — microseconds — rather
// than of CFS wakeup jitter — milliseconds.
//
// One WordChain topology (1 spout -> 3 relay stages x4 -> 8 count bolts,
// 4 containers, acking) is deliberately deep, wide AND bursty: every relay
// stage adds one module handoff to the tuple's critical path, so in
// thread mode each word pays ~8 kernel wake-chains end to end and the
// tail of each 64-word emission burst rides a convoy of them, while in
// cooperative mode the whole chain rides the tasklet pool's passes. The
// spout is rate-limited below thread-mode saturation, so both modes
// carry the same offered load — equal throughput by construction — and
// the complete-latency distribution isolates scheduling. The scenarios
// run in interleaved rounds and each reports its least-polluted run by
// p99.99 (the deep tail of a short run is a max statistic, and one
// stray host-side preemption must not decide the verdict either way).
//
// Scenarios: thread | coop-condvar-park | coop-adaptive-spin |
// coop-busy-spin. For each: acks/sec plus complete-latency
// p50/p99/p99.9/p99.99.
//
// Verdict (full mode only — `--smoke` reports without enforcing): the
// best cooperative policy must beat thread-per-instance p99.99 by >= 5x
// at >= 0.9x its throughput, or the binary exits non-zero. CI's
// bench-regress lane then tracks the archived ratios against
// bench/baselines/.

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <string>
#include <vector>

#include "bench/figures/fig_util.h"
#include "common/logging.h"
#include "runtime/local_cluster.h"
#include "workloads/word_count.h"

using namespace heron;

namespace {

struct ModeResult {
  std::string name;
  double acks_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double p9999_ms = 0;
  bool ok = false;
};

ModeResult RunModeOnce(const std::string& name, const std::string& mode,
                       const std::string& idle_policy) {
  ModeResult out;
  out.name = name;
  // instance.acked on the "word" component counts data-branch root
  // completions, i.e. measured words.
  const uint64_t target_acks = bench::FastMode() ? 4000 : 30000;

  Config config;
  config.SetInt(config_keys::kNumContainersHint, 4);
  config.SetBool(config_keys::kAckingEnabled, true);
  // Shallow enough that the standing queue does not drown the scheduling
  // tail (Little's law: a deep pending window makes every mode look the
  // same), deep enough to keep the pipeline busy end to end.
  config.SetInt(config_keys::kMaxSpoutPending, 512);
  // Drain the SMGR cache eagerly (size trigger 1 byte, 1ms timer as the
  // backstop): a 10ms drain period would quantize every tuple's complete
  // latency to the timer and hide the scheduler entirely. Eager drains
  // make complete latency traversal-bound — the quantity the two
  // execution modes actually differ on.
  config.SetInt(config_keys::kCacheDrainFrequencyMs, 1);
  config.SetInt(config_keys::kCacheDrainSizeBytes, 1);
  // Collection rounds snapshot every histogram on the housekeeping loop
  // (a tasklet in cooperative mode, on the same worker as the data path):
  // each round is a self-inflicted multi-hundred-microsecond stall. The
  // bench reads counters and quantiles live (SumCounter sweeps instance
  // metrics directly), so push collection past the run window entirely.
  config.SetInt(config_keys::kMetricsCollectIntervalMs, 5000);
  config.Set(config_keys::kExecutionMode, mode);
  // Cooperative tail = (tasklets on the worker) x (slice target): with
  // ~17 module loops riding one worker, the default 200us slice puts a
  // full round-robin pass into the milliseconds. 25us keeps a quiet pass
  // in the tens of microseconds, and the derived step bound (8x = 200us)
  // lets one step still swallow an entire 64-word burst at the SMGR's
  // ~3us/tuple — sizing steps to the slice itself would convoy each
  // burst across many passes.
  config.SetInt(config_keys::kExecutionSliceNanos, 25000);
  if (!idle_policy.empty()) {
    config.Set(config_keys::kExecutionIdlePolicy, idle_policy);
  }

  runtime::LocalCluster cluster(config);
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  // Bursty emission, the paper's spout contract ("spouts are extremely
  // fast, if left unrestricted"): each NextTuple drains up to a full
  // 32-word burst of accrued rate tokens. The tail of a burst convoys
  // through every hop — in thread mode that is 32 tuples' worth of
  // wake-chains stacked onto one word's critical path, in cooperative
  // mode one drain pass. The burst size is also the deep-tail floor for
  // a perfect scheduler (the burst's last word waits for the whole
  // burst's chain CPU), so it is kept small enough that the floor sits
  // well under the thread-mode quantum while still covering a ~0.45ms
  // token gap at the offered rate.
  spout_options.words_per_call = 32;
  // Fixed offered load, comfortably below thread-mode saturation on one
  // core: at saturation every mode's latency is queueing (Little's law),
  // and the comparison degenerates into the throughput ratio measured
  // separately. Below it, latency is traversal + scheduling — the thing
  // the two engines do differently.
  spout_options.target_rate_per_sec = 70000;
  // Finite stream: the spout stops itself after the sample budget, so the
  // main thread never needs to poll while tuples are in flight. On a
  // one-core host every mid-run poll preempts the pool worker and poisons
  // the in-flight tuples' latency — at a few polls per second that is
  // enough to own the p99.99 of a clean cooperative run.
  spout_options.warmup_emits = 5000;  // Unanchored: no latency samples.
  spout_options.emit_limit = spout_options.warmup_emits + target_acks;
  auto topology = workloads::BuildWordChainTopology(
      "tail-" + name, /*spouts=*/1, /*relay_stages=*/3,
      /*relay_parallelism=*/4, /*bolts=*/8, spout_options);
  if (!topology.ok() || !cluster.Submit(*topology).ok()) return out;

  // Sleep through the entire emission window before the first completion
  // check (see emit_limit above: polling mid-run would pollute the tail),
  // then poll the drained stream at leisure.
  const auto t0 = std::chrono::steady_clock::now();
  const double expected_secs = static_cast<double>(spout_options.emit_limit) /
                               spout_options.target_rate_per_sec;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(expected_secs * 1000) + 300));
  bool reached = false;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < 120.0) {
    if (cluster.SumCounter("instance.acked", "word") >= target_acks) {
      reached = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!reached) {
    cluster.Kill().ok();
    return out;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const uint64_t acked = cluster.SumCounter("instance.acked", "word");
  out.acks_per_sec = secs > 0 ? static_cast<double>(acked) / secs : 0;
  const auto quantile_ms = [&cluster](double q) {
    return static_cast<double>(cluster.CompleteLatencyQuantile(q, "word")) /
           1e6;
  };
  out.p50_ms = quantile_ms(0.5);
  out.p99_ms = quantile_ms(0.99);
  out.p999_ms = quantile_ms(0.999);
  out.p9999_ms = quantile_ms(0.9999);
  out.ok = true;
  cluster.Kill().ok();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseSmoke(argc, argv);
  bench::JsonReport report("tail_latency_modes");
  Logging::SetLevel(LogLevel::kError);

  bench::PrintFigureHeader(
      "Tail latency by execution mode (thread-per-instance vs cooperative)",
      "Cooperative tasklet scheduling bounds the deep tail by the slice "
      "pass, not the kernel scheduling quantum: order-of-magnitude better "
      "p99.99 at equal throughput on an oversubscribed host");

  const std::vector<std::pair<std::string, std::pair<std::string, std::string>>>
      scenarios = {
          {"thread", {"thread", ""}},
          {"coop-condvar-park", {"cooperative", "condvar-park"}},
          {"coop-adaptive-spin", {"cooperative", "adaptive-spin"}},
          {"coop-busy-spin", {"cooperative", "busy-spin"}},
      };

  // Interleaved rounds, min-of-N by p99.99 per scenario. Two layers of
  // noise defense on a shared host: the deep tail of one short run is a
  // max statistic (one stray host preemption poisons every in-flight
  // tuple), so each scenario keeps its least-polluted run; and the rounds
  // interleave the scenarios so all of them sample the same minutes of
  // host weather — a sequential per-mode block could park one mode's
  // entire repeat budget inside a noisy patch.
  const int rounds = bench::FastMode() ? 1 : 10;
  std::vector<ModeResult> results(scenarios.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < scenarios.size(); ++i) {
      ModeResult r = RunModeOnce(scenarios[i].first, scenarios[i].second.first,
                                 scenarios[i].second.second);
      if (!r.ok) {
        std::printf("  %s (did not complete!)\n", scenarios[i].first.c_str());
        return 1;
      }
      std::printf("  round %d %-20s p99.99 %7.1f ms  (p50 %5.1f, p99 %5.1f)\n",
                  round, scenarios[i].first.c_str(), r.p9999_ms, r.p50_ms,
                  r.p99_ms);
      if (!results[i].ok || r.p9999_ms < results[i].p9999_ms) {
        results[i] = std::move(r);
      }
    }
  }

  std::printf("\n-- complete latency by mode (acking WordChain 1->3x4->8, "
              "4 containers) --\n");
  bench::PrintColumns({"mode", "acks_per_s", "p50_ms", "p99_ms", "p999_ms",
                       "p9999_ms"});
  for (const ModeResult& r : results) {
    bench::PrintCell(r.name.c_str());
    bench::PrintCell(r.acks_per_sec);
    bench::PrintCell(r.p50_ms);
    bench::PrintCell(r.p99_ms);
    bench::PrintCell(r.p999_ms);
    bench::PrintCell(r.p9999_ms);
    bench::EndRow();
    report.Add(r.name, "acks_per_sec", r.acks_per_sec);
    report.Add(r.name, "p50_ms", r.p50_ms);
    report.Add(r.name, "p99_ms", r.p99_ms);
    report.Add(r.name, "p999_ms", r.p999_ms);
    report.Add(r.name, "p9999_ms", r.p9999_ms);
  }

  // The verdict compares thread-per-instance against the best cooperative
  // policy: the engine claims the *mechanism* wins, the policy sweep shows
  // how much each idle strategy pays for it.
  const ModeResult& thread_mode = results[0];
  const ModeResult* best_coop = nullptr;
  for (size_t i = 1; i < results.size(); ++i) {
    if (best_coop == nullptr || results[i].p9999_ms < best_coop->p9999_ms) {
      best_coop = &results[i];
    }
  }
  const double floor_ms = 1e-3;  // Histogram resolution floor.
  const double tail_win =
      std::max(thread_mode.p9999_ms, floor_ms) /
      std::max(best_coop->p9999_ms, floor_ms);
  const double throughput_ratio =
      thread_mode.acks_per_sec > 0
          ? best_coop->acks_per_sec / thread_mode.acks_per_sec
          : 0;

  std::printf("\n-- verdict (best cooperative: %s) --\n",
              best_coop->name.c_str());
  bench::PrintVerdict("p99.99 win (thread / cooperative)", tail_win, 5.0,
                      1e9);
  bench::PrintVerdict("throughput ratio (cooperative / thread)",
                      throughput_ratio, 0.9, 1e9);

  report.Add("verdict", "tail_win_ratio", tail_win);
  report.Add("verdict", "throughput_ratio", throughput_ratio);
  report.Write();

  if (!bench::FastMode() && (tail_win < 5.0 || throughput_ratio < 0.9)) {
    std::printf("\n  FAIL: cooperative engine did not clear the tail/"
                "throughput bar.\n");
    return 1;
  }
  return 0;
}
