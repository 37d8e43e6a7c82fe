#include "tmaster/scaling_policy_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "observability/json.h"

namespace heron {
namespace tmaster {

ScalingPolicyEngine::Options ScalingPolicyEngine::Options::FromConfig(
    const std::string& topology, const Config& config) {
  Options o;
  o.topology = topology;
  o.enabled = config.GetBoolOr(config_keys::kScalingEnabled, false);
  o.backpressure_ratio =
      config.GetDoubleOr(config_keys::kScalingBackpressureRatio, 0.25);
  o.skew_threshold =
      config.GetDoubleOr(config_keys::kScalingSkewThreshold, 0);
  o.hot_windows = static_cast<int>(
      config.GetIntOr(config_keys::kScalingHotWindows, 3));
  o.cooldown_ms = config.GetIntOr(config_keys::kScalingCooldownMs, 10000);
  o.factor = config.GetDoubleOr(config_keys::kScalingFactor, 2.0);
  o.max_parallelism = static_cast<int>(
      config.GetIntOr(config_keys::kScalingMaxParallelism, 64));
  return o;
}

std::string ScalingPolicyEngine::Decision::ToJson() const {
  observability::json::Writer w;
  w.BeginObject();
  w.Key("seq").Uint(seq);
  w.Key("component").String(component);
  w.Key("from").Int(from);
  w.Key("to").Int(to);
  w.Key("reason").String(reason);
  w.Key("decided_at_nanos").Int(decided_at_nanos);
  w.Key("outcome").String(outcome);
  w.EndObject();
  return w.Take();
}

ScalingPolicyEngine::ScalingPolicyEngine(const Options& options,
                                         observability::MetricsCache* cache,
                                         statemgr::IStateManager* state,
                                         const Clock* clock)
    : options_(options), cache_(cache), state_(state), clock_(clock) {}

void ScalingPolicyEngine::SetExecute(ExecuteFn execute) {
  std::lock_guard<std::mutex> lock(mutex_);
  execute_ = std::move(execute);
}

void ScalingPolicyEngine::SetScalableComponents(
    std::vector<ComponentId> components,
    std::map<TaskId, ComponentId> task_component) {
  std::lock_guard<std::mutex> lock(mutex_);
  scalable_ = std::move(components);
  task_component_ = std::move(task_component);
}

ScalingPolicyEngine::Verdict ScalingPolicyEngine::JudgeWindowLocked(
    const observability::ComponentRollup& topo) {
  Verdict v;

  // Backpressure: time under cluster-wide throttling as a fraction of the
  // window, from the rollup's duration deltas; a live marker under
  // /backpressure counts as a full-window episode (the duration counter
  // only grows when an episode *ends*, so an initiator stuck mid-episode
  // would otherwise look healthy).
  if (options_.backpressure_ratio > 0) {
    const double ratio =
        topo.backpressure_ms / (topo.window_covered_sec * 1000.0);
    bool live_marker = false;
    const auto markers =
        state_->ListChildren(statemgr::paths::Backpressure(options_.topology));
    if (markers.ok() && !markers->empty()) live_marker = true;
    if (ratio >= options_.backpressure_ratio || live_marker) {
      v.hot = true;
      v.reason = "backpressure";
      return v;
    }
  }

  // Skew: within one component, the busiest task outruns the mean by more
  // than the threshold — one straggler instance, the classic repack cue.
  if (options_.skew_threshold > 0) {
    std::map<ComponentId, std::pair<double, std::pair<double, int>>> per_comp;
    for (const auto& [task, delta] : cache_->PerTaskProcessedDelta()) {
      const auto it = task_component_.find(task);
      if (it == task_component_.end()) continue;
      auto& [max, sum_count] = per_comp[it->second];
      max = std::max(max, delta);
      sum_count.first += delta;
      ++sum_count.second;
    }
    for (const ComponentId& comp : scalable_) {
      const auto it = per_comp.find(comp);
      if (it == per_comp.end()) continue;
      const auto& [max, sum_count] = it->second;
      if (sum_count.second < 2 || sum_count.first <= 0) continue;
      const double mean = sum_count.first / sum_count.second;
      if (max / mean >= options_.skew_threshold) {
        v.hot = true;
        v.reason = "skew";
        v.skewed = comp;
        return v;
      }
    }
  }
  return v;
}

ComponentId ScalingPolicyEngine::PickTargetLocked(
    const std::vector<observability::ComponentRollup>& rollups,
    const ComponentId& skewed, int* current_parallelism) const {
  const auto parallelism_of = [&rollups](const ComponentId& comp) {
    for (const auto& r : rollups) {
      if (r.component == comp) return r.tasks;
    }
    return 0;
  };
  if (!skewed.empty() &&
      std::find(scalable_.begin(), scalable_.end(), skewed) !=
          scalable_.end()) {
    *current_parallelism = parallelism_of(skewed);
    return skewed;
  }
  // The busiest scalable component by processed delta is the likeliest
  // bottleneck: backpressure throttles the spouts, so whatever is doing
  // the most work per window is the stage that cannot keep up.
  ComponentId best;
  double best_delta = -1;
  for (const ComponentId& comp : scalable_) {
    for (const auto& r : rollups) {
      if (r.component == comp && r.processed_delta > best_delta) {
        best_delta = r.processed_delta;
        best = comp;
      }
    }
  }
  *current_parallelism = best.empty() ? 0 : parallelism_of(best);
  return best;
}

Status ScalingPolicyEngine::PublishLocked(const Decision& decision) {
  HERON_RETURN_NOT_OK(statemgr::EnsurePath(
      state_, statemgr::paths::Scaling(options_.topology),
      StrFormat("%llu", static_cast<unsigned long long>(decision.seq))));
  return statemgr::EnsurePath(
      state_,
      statemgr::paths::ScalingDecision(options_.topology, decision.seq),
      decision.ToJson());
}

bool ScalingPolicyEngine::Tick() {
  ExecuteFn execute;
  Decision decision;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!options_.enabled || execute_ == nullptr) return false;
    const observability::ComponentRollup topo = cache_->TopologyRollup();
    if (topo.window_covered_sec <= 0) return false;
    // Judge each window exactly once — the monitor ticks much faster than
    // the cache windows roll, and hysteresis counts *windows*, not ticks.
    if (topo.window_start_nanos == last_window_nanos_) return false;
    last_window_nanos_ = topo.window_start_nanos;

    const int64_t now = clock_->NowNanos();
    if (last_action_nanos_ != 0 &&
        now - last_action_nanos_ < options_.cooldown_ms * 1000000) {
      // Cooldown: the restart storm of the previous repack pollutes these
      // windows, so they count toward nothing.
      hot_streak_ = 0;
      return false;
    }

    const std::vector<observability::ComponentRollup> rollups =
        cache_->ComponentRollups();
    const Verdict verdict = JudgeWindowLocked(topo);
    if (!verdict.hot) {
      hot_streak_ = 0;
      return false;
    }
    ++hot_streak_;
    HLOG(INFO) << "scaling engine: hot window (" << verdict.reason
               << "), streak " << hot_streak_ << "/" << options_.hot_windows;
    if (hot_streak_ < options_.hot_windows) return false;

    int from = 0;
    const ComponentId target =
        PickTargetLocked(rollups, verdict.skewed, &from);
    if (target.empty() || from <= 0) return false;
    const int to = std::min(
        options_.max_parallelism,
        std::max(from + 1,
                 static_cast<int>(std::ceil(from * options_.factor))));
    if (to <= from) {
      // At the ceiling: back off for a cooldown rather than re-deciding
      // the same dead end every window.
      hot_streak_ = 0;
      last_action_nanos_ = now;
      return false;
    }

    decision.seq = next_seq_++;
    decision.component = target;
    decision.from = from;
    decision.to = to;
    decision.reason = verdict.reason;
    decision.decided_at_nanos = now;
    execute = execute_;
    hot_streak_ = 0;
    last_action_nanos_ = now;
  }

  // Execute with no lock held: the rollout re-enters the cluster (plan
  // install → SetScalableComponents) and takes its own locks.
  HLOG(WARNING) << "scaling engine: scaling '" << decision.component
                << "' " << decision.from << " -> " << decision.to << " ("
                << decision.reason << ")";
  const Status st = execute(decision.component, decision.to);
  decision.outcome = st.ok() ? "applied" : st.ToString();
  if (!st.ok()) {
    HLOG(ERROR) << "scaling decision " << decision.seq
                << " failed: " << st.ToString();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PublishLocked(decision).ok();
    history_.push_back(decision);
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(
        observability::JournalEventType::kScalingDecision,
        /*origin=*/-1, /*task=*/-1, decision.decided_at_nanos,
        /*arg0=*/decision.from, /*arg1=*/decision.to,
        decision.component.c_str());
  }
  return true;
}

uint64_t ScalingPolicyEngine::decisions_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_.size();
}

int ScalingPolicyEngine::hot_streak() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hot_streak_;
}

std::vector<ScalingPolicyEngine::Decision> ScalingPolicyEngine::history()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_;
}

}  // namespace tmaster
}  // namespace heron
