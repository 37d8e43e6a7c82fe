#include "metrics/metrics_manager.h"

#include "common/strings.h"

namespace heron {
namespace metrics {

Status MetricsManager::RegisterSource(const std::string& source,
                                      MetricsRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("null metrics registry");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sources_.emplace(source, registry).second) {
    return Status::AlreadyExists(
        StrFormat("metrics source '%s' already registered", source.c_str()));
  }
  return Status::OK();
}

Status MetricsManager::RemoveSource(const std::string& source) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sources_.erase(source) == 0) {
    return Status::NotFound(
        StrFormat("metrics source '%s' not registered", source.c_str()));
  }
  return Status::OK();
}

void MetricsManager::AddSink(std::shared_ptr<IMetricsSink> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(std::move(sink));
}

void MetricsManager::AddCollectListener(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(std::move(listener));
}

void MetricsManager::Collect() {
  std::map<std::string, MetricsRegistry*> sources;
  std::vector<std::shared_ptr<IMetricsSink>> sinks;
  std::vector<std::function<void()>> listeners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!sinks_.empty()) sources = sources_;  // No sink → skip snapshots.
    sinks = sinks_;
    listeners = listeners_;
  }
  const int64_t now = clock_->NowNanos();
  for (const auto& [source, registry] : sources) {
    const auto samples = registry->Snapshot();
    for (const auto& sink : sinks) {
      sink->Flush(source, samples, now);
    }
  }
  for (const auto& listener : listeners) listener();
}

std::vector<std::string> MetricsManager::Sources() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, _] : sources_) names.push_back(name);
  return names;
}

}  // namespace metrics
}  // namespace heron
