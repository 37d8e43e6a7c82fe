#ifndef HERON_FRAMEWORKS_SIM_FRAMEWORK_H_
#define HERON_FRAMEWORKS_SIM_FRAMEWORK_H_

#include <map>
#include <mutex>
#include <string_view>

#include "frameworks/framework.h"

namespace heron {
namespace frameworks {

/// \brief The four simulated scheduling frameworks. They share every
/// mechanism and differ only in the §IV-B capability bits plus Slurm's
/// fixed-size allocations:
///
///   kind       heterogeneous  auto-restart  grows
///   kYarn      yes            no            yes
///   kAurora    no             yes           yes
///   kMarathon  no             yes           yes
///   kSlurm     yes            no            no
///
///  - YARN: "YARN can allocate heterogeneous containers", but a failed
///    container stays failed until the client restarts it, so the Heron
///    Scheduler is *stateful* ("the Heron Scheduler monitors the state of
///    the containers ... When a container failure is detected, the
///    Scheduler invokes the appropriate commands to restart the
///    container").
///  - Aurora: "Aurora can only allocate homogeneous containers for a
///    given packing plan", and "in case of a container failure, Aurora
///    invokes the appropriate command to restart the container", so the
///    Heron Scheduler is *stateless*.
///  - Marathon (Mesos' long-running-app layer) and Slurm are the §IV-B
///    roadmap integrations ("various other frameworks such as Mesos, Slurm
///    and Marathon"). A Marathon app runs N identical instances and
///    relaunches failed ones; a Slurm job is gang-admitted, may mix step
///    sizes, is not requeued on failure, and cannot grow after submission
///    (the client must resubmit, which Heron surfaces as a topology
///    restart).
enum class FrameworkKind : uint8_t {
  kYarn = 0,
  kAurora = 1,
  kMarathon = 2,
  kSlurm = 3,
};

/// Maps a `heron.scheduler.kind` value ("yarn" | "aurora" | "marathon" |
/// "slurm") onto its kind; anything else is InvalidArgument.
Result<FrameworkKind> ParseFrameworkKind(std::string_view name);

/// \brief A scheduling framework simulated on a SimCluster: job table,
/// all-or-nothing allocation, start/stop command invocation, failure
/// injection and event delivery, with admission and recovery following
/// its FrameworkKind.
class SimFramework final : public ISchedulingFramework {
 public:
  SimFramework(FrameworkKind kind, SimCluster* cluster);

  std::string Name() const override;
  std::string Url() const override;
  bool SupportsHeterogeneousContainers() const override;
  bool AutoRestartsFailedContainers() const override;

  Result<JobId> SubmitJob(const JobSpec& spec) override;
  Status KillJob(const JobId& job) override;
  Result<std::vector<ContainerStatus>> JobStatus(
      const JobId& job) const override;
  Status RestartContainer(const JobId& job, int index) override;
  Result<std::vector<int>> AddContainers(
      const JobId& job, const std::vector<Resource>& demands,
      const std::function<void(const std::vector<int>&)>& on_registered =
          nullptr) override;
  Status RemoveContainer(const JobId& job, int index) override;
  void SetEventCallback(FrameworkEventCallback callback) override;
  Status InjectContainerFailure(const JobId& job, int index) override;

 private:
  struct Container {
    Resource demand;
    ContainerStatus status;
  };
  struct Job {
    JobSpec spec;
    std::map<int, Container> containers;  ///< index → container.
    int next_index = 0;
  };

  /// Homogeneous-only frameworks reject any demand differing from
  /// `reference`; heterogeneous ones accept everything.
  Status CheckAdmission(const Resource& reference,
                        const std::vector<Resource>& demands) const;
  /// Allocates + starts one container slot. Caller holds no lock.
  Status StartContainerSlot(const JobId& job, int index);
  /// Stops + releases one container slot. Caller holds no lock.
  Status StopContainerSlot(const JobId& job, int index,
                           ContainerState final_state);
  void EmitEvent(const JobId& job, const ContainerStatus& status);

  const FrameworkKind kind_;
  SimCluster* cluster_;
  mutable std::mutex mutex_;
  std::map<JobId, Job> jobs_;
  FrameworkEventCallback callback_;
  uint64_t next_job_ = 1;
};

}  // namespace frameworks
}  // namespace heron

#endif  // HERON_FRAMEWORKS_SIM_FRAMEWORK_H_
