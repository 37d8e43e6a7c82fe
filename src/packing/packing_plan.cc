#include "packing/packing_plan.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace heron {
namespace packing {

namespace {
// Wire field numbers.
constexpr uint32_t kFieldTopologyName = 1;
constexpr uint32_t kFieldContainer = 2;
// ContainerPlan fields.
constexpr uint32_t kFieldContainerId = 1;
constexpr uint32_t kFieldInstance = 2;
constexpr uint32_t kFieldCpuMilli = 3;
constexpr uint32_t kFieldRamMb = 4;
constexpr uint32_t kFieldDiskMb = 5;
// InstancePlan fields.
constexpr uint32_t kFieldTaskId = 1;
constexpr uint32_t kFieldComponent = 2;
constexpr uint32_t kFieldComponentIndex = 3;
constexpr uint32_t kFieldInstCpuMilli = 4;
constexpr uint32_t kFieldInstRamMb = 5;
constexpr uint32_t kFieldInstDiskMb = 6;

/// Largest CPU demand a plan may carry, in milli-cores (~1.1e12 cores). Up
/// to it, MilliToCpu then CpuToMilli gives back the same milli exactly, so
/// a decoded plan re-serializes to the demand it was read with; past 2^51
/// the conversion starts rounding, and past the int64 range CpuToMilli's
/// cast is undefined.
constexpr int64_t kMaxCpuMilli = int64_t{1} << 50;

int64_t CpuToMilli(double cpu) { return static_cast<int64_t>(cpu * 1000.0 + 0.5); }
double MilliToCpu(int64_t milli) { return static_cast<double>(milli) / 1000.0; }

/// Reads a CPU demand field; a negative or oversized one is corrupt.
Result<double> ReadCpu(serde::WireDecoder* dec) {
  HERON_ASSIGN_OR_RETURN(int64_t milli, dec->ReadInt64());
  if (milli < 0 || milli > kMaxCpuMilli) {
    return Status::IOError(StrFormat("cpu demand of %lld milli-cores",
                                     static_cast<long long>(milli)));
  }
  return MilliToCpu(milli);
}

void SerializeInstance(const InstancePlan& inst, serde::WireEncoder* enc) {
  enc->WriteInt32Field(kFieldTaskId, inst.task_id);
  enc->WriteStringField(kFieldComponent, inst.component);
  enc->WriteInt32Field(kFieldComponentIndex, inst.component_index);
  enc->WriteInt64Field(kFieldInstCpuMilli, CpuToMilli(inst.resources.cpu));
  enc->WriteInt64Field(kFieldInstRamMb, inst.resources.ram_mb);
  enc->WriteInt64Field(kFieldInstDiskMb, inst.resources.disk_mb);
}

Status ParseInstance(serde::BytesView bytes, InstancePlan* inst) {
  serde::WireDecoder dec(bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kFieldTaskId: {
        HERON_ASSIGN_OR_RETURN(inst->task_id, dec.ReadInt32());
        break;
      }
      case kFieldComponent: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec.ReadBytes());
        inst->component = std::string(v);
        break;
      }
      case kFieldComponentIndex: {
        HERON_ASSIGN_OR_RETURN(inst->component_index, dec.ReadInt32());
        break;
      }
      case kFieldInstCpuMilli: {
        HERON_ASSIGN_OR_RETURN(inst->resources.cpu, ReadCpu(&dec));
        break;
      }
      case kFieldInstRamMb: {
        HERON_ASSIGN_OR_RETURN(inst->resources.ram_mb, dec.ReadInt64());
        break;
      }
      case kFieldInstDiskMb: {
        HERON_ASSIGN_OR_RETURN(inst->resources.disk_mb, dec.ReadInt64());
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void SerializeContainer(const ContainerPlan& c, serde::WireEncoder* enc) {
  enc->WriteInt32Field(kFieldContainerId, c.id);
  // Plans are written only to the State Manager: each nested instance is
  // serialized into a scratch buffer, then written as one bytes field.
  serde::Buffer scratch;
  for (const auto& inst : c.instances) {
    scratch.clear();
    serde::WireEncoder inner(&scratch);
    SerializeInstance(inst, &inner);
    enc->WriteBytesField(kFieldInstance, scratch);
  }
  enc->WriteInt64Field(kFieldCpuMilli, CpuToMilli(c.required.cpu));
  enc->WriteInt64Field(kFieldRamMb, c.required.ram_mb);
  enc->WriteInt64Field(kFieldDiskMb, c.required.disk_mb);
}

Status ParseContainer(serde::BytesView bytes, ContainerPlan* c) {
  serde::WireDecoder dec(bytes);
  while (!dec.AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec.ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kFieldContainerId: {
        HERON_ASSIGN_OR_RETURN(c->id, dec.ReadInt32());
        break;
      }
      case kFieldInstance: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec.ReadBytes());
        InstancePlan inst;
        HERON_RETURN_NOT_OK(ParseInstance(v, &inst));
        c->instances.push_back(std::move(inst));
        break;
      }
      case kFieldCpuMilli: {
        HERON_ASSIGN_OR_RETURN(c->required.cpu, ReadCpu(&dec));
        break;
      }
      case kFieldRamMb: {
        HERON_ASSIGN_OR_RETURN(c->required.ram_mb, dec.ReadInt64());
        break;
      }
      case kFieldDiskMb: {
        HERON_ASSIGN_OR_RETURN(c->required.disk_mb, dec.ReadInt64());
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec.SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

}  // namespace

int PackingPlan::NumInstances() const {
  int total = 0;
  for (const auto& c : containers_) {
    total += static_cast<int>(c.instances.size());
  }
  return total;
}

const ContainerPlan* PackingPlan::FindContainerOfTask(TaskId task) const {
  for (const auto& c : containers_) {
    for (const auto& inst : c.instances) {
      if (inst.task_id == task) return &c;
    }
  }
  return nullptr;
}

const ContainerPlan* PackingPlan::FindContainer(ContainerId id) const {
  for (const auto& c : containers_) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

std::vector<TaskId> PackingPlan::TasksOfComponent(
    const ComponentId& component) const {
  std::vector<TaskId> tasks;
  for (const auto& c : containers_) {
    for (const auto& inst : c.instances) {
      if (inst.component == component) tasks.push_back(inst.task_id);
    }
  }
  std::sort(tasks.begin(), tasks.end());
  return tasks;
}

std::map<ComponentId, int> PackingPlan::ComponentParallelism() const {
  std::map<ComponentId, int> parallelism;
  for (const auto& c : containers_) {
    for (const auto& inst : c.instances) {
      ++parallelism[inst.component];
    }
  }
  return parallelism;
}

Resource PackingPlan::MaxContainerResource() const {
  Resource max;
  for (const auto& c : containers_) {
    max = Resource::Max(max, c.required);
  }
  return max;
}

Status PackingPlan::Validate(bool require_dense_task_ids) const {
  std::set<TaskId> task_ids;
  std::set<ContainerId> container_ids;
  std::map<ComponentId, std::set<int>> indices;
  for (const auto& c : containers_) {
    if (c.id < 0) {
      return Status::Internal(
          StrFormat("container id %d is negative", c.id));
    }
    if (!container_ids.insert(c.id).second) {
      return Status::Internal(StrFormat("duplicate container id %d", c.id));
    }
    if (c.instances.empty()) {
      return Status::Internal(StrFormat("container %d is empty", c.id));
    }
    if (!c.required.Fits(c.InstanceTotal())) {
      return Status::Internal(StrFormat(
          "container %d requirement %s below instance demand %s", c.id,
          c.required.ToString().c_str(), c.InstanceTotal().ToString().c_str()));
    }
    for (const auto& inst : c.instances) {
      if (!task_ids.insert(inst.task_id).second) {
        return Status::Internal(
            StrFormat("task %d placed twice", inst.task_id));
      }
      if (!indices[inst.component].insert(inst.component_index).second) {
        return Status::Internal(
            StrFormat("component '%s' index %d placed twice",
                      inst.component.c_str(), inst.component_index));
      }
    }
  }
  if (require_dense_task_ids) {
    int expected = 0;
    for (const TaskId id : task_ids) {
      if (id != expected++) {
        return Status::Internal("task ids are not dense from 0");
      }
    }
  }
  // Component indices dense from 0.
  for (const auto& [comp, idx_set] : indices) {
    int want = 0;
    for (const int idx : idx_set) {
      if (idx != want++) {
        return Status::Internal(StrFormat(
            "component '%s' indices are not dense from 0", comp.c_str()));
      }
    }
  }
  return Status::OK();
}

void PackingPlan::SerializeTo(serde::WireEncoder* enc) const {
  enc->WriteStringField(kFieldTopologyName, topology_name_);
  serde::Buffer scratch;
  for (const auto& c : containers_) {
    scratch.clear();
    serde::WireEncoder inner(&scratch);
    SerializeContainer(c, &inner);
    enc->WriteBytesField(kFieldContainer, scratch);
  }
}

Status PackingPlan::ParseFrom(serde::WireDecoder* dec) {
  while (!dec->AtEnd()) {
    HERON_ASSIGN_OR_RETURN(uint32_t tag, dec->ReadTag());
    if (tag == 0) break;
    switch (serde::TagFieldNumber(tag)) {
      case kFieldTopologyName: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        topology_name_ = std::string(v);
        break;
      }
      case kFieldContainer: {
        HERON_ASSIGN_OR_RETURN(serde::BytesView v, dec->ReadBytes());
        ContainerPlan c;
        HERON_RETURN_NOT_OK(ParseContainer(v, &c));
        containers_.push_back(std::move(c));
        break;
      }
      default:
        HERON_RETURN_NOT_OK(dec->SkipField(serde::TagWireType(tag)));
    }
  }
  return Status::OK();
}

void PackingPlan::Clear() {
  topology_name_.clear();
  containers_.clear();
}

bool PackingPlan::operator==(const PackingPlan& o) const {
  if (topology_name_ != o.topology_name_ ||
      containers_.size() != o.containers_.size()) {
    return false;
  }
  for (size_t i = 0; i < containers_.size(); ++i) {
    const ContainerPlan& a = containers_[i];
    const ContainerPlan& b = o.containers_[i];
    if (a.id != b.id || !(a.required == b.required) ||
        a.instances != b.instances) {
      return false;
    }
  }
  return true;
}

Resource ContainerOverhead() { return Resource(1.0, 512, 0); }

}  // namespace packing
}  // namespace heron
