#include "observability/journal.h"

#include <cstring>

namespace heron {
namespace observability {

const char* JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kBackpressureStart:
      return "backpressure_start";
    case JournalEventType::kBackpressureStop:
      return "backpressure_stop";
    case JournalEventType::kRemoteThrottleOn:
      return "remote_throttle_on";
    case JournalEventType::kRemoteThrottleOff:
      return "remote_throttle_off";
    case JournalEventType::kCheckpointTriggered:
      return "checkpoint_triggered";
    case JournalEventType::kCheckpointComplete:
      return "checkpoint_complete";
    case JournalEventType::kCheckpointAborted:
      return "checkpoint_aborted";
    case JournalEventType::kCheckpointRestore:
      return "checkpoint_restore";
    case JournalEventType::kScalingDecision:
      return "scaling_decision";
    case JournalEventType::kContainerStart:
      return "container_start";
    case JournalEventType::kContainerDead:
      return "container_dead";
    case JournalEventType::kContainerRestored:
      return "container_restored";
    case JournalEventType::kPlanSwap:
      return "plan_swap";
  }
  return "unknown";
}

void JournalEvent::Pack(std::array<uint64_t, kWords>& words,
                        JournalEventType type, int32_t origin, int32_t task,
                        int64_t at_nanos, int64_t arg0, int64_t arg1,
                        const char* detail) {
  words[0] = static_cast<uint8_t>(type);
  words[1] = static_cast<uint32_t>(origin) |
             uint64_t{static_cast<uint32_t>(task)} << 32;
  words[2] = static_cast<uint64_t>(at_nanos);
  words[3] = static_cast<uint64_t>(arg0);
  words[4] = static_cast<uint64_t>(arg1);
  static_assert(kJournalDetailBytes == 2 * sizeof(uint64_t));
  char buf[kJournalDetailBytes] = {0};
  if (detail != nullptr) {
    std::memcpy(buf, detail, strnlen(detail, kJournalDetailBytes));
  }
  std::memcpy(&words[5], buf, sizeof(buf));
}

JournalEvent JournalEvent::Unpack(const std::array<uint64_t, kWords>& words,
                                  uint64_t seq) {
  JournalEvent e;
  e.seq = seq;
  e.type = static_cast<JournalEventType>(words[0]);
  e.origin = static_cast<int32_t>(static_cast<uint32_t>(words[1]));
  e.task = static_cast<int32_t>(static_cast<uint32_t>(words[1] >> 32));
  e.at_nanos = static_cast<int64_t>(words[2]);
  e.arg0 = static_cast<int64_t>(words[3]);
  e.arg1 = static_cast<int64_t>(words[4]);
  char buf[kJournalDetailBytes];
  std::memcpy(buf, &words[5], sizeof(buf));
  e.detail.assign(buf, strnlen(buf, sizeof(buf)));
  return e;
}

}  // namespace observability
}  // namespace heron
