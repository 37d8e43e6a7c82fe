#include "ipc/fabric.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serde/message_pool.h"

namespace heron {
namespace ipc {
namespace {

/// Test sink: records delivered frames; refuses with kResourceExhausted
/// while `full` is set (leaving the payload intact, per the contract).
struct RecordingSink {
  struct Delivery {
    serde::FrameHeader header;
    serde::Buffer payload;
  };
  std::vector<Delivery> deliveries;
  bool full = false;

  FrameSink AsSink() {
    return [this](const serde::FrameHeader& header, serde::Buffer&& payload) {
      if (full) return Status::ResourceExhausted("sink full");
      deliveries.push_back({header, std::move(payload)});
      return Status::OK();
    };
  }
};

serde::FrameHeader MakeHeader(uint8_t type, const serde::Buffer& payload,
                              uint64_t trace_id = 0) {
  serde::FrameHeader h;
  h.type = type;
  h.payload_len = static_cast<uint32_t>(payload.size());
  h.trace_id = trace_id;
  return h;
}

class FabricModesTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Fabric> Make(size_t link_capacity = 1u << 16) {
    Fabric::Options options;
    options.link_capacity_bytes = link_capacity;
    options.pool = &pool_;
    auto made = MakeFabric(GetParam(), options);
    EXPECT_TRUE(made.ok());
    return std::move(*made);
  }

  serde::BufferPool pool_;
};

TEST_P(FabricModesTest, FramesArriveInFifoOrderWithExactBytes) {
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  for (int i = 0; i < 50; ++i) {
    serde::Buffer payload(static_cast<size_t>(i * 7 + 1),
                          static_cast<char>('a' + i % 26));
    auto header = MakeHeader(static_cast<uint8_t>(i % 7 + 1), payload,
                             static_cast<uint64_t>(i) << 32);
    ASSERT_TRUE(fabric->SendFrame(1, header, &payload).ok());
  }
  fabric->Pump();
  ASSERT_EQ(sink.deliveries.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const auto& d = sink.deliveries[static_cast<size_t>(i)];
    EXPECT_EQ(d.header.type, static_cast<uint8_t>(i % 7 + 1));
    EXPECT_EQ(d.header.trace_id, static_cast<uint64_t>(i) << 32);
    EXPECT_EQ(d.payload,
              serde::Buffer(static_cast<size_t>(i * 7 + 1),
                            static_cast<char>('a' + i % 26)));
  }
  const FabricStats stats = fabric->stats();
  EXPECT_EQ(stats.frames_sent, 50u);
  EXPECT_EQ(stats.frames_delivered, 50u);
}

TEST_P(FabricModesTest, UnknownLinkIsNotFound) {
  auto fabric = Make();
  serde::Buffer payload = "orphan";
  EXPECT_TRUE(
      fabric->SendFrame(42, MakeHeader(1, payload), &payload).IsNotFound());
  // Failed send leaves the payload intact for the caller to retry.
  EXPECT_EQ(payload, "orphan");
}

TEST_P(FabricModesTest, DoubleOpenAndMissingCloseAreErrors) {
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  EXPECT_TRUE(fabric->OpenLink(1, sink.AsSink()).IsAlreadyExists());
  EXPECT_TRUE(fabric->CloseLink(9).IsNotFound());
  EXPECT_TRUE(fabric->CloseLink(1).ok());
  EXPECT_TRUE(fabric->CloseLink(1).IsNotFound());
}

TEST_P(FabricModesTest, SinkStallRetainsFrameUntilReceiverFrees) {
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  sink.full = true;
  serde::Buffer payload = "stalled-frame";
  const Status st = fabric->SendFrame(1, MakeHeader(3, payload), &payload);
  if (std::string(GetParam()) == "in-process") {
    // Synchronous delivery: the stall surfaces to the sender directly,
    // with the payload intact for its park/retry queue.
    EXPECT_TRUE(st.IsResourceExhausted());
    EXPECT_EQ(payload, "stalled-frame");
    EXPECT_GE(fabric->stats().sink_stalls, 1u);
    return;
  }
  // Wire fabrics accept the frame (it is on the wire), retain it at the
  // receive side across stalled pumps, and redeliver exactly once.
  ASSERT_TRUE(st.ok());
  fabric->Pump();
  fabric->Pump();
  EXPECT_TRUE(sink.deliveries.empty());
  sink.full = false;
  fabric->Pump();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].payload, "stalled-frame");
  EXPECT_EQ(sink.deliveries[0].header.type, 3u);
  EXPECT_GE(fabric->stats().sink_stalls, 1u);
}

TEST_P(FabricModesTest, StalledFrameKeepsFifoOrder) {
  if (std::string(GetParam()) == "in-process") GTEST_SKIP();
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  serde::Buffer first = "first";
  serde::Buffer second = "second";
  ASSERT_TRUE(fabric->SendFrame(1, MakeHeader(1, first), &first).ok());
  sink.full = true;
  fabric->Pump();  // Reads "first", sink refuses, frame retained.
  ASSERT_TRUE(fabric->SendFrame(1, MakeHeader(2, second), &second).ok());
  sink.full = false;
  fabric->Pump();
  ASSERT_EQ(sink.deliveries.size(), 2u);
  EXPECT_EQ(sink.deliveries[0].payload, "first");
  EXPECT_EQ(sink.deliveries[1].payload, "second");
}

TEST_P(FabricModesTest, WireBacklogCapSurfacesAsResourceExhausted) {
  if (std::string(GetParam()) == "in-process") GTEST_SKIP();
  // A tiny link and a sink that never accepts: unread frames accumulate on
  // the wire until the fabric's own backpressure trips.
  auto fabric = Make(/*link_capacity=*/4096);
  RecordingSink sink;
  sink.full = true;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  bool saw_exhausted = false;
  for (int i = 0; i < 20000 && !saw_exhausted; ++i) {
    serde::Buffer payload(512, 'x');
    const Status st = fabric->SendFrame(1, MakeHeader(1, payload), &payload);
    if (st.IsResourceExhausted()) {
      saw_exhausted = true;
      EXPECT_EQ(payload, serde::Buffer(512, 'x'));  // Intact for retry.
    } else {
      // Deliberately never pumped: unread frames must eventually push
      // back on the sender (kernel socket buffer + spill cap, or ring
      // fill), not accumulate without bound.
      ASSERT_TRUE(st.ok());
    }
  }
  EXPECT_TRUE(saw_exhausted);
}

TEST_P(FabricModesTest, CloseLinkDrainsDeliverableFrames) {
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  serde::Buffer payload = "last-words";
  ASSERT_TRUE(fabric->SendFrame(1, MakeHeader(1, payload), &payload).ok());
  // No pump before close: the close itself must flush what is readable.
  ASSERT_TRUE(fabric->CloseLink(1).ok());
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].payload, "last-words");
}

TEST_P(FabricModesTest, EmptyPayloadFramesWork) {
  auto fabric = Make();
  RecordingSink sink;
  ASSERT_TRUE(fabric->OpenLink(1, sink.AsSink()).ok());
  serde::Buffer empty;
  ASSERT_TRUE(
      fabric->SendFrame(1, MakeHeader(6, empty, 77), &empty).ok());
  fabric->Pump();
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_TRUE(sink.deliveries[0].payload.empty());
  EXPECT_EQ(sink.deliveries[0].header.trace_id, 77u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, FabricModesTest,
                         ::testing::Values("in-process", "socket", "shm"));

TEST(FabricTest, MakeFabricRejectsUnknownMode) {
  Fabric::Options options;
  EXPECT_FALSE(MakeFabric("carrier-pigeon", options).ok());
}

TEST(FabricTest, SocketUsesScatterGatherWrites) {
  Fabric::Options options;
  SocketFabric fabric(options);
  RecordingSink sink;
  ASSERT_TRUE(fabric.OpenLink(1, sink.AsSink()).ok());
  serde::Buffer payload = "gathered";
  ASSERT_TRUE(fabric.SendFrame(1, MakeHeader(1, payload), &payload).ok());
  // Header + payload left in one writev: the zero-extra-copy flush.
  EXPECT_EQ(fabric.stats().gather_writes, 1u);
  EXPECT_EQ(fabric.stats().bytes_on_wire,
            serde::kFrameHeaderBytes + std::string("gathered").size());
}

TEST(FabricTest, ShmRejectsFrameLargerThanRing) {
  Fabric::Options options;
  options.link_capacity_bytes = 4096;
  ShmRingFabric fabric(options);
  RecordingSink sink;
  ASSERT_TRUE(fabric.OpenLink(1, sink.AsSink()).ok());
  serde::Buffer payload(8192, 'x');
  EXPECT_TRUE(fabric.SendFrame(1, MakeHeader(1, payload), &payload)
                  .IsInvalidArgument());
}

TEST(FabricTest, ShmRingWrapAroundPreservesBytes) {
  // Force many wraps through a small ring and verify every payload.
  Fabric::Options options;
  options.link_capacity_bytes = 1024;
  ShmRingFabric fabric(options);
  RecordingSink sink;
  ASSERT_TRUE(fabric.OpenLink(1, sink.AsSink()).ok());
  for (int i = 0; i < 200; ++i) {
    serde::Buffer payload(static_cast<size_t>(i % 97 + 1),
                          static_cast<char>('0' + i % 10));
    ASSERT_TRUE(fabric.SendFrame(1, MakeHeader(1, payload), &payload).ok());
    fabric.Pump();
  }
  ASSERT_EQ(sink.deliveries.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sink.deliveries[static_cast<size_t>(i)].payload,
              serde::Buffer(static_cast<size_t>(i % 97 + 1),
                            static_cast<char>('0' + i % 10)));
  }
}

TEST(FabricTest, BackgroundPumpDeliversWithoutManualPumping) {
  SocketFabric fabric(Fabric::Options{});
  RecordingSink sink;
  ASSERT_TRUE(fabric.OpenLink(1, sink.AsSink()).ok());
  fabric.StartPump();
  serde::Buffer payload = "threaded";
  ASSERT_TRUE(fabric.SendFrame(1, MakeHeader(1, payload), &payload).ok());
  for (int spin = 0; spin < 2000 && fabric.stats().frames_delivered == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fabric.StopPump();
  EXPECT_EQ(fabric.stats().frames_delivered, 1u);
}

}  // namespace
}  // namespace ipc
}  // namespace heron
