#include "replays.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "api/tuple.h"
#include "inputs.h"
#include "ipc/fabric.h"
#include "proto/messages.h"
#include "serde/message_pool.h"
#include "smgr/ack_tracker.h"
#include "smgr/tuple_cache.h"
#include "topologies.h"

namespace perfbench {

using heron::Status;
using heron::proto::TupleBatchMsg;
using heron::proto::TupleDataMsg;
using heron::serde::Buffer;

namespace {

constexpr int kPasses = 7;

void Require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("replay failed: ") + what);
}

/// Median over passes of (pass wall time / ops), in ns per op.
double MedianNsPerOp(uint64_t ops, const std::function<void()>& pass) {
  std::vector<double> per_op;
  for (int i = 0; i < kPasses; ++i) {
    const int64_t t0 = NowNanos();
    pass();
    per_op.push_back(static_cast<double>(NowNanos() - t0) /
                     static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

}  // namespace

std::vector<Metric> RunReplays(const ReplaySpec& spec) {
  std::vector<Metric> out;
  SplitMix64 rng(0x5eed);
  const size_t n = spec.tuples.size();
  Require(n > 0, "no tuples");

  std::vector<TupleDataMsg> msgs(n);
  for (size_t i = 0; i < n; ++i) {
    msgs[i].tuple_key = rng.Next();
    if (spec.acking) msgs[i].roots.push_back(msgs[i].tuple_key);
    msgs[i].emit_time_nanos = static_cast<int64_t>(i);
    msgs[i].values = spec.tuples[i];
  }
  std::vector<Buffer> encoded(n);
  uint64_t sink = 0;

  out.push_back({"serde.encode_ns_per_tuple", MedianNsPerOp(n, [&] {
                   for (size_t i = 0; i < n; ++i) {
                     encoded[i] = msgs[i].SerializeAsBuffer();
                   }
                 }),
                 "ns"});
  out.push_back({"serde.decode_ns_per_tuple", MedianNsPerOp(n, [&] {
                   TupleDataMsg msg;
                   heron::api::Tuple tuple;
                   for (const Buffer& b : encoded) {
                     Require(msg.ParseFromBytes(b).ok(), "decode");
                     msg.ToTuple("spout", "default", 1, &tuple);
                     sink += tuple.size();
                   }
                 }),
                 "ns"});

  // Unrouted batches exactly as an instance ships them to its SMGR.
  std::vector<Buffer> batches;
  for (size_t i = 0; i < n; i += spec.batch_tuples) {
    TupleBatchMsg batch;
    batch.src_task = 1;
    batch.dest_task = 2;
    batch.src_component = "spout";
    for (size_t j = i; j < std::min(n, i + spec.batch_tuples); ++j) {
      batch.tuples.push_back(encoded[j]);
    }
    batches.push_back(batch.SerializeAsBuffer());
  }

  const std::vector<int> key_field = {0};
  out.push_back({"smgr.route_ns_per_tuple", MedianNsPerOp(n, [&] {
                   heron::proto::TupleBatchView view;
                   heron::api::TupleKey key = 0;
                   std::vector<heron::api::TupleKey> roots;
                   for (const Buffer& b : batches) {
                     Require(heron::proto::ParseTupleBatchView(b, &view).ok(),
                             "batch view");
                     for (const auto& t : view.tuples) {
                       if (spec.fields_grouping) {
                         auto h = heron::proto::PeekFieldsHash(t, key_field);
                         Require(h.ok(), "fields hash");
                         sink += *h;
                       }
                       if (spec.acking) {
                         Require(heron::proto::PeekTupleKeyAndRoots(
                                     t, &key, &roots)
                                     .ok(),
                                 "key and roots");
                         sink += key;
                       }
                     }
                   }
                 }),
                 "ns"});

  heron::serde::BufferPool pool;
  heron::smgr::TupleCache cache({/*drain_frequency_ms=*/10,
                                 /*drain_size_bytes=*/spec.drain_size_bytes},
                                &pool);
  auto drain = [&] {
    for (auto& batch : cache.DrainAll()) {
      sink += batch.tuple_count;
      pool.Release(std::move(batch.bytes));
    }
  };
  out.push_back({"smgr.cache_ns_per_tuple", MedianNsPerOp(n, [&] {
                   for (size_t i = 0; i < n; ++i) {
                     const int dest = static_cast<int>(i % spec.dests);
                     if (cache.Add(dest, 1, "default", "spout", encoded[i]) ||
                         (i + 1) % spec.batch_tuples == 0) {
                       drain();
                     }
                   }
                   drain();
                 }),
                 "ns"});

  // Spout -> bolt tuple trees (one ack update closes each), with
  // `pending_roots` in flight: root r registers at step r and is acked at
  // step r + window.
  const size_t roots = std::max<size_t>(n * 4, spec.pending_roots * 2);
  std::vector<uint64_t> keys(roots);
  for (uint64_t& k : keys) k = rng.Next();
  std::vector<heron::api::TupleKey> root_keys(roots);
  for (size_t r = 0; r < roots; ++r) {
    root_keys[r] = heron::proto::MakeRootKey(1, rng.Next());
  }
  const size_t window = std::min(spec.pending_roots, roots);
  out.push_back(
      {"smgr.ack_ns_per_update", MedianNsPerOp(roots, [&] {
         heron::smgr::AckTracker tracker(int64_t{30} * 1000000000);
         uint64_t completed = 0;
         for (size_t step = 0; step < roots + window; ++step) {
           if (step < roots) tracker.Register(root_keys[step], keys[step], 0);
           if (step < window) continue;
           const size_t r = step - window;
           if (tracker.Update(root_keys[r], keys[r], false).has_value()) {
             ++completed;
           }
         }
         Require(completed == roots, "every replayed tree completes");
       }),
       "ns"});

  for (const char* mode : {"in-process", "socket", "shm"}) {
    heron::ipc::Fabric::Options options;
    options.pool = &pool;
    options.link_capacity_bytes = 4u << 20;
    auto fabric = heron::ipc::MakeFabric(mode, options);
    Require(fabric.ok(), "fabric");
    uint64_t delivered = 0;
    Require((*fabric)
                ->OpenLink(1,
                           [&](const heron::serde::FrameHeader&,
                               Buffer&& payload) {
                             ++delivered;
                             pool.Release(std::move(payload));
                             return Status::OK();
                           })
                .ok(),
            "open link");
    const size_t frames = std::max<size_t>(batches.size(), 256);
    std::vector<double> per_frame;
    for (int pass = 0; pass < kPasses; ++pass) {
      int64_t busy = 0;
      for (size_t i = 0; i < frames; ++i) {
        const Buffer& frame = batches[i % batches.size()];
        Buffer payload = pool.Acquire();
        payload.assign(frame);
        heron::serde::FrameHeader header;
        header.type = static_cast<uint8_t>(
            heron::proto::MessageType::kTupleBatchRouted);
        header.dest_kind = 1;
        header.payload_len = static_cast<uint32_t>(payload.size());
        header.dest = 2;
        // A frame larger than the socket buffer takes several pumps (each
        // flushes spilled bytes, then reads): pump until it is delivered.
        const uint64_t before = delivered;
        const int64_t t0 = NowNanos();
        Require((*fabric)->SendFrame(1, header, &payload).ok(), "send frame");
        for (int pumps = 0; delivered == before; ++pumps) {
          Require(pumps < 100000, "frame delivered");
          (*fabric)->PumpLink(1);
        }
        busy += NowNanos() - t0;
        pool.Release(std::move(payload));
      }
      per_frame.push_back(static_cast<double>(busy) /
                          static_cast<double>(frames));
    }
    Require(delivered == frames * kPasses, "every frame delivered");
    (*fabric)->CloseLink(1).ok();
    std::sort(per_frame.begin(), per_frame.end());
    out.push_back({std::string("ipc.roundtrip_ns_per_frame.") + mode,
                   per_frame[per_frame.size() / 2], "ns"});
  }
  // Keeps the replayed work observable so it cannot be optimized away.
  Require(sink != 0, "replays produced output");
  return out;
}

}  // namespace perfbench
