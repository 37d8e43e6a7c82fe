#include "proto/messages.h"

#include <gtest/gtest.h>

#include "api/grouping.h"
#include "common/random.h"
#include "tests/common/fuzz.h"

namespace heron {
namespace proto {
namespace {

TupleDataMsg MakeTuple(uint64_t seed = 3) {
  Random rng(seed);
  TupleDataMsg msg;
  msg.tuple_key = rng.NextUint64();
  msg.roots.push_back(MakeRootKey(2, rng.NextUint64()));
  msg.roots.push_back(MakeRootKey(3, rng.NextUint64()));
  msg.emit_time_nanos = static_cast<int64_t>(rng.NextBelow(1ull << 60));
  msg.values.emplace_back(std::string("alpha"));
  msg.values.emplace_back(int64_t{-99});
  msg.values.emplace_back(true);
  msg.values.emplace_back(2.75);
  return msg;
}

TEST(MessagesTest, TupleDataRoundTrip) {
  const TupleDataMsg original = MakeTuple();
  TupleDataMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(original.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.tuple_key, original.tuple_key);
  EXPECT_EQ(parsed.roots, original.roots);
  EXPECT_EQ(parsed.emit_time_nanos, original.emit_time_nanos);
  EXPECT_EQ(parsed.values, original.values);
}

TEST(MessagesTest, TupleDataToTuple) {
  const TupleDataMsg msg = MakeTuple();
  api::Tuple tuple;
  msg.ToTuple("word", "default", 7, &tuple);
  EXPECT_EQ(tuple.source_component(), "word");
  EXPECT_EQ(tuple.source_task(), 7);
  EXPECT_EQ(tuple.values(), msg.values);
  EXPECT_EQ(tuple.tuple_key(), msg.tuple_key);
  EXPECT_EQ(tuple.roots(), msg.roots);
}

TEST(MessagesTest, TupleBatchRoundTrip) {
  TupleBatchMsg batch;
  batch.src_task = 4;
  batch.dest_task = 9;
  batch.stream = "default";
  batch.src_component = "word";
  batch.tuples.push_back(MakeTuple(1).SerializeAsBuffer());
  batch.tuples.push_back(MakeTuple(2).SerializeAsBuffer());

  TupleBatchMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(batch.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.src_task, 4);
  EXPECT_EQ(parsed.dest_task, 9);
  EXPECT_EQ(parsed.stream, "default");
  EXPECT_EQ(parsed.src_component, "word");
  EXPECT_EQ(parsed.tuples, batch.tuples);
}

TEST(MessagesTest, PeekDestTaskMatchesFullParse) {
  TupleBatchMsg batch;
  batch.src_task = 1;
  batch.dest_task = 42;
  batch.src_component = "c";
  batch.tuples.push_back(MakeTuple().SerializeAsBuffer());
  const serde::Buffer bytes = batch.SerializeAsBuffer();
  EXPECT_EQ(*PeekDestTask(bytes), 42);
}

TEST(MessagesTest, PeekDestTaskRejectsGarbage) {
  EXPECT_FALSE(PeekDestTask("not a batch").ok());
}

TEST(MessagesTest, ParseTupleBatchViewIsZeroCopy) {
  TupleBatchMsg batch;
  batch.src_task = 3;
  batch.dest_task = -1;
  batch.stream = "s";
  batch.src_component = "word";
  batch.tuples.push_back(MakeTuple(5).SerializeAsBuffer());
  batch.tuples.push_back(MakeTuple(6).SerializeAsBuffer());
  const serde::Buffer bytes = batch.SerializeAsBuffer();

  TupleBatchView view;
  ASSERT_TRUE(ParseTupleBatchView(bytes, &view).ok());
  EXPECT_EQ(view.src_task, 3);
  EXPECT_EQ(view.dest_task, -1);
  EXPECT_EQ(view.stream, "s");
  EXPECT_EQ(view.src_component, "word");
  ASSERT_EQ(view.tuples.size(), 2u);
  // Views must point inside the original buffer.
  for (const auto& t : view.tuples) {
    EXPECT_GE(t.data(), bytes.data());
    EXPECT_LE(t.data() + t.size(), bytes.data() + bytes.size());
  }
  // And parse back to the same tuples.
  TupleDataMsg t0;
  ASSERT_TRUE(t0.ParseFromBytes(view.tuples[0]).ok());
  EXPECT_EQ(t0.values, MakeTuple(5).values);
}

TEST(MessagesTest, PeekTupleKeyAndRootsStopsEarly) {
  const TupleDataMsg msg = MakeTuple();
  api::TupleKey key = 0;
  std::vector<api::TupleKey> roots;
  ASSERT_TRUE(
      PeekTupleKeyAndRoots(msg.SerializeAsBuffer(), &key, &roots).ok());
  EXPECT_EQ(key, msg.tuple_key);
  EXPECT_EQ(roots, msg.roots);
}

TEST(MessagesTest, PeekFieldsHashEqualsRouterKeyHash) {
  // The core §V-A equivalence: hashing serialized byte ranges must route
  // exactly like hashing decoded values.
  Random rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    TupleDataMsg msg;
    msg.tuple_key = rng.NextUint64();
    msg.values.emplace_back(std::string("w") + std::to_string(trial));
    msg.values.emplace_back(static_cast<int64_t>(rng.NextUint64()));
    msg.values.emplace_back(rng.NextDouble());

    const api::Fields schema({"word", "num", "score"});
    for (const auto& selected :
         std::vector<std::vector<std::string>>{{"word"},
                                               {"num"},
                                               {"word", "num"},
                                               {"word", "num", "score"}}) {
      api::Router router(api::GroupingKind::kFields, schema,
                         api::Fields(selected), {0, 1, 2, 3});
      std::vector<int> indices;
      for (const auto& name : selected) indices.push_back(schema.IndexOf(name));
      std::sort(indices.begin(), indices.end());
      const auto lazy = PeekFieldsHash(msg.SerializeAsBuffer(), indices);
      ASSERT_TRUE(lazy.ok());
      EXPECT_EQ(*lazy, router.KeyHash(msg.values)) << "trial " << trial;
    }
  }
}

TEST(MessagesTest, PeekFieldsHashRejectsOutOfRangeIndex) {
  const TupleDataMsg msg = MakeTuple();
  EXPECT_FALSE(PeekFieldsHash(msg.SerializeAsBuffer(), {99}).ok());
}

TEST(MessagesTest, AckBatchRoundTrip) {
  AckBatchMsg batch;
  batch.dest_task = 12;
  batch.updates.push_back({MakeRootKey(12, 5), 0xDEAD, false});
  batch.updates.push_back({MakeRootKey(12, 6), 0, true});
  AckBatchMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(batch.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.dest_task, 12);
  EXPECT_EQ(parsed.updates, batch.updates);
  EXPECT_EQ(*PeekAckBatchDest(batch.SerializeAsBuffer()), 12);
}

TEST(MessagesTest, RootEventRoundTrip) {
  RootEventMsg msg;
  msg.events.push_back({MakeRootKey(9, 0x1234), true});
  RootEventMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(msg.SerializeAsBuffer()).ok());
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].root, MakeRootKey(9, 0x1234));
  EXPECT_TRUE(parsed.events[0].fail);
}

TEST(MessagesTest, BatchedRootEventsKeepOrderAndOutcome) {
  // Acks and fails interleave in completion order; root 0 and the widest
  // task id survive the varint encoding.
  RootEventMsg msg;
  msg.events = {{MakeRootKey(9, 1), false},
                {MakeRootKey(9, 2), true},
                {0, false},
                {MakeRootKey(65535, 0xFFFFFFFFFFFFULL), true},
                {MakeRootKey(9, 1), false}};
  RootEventMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(msg.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.events, msg.events);

  // AppendRootEvent is the same encoding, one event at a time.
  serde::Buffer appended;
  serde::WireEncoder enc(&appended);
  for (const RootEvent& event : msg.events) AppendRootEvent(&enc, event);
  EXPECT_EQ(appended, msg.SerializeAsBuffer());

  // Parsing overwrites: a reused message does not keep stale events.
  ASSERT_TRUE(parsed.ParseFromBytes(RootEventMsg().SerializeAsBuffer()).ok());
  EXPECT_TRUE(parsed.events.empty());
}

// -- Ack-path decoder fuzzing --------------------------------------------
//
// Seeded mutations of valid AckBatchMsg / RootEventMsg encodings:
// truncations, bit flips and spliced overlong varints. Every input must
// decode or fail cleanly; a decode that succeeds must survive its own
// round trip. The ASan and UBSan lanes run these loops too.

serde::Buffer AckBatchSeed(Random* rng) {
  AckBatchMsg batch;
  batch.dest_task = static_cast<TaskId>(rng->NextBelow(1 << 16));
  const size_t n = 1 + rng->NextBelow(8);
  for (size_t i = 0; i < n; ++i) {
    batch.updates.push_back({MakeRootKey(batch.dest_task, rng->NextUint64()),
                             rng->NextUint64(), rng->NextBool(0.2)});
  }
  return batch.SerializeAsBuffer();
}

serde::Buffer RootEventSeed(Random* rng) {
  RootEventMsg msg;
  const size_t n = 1 + rng->NextBelow(16);
  for (size_t i = 0; i < n; ++i) {
    msg.events.push_back({MakeRootKey(static_cast<TaskId>(rng->NextBelow(64)),
                                      rng->NextUint64()),
                          rng->NextBool(0.2)});
  }
  return msg.SerializeAsBuffer();
}

using fuzz::Mutate;

TEST(MessagesFuzzTest, AckBatchDecoderSurvivesMutations) {
  Random rng(0xAC0B);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const serde::Buffer input = Mutate(AckBatchSeed(&rng), &rng);
    AckBatchMsg parsed;
    if (!parsed.ParseFromBytes(input).ok()) continue;
    ++decoded;
    EXPECT_LE(parsed.updates.size(), input.size() / 2);
    AckBatchMsg again;
    ASSERT_TRUE(again.ParseFromBytes(parsed.SerializeAsBuffer()).ok());
    EXPECT_EQ(again.dest_task, parsed.dest_task);
    EXPECT_EQ(again.updates, parsed.updates);
    // The lazy dest peek reads the same untrusted bytes.
    PeekAckBatchDest(input).status().ok();
  }
  // Mutations hit both sides of the accept/reject line.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 20000);
}

TEST(MessagesFuzzTest, RootEventDecoderSurvivesMutations) {
  Random rng(0x500E);
  int decoded = 0;
  RootEventMsg parsed;  // Reused, as the spout executor reuses it.
  for (int i = 0; i < 20000; ++i) {
    const serde::Buffer input = Mutate(RootEventSeed(&rng), &rng);
    if (!parsed.ParseFromBytes(input).ok()) continue;
    ++decoded;
    EXPECT_LE(parsed.events.size(), input.size() / 2);
    RootEventMsg again;
    ASSERT_TRUE(again.ParseFromBytes(parsed.SerializeAsBuffer()).ok());
    EXPECT_EQ(again.events, parsed.events);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 20000);
}

TEST(MessagesFuzzTest, LengthPrefixPastTheEndIsRejected) {
  // A length-delimited update whose 10-byte length varint wraps the read
  // position back to the start of the buffer must fail as truncated, not
  // re-read the same bytes forever.
  for (uint64_t back = 0; back <= 12; ++back) {
    serde::Buffer bytes;
    serde::WireEncoder enc(&bytes);
    enc.WriteTag(2, serde::WireType::kLengthDelimited);
    enc.WriteVarint(~uint64_t{0} - back);
    AckBatchMsg batch;
    EXPECT_FALSE(batch.ParseFromBytes(bytes).ok()) << back;
    EXPECT_FALSE(PeekAckBatchDest(bytes).ok()) << back;
  }
}

// -- Data-path decoder fuzzing ---------------------------------------------
//
// The same mutations over the decoders every routed tuple crosses: the
// batch view parse (SMGR and instance), the tuple decode and the
// instance's in-place decode into a reused tuple.

/// A valid tuple encoding of seeded shape: 0-3 roots, 0-5 values of every
/// kind, strings from empty to past the short-string buffer, sometimes
/// 1 KiB, sometimes traced.
serde::Buffer TupleSeed(Random* rng) {
  TupleDataMsg msg;
  msg.tuple_key = rng->NextUint64();
  const size_t roots = rng->NextBelow(4);
  for (size_t i = 0; i < roots; ++i) {
    msg.roots.push_back(MakeRootKey(static_cast<TaskId>(rng->NextBelow(64)),
                                    rng->NextUint64()));
  }
  msg.emit_time_nanos = static_cast<int64_t>(rng->NextUint64());
  if (rng->NextBool(0.1)) msg.trace_id = rng->NextUint64();
  const size_t values = rng->NextBelow(6);
  for (size_t i = 0; i < values; ++i) {
    switch (rng->NextBelow(4)) {
      case 0:
        msg.values.emplace_back(static_cast<int64_t>(rng->NextUint64()));
        break;
      case 1:
        msg.values.emplace_back(static_cast<double>(rng->NextBelow(1000)) / 8);
        break;
      case 2:
        msg.values.emplace_back(rng->NextBool());
        break;
      default:
        msg.values.emplace_back(std::string(
            rng->NextBool(0.05) ? 1024 : rng->NextBelow(40),
            static_cast<char>('a' + rng->NextBelow(26))));
    }
  }
  return msg.SerializeAsBuffer();
}

serde::Buffer BatchSeed(Random* rng) {
  TupleBatchMsg batch;
  batch.src_task = static_cast<TaskId>(rng->NextBelow(64));
  batch.dest_task = static_cast<TaskId>(rng->NextBelow(64));
  batch.stream = rng->NextBool() ? "default" : "side";
  batch.src_component = "word";
  const size_t n = rng->NextBelow(6);
  for (size_t i = 0; i < n; ++i) batch.tuples.push_back(TupleSeed(rng));
  return batch.SerializeAsBuffer();
}

/// Values by their wire bytes, so a mutated NaN compares equal to itself.
serde::Buffer EncodedValues(const api::Values& values) {
  serde::Buffer out;
  serde::WireEncoder enc(&out);
  for (const api::Value& v : values) api::EncodeValue(v, &enc);
  return out;
}

/// Decodes `input` into the reused tuple and into a fresh message; both
/// must agree on success and, when they succeed, on every field.
void ExpectInPlaceMatchesFresh(const serde::Buffer& input, api::Tuple* reused,
                               int* decoded) {
  uint64_t trace_id = 0xDEAD;  // Must be overwritten, traced or not.
  const bool in_place = DecodeTupleInto(input, reused, &trace_id).ok();
  TupleDataMsg fresh_msg;
  const bool fresh = fresh_msg.ParseFromBytes(input).ok();
  ASSERT_EQ(in_place, fresh);
  if (!fresh) return;
  ++*decoded;
  api::Tuple expected;
  fresh_msg.ToTuple("word", "default", 4, &expected);
  EXPECT_EQ(reused->tuple_key(), expected.tuple_key());
  EXPECT_EQ(reused->roots(), expected.roots());
  EXPECT_EQ(reused->emit_time_nanos(), expected.emit_time_nanos());
  EXPECT_EQ(trace_id, fresh_msg.trace_id);
  EXPECT_EQ(EncodedValues(reused->values()), EncodedValues(expected.values()));
  // Provenance belongs to the batch; a tuple decode never touches it.
  EXPECT_EQ(reused->source_component(), "word");
  EXPECT_EQ(reused->source_task(), 4);
}

TEST(MessagesFuzzTest, TupleBatchViewSurvivesMutations) {
  Random rng(0xBA7C);
  int decoded = 0;
  TupleBatchView view;  // Reused, as the SMGR and the instance reuse it.
  for (int i = 0; i < 20000; ++i) {
    const serde::Buffer input = Mutate(BatchSeed(&rng), &rng);
    const bool ok = ParseTupleBatchView(input, &view).ok();
    // The view parse and the copying parse accept exactly the same bytes
    // and read the same header and tuples from them.
    TupleBatchMsg eager;
    ASSERT_EQ(ok, eager.ParseFromBytes(input).ok());
    if (!ok) continue;
    ++decoded;
    EXPECT_EQ(view.src_task, eager.src_task);
    EXPECT_EQ(view.dest_task, eager.dest_task);
    EXPECT_EQ(view.stream, eager.stream);
    EXPECT_EQ(view.src_component, eager.src_component);
    ASSERT_EQ(view.tuples.size(), eager.tuples.size());
    for (size_t t = 0; t < view.tuples.size(); ++t) {
      EXPECT_EQ(view.tuples[t], eager.tuples[t]);
      EXPECT_GE(view.tuples[t].data(), input.data());
      EXPECT_LE(view.tuples[t].data() + view.tuples[t].size(),
                input.data() + input.size());
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 20000);
}

TEST(MessagesFuzzTest, TupleDecoderSurvivesMutations) {
  Random rng(0x7D47);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const serde::Buffer input = Mutate(TupleSeed(&rng), &rng);
    TupleDataMsg parsed;
    if (!parsed.ParseFromBytes(input).ok()) continue;
    ++decoded;
    EXPECT_LE(parsed.values.size(), input.size() / 2);
    TupleDataMsg again;
    ASSERT_TRUE(again.ParseFromBytes(parsed.SerializeAsBuffer()).ok());
    EXPECT_EQ(again.tuple_key, parsed.tuple_key);
    EXPECT_EQ(again.roots, parsed.roots);
    EXPECT_EQ(again.emit_time_nanos, parsed.emit_time_nanos);
    EXPECT_EQ(again.trace_id, parsed.trace_id);
    EXPECT_EQ(EncodedValues(again.values), EncodedValues(parsed.values));
    // The lazy peeks read the same untrusted bytes.
    PeekTraceId(input).status().ok();
    PeekFieldsHash(input, {0}).status().ok();
    api::TupleKey key = 0;
    std::vector<api::TupleKey> roots;
    PeekTupleKeyAndRoots(input, &key, &roots).ok();
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 20000);
}

TEST(MessagesFuzzTest, InPlaceDecodeMatchesFreshDecode) {
  // One tuple reused across every decode, as the instance reuses it:
  // mutated and valid encodings alternate, so each valid tuple lands on
  // whatever a failed, larger or differently typed tuple left behind.
  Random rng(0x1D7A);
  api::Tuple reused;
  reused.set_source("word", "default", 4);
  int mutated_decoded = 0;
  int valid_decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    ExpectInPlaceMatchesFresh(Mutate(TupleSeed(&rng), &rng), &reused,
                              &mutated_decoded);
    ExpectInPlaceMatchesFresh(TupleSeed(&rng), &reused, &valid_decoded);
  }
  EXPECT_GT(mutated_decoded, 0);
  EXPECT_LT(mutated_decoded, 20000);
  EXPECT_EQ(valid_decoded, 20000);
}

TEST(MessagesFuzzTest, ValueCountPastTheBlobIsRejected) {
  // A values blob of three value bytes claiming 2^40 values must fail
  // as corrupt, not size a vector by the claim (which throws bad_alloc).
  serde::Buffer blob;
  serde::WireEncoder blob_enc(&blob);
  blob_enc.WriteVarint(uint64_t{1} << 40);
  api::EncodeValue(int64_t{5}, &blob_enc);
  blob_enc.WriteVarint(0);
  serde::Buffer bytes;
  serde::WireEncoder enc(&bytes);
  enc.WriteUint64Field(1, 42);  // tuple_key
  enc.WriteBytesField(4, blob);  // values

  TupleDataMsg msg;
  EXPECT_TRUE(msg.ParseFromBytes(bytes).IsIOError());
  api::Tuple tuple;
  uint64_t trace_id = 0;
  EXPECT_TRUE(DecodeTupleInto(bytes, &tuple, &trace_id).IsIOError());
}

// -- Control-plane decoder fuzzing -----------------------------------------
//
// The same mutations over the remaining payload decoders: back-pressure
// control, checkpoint barriers and the TMaster location advertisement.

TEST(MessagesFuzzTest, BackpressureDecoderSurvivesMutations) {
  fuzz::ExpectDecoderSurvivesMutations<BackpressureMsg>(
      0xB9E5, [](Random* rng) {
        BackpressureMsg msg;
        msg.initiator = static_cast<ContainerId>(rng->NextBelow(1 << 12));
        msg.retry_depth = rng->NextUint64() >> rng->NextBelow(64);
        return msg.SerializeAsBuffer();
      });
}

TEST(MessagesFuzzTest, CheckpointBarrierDecoderSurvivesMutations) {
  fuzz::ExpectDecoderSurvivesMutations<CheckpointBarrierMsg>(
      0xC4B7, [](Random* rng) {
        CheckpointBarrierMsg msg;
        msg.ckpt_id = rng->NextUint64() >> rng->NextBelow(64);
        msg.origin_task = static_cast<TaskId>(rng->NextBelow(1 << 16)) - 1;
        msg.kind = static_cast<uint8_t>(rng->NextBelow(3));
        return msg.SerializeAsBuffer();
      });
}

TEST(MessagesFuzzTest, TMasterLocationDecoderSurvivesMutations) {
  fuzz::ExpectDecoderSurvivesMutations<TMasterLocationMsg>(
      0x7A57, [](Random* rng) {
        TMasterLocationMsg msg;
        msg.topology = std::string(rng->NextBelow(40), 'w');
        msg.host = "host-" + std::to_string(rng->NextBelow(1000));
        msg.port = static_cast<int32_t>(rng->NextBelow(65536));
        msg.controller_port = static_cast<int32_t>(rng->NextBelow(65536));
        return msg.SerializeAsBuffer();
      });
}

TEST(MessagesTest, TMasterLocationRoundTrip) {
  TMasterLocationMsg msg;
  msg.topology = "wc";
  msg.host = "host-1";
  msg.port = 8899;
  msg.controller_port = 8900;
  TMasterLocationMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(msg.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed, msg);
}

TEST(MessagesTest, RootKeyEmbedsTask) {
  for (const TaskId task : {0, 1, 77, 1023, 65535}) {
    const api::TupleKey root = MakeRootKey(task, 0xFFFFFFFFFFFFULL);
    EXPECT_EQ(RootKeyTask(root), task);
  }
}

TEST(MessagesTest, UnknownFieldsAreSkipped) {
  // Forward compatibility: a message with extra fields still parses —
  // the module-evolution requirement of §II.
  serde::Buffer bytes = MakeTuple().SerializeAsBuffer();
  serde::WireEncoder enc(&bytes);
  enc.WriteStringField(15, "from-a-newer-version");
  enc.WriteUint64Field(16, 777);
  TupleDataMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(bytes).ok());
  EXPECT_EQ(parsed.values, MakeTuple().values);
}

TEST(MessagesTest, ParseFromOverwritesEveryField) {
  // ParseFrom without a Clear first (the Message contract: it fully
  // overwrites) on bytes that carry only an empty values field: every
  // field of the previous decode reads as its default.
  TupleDataMsg msg = MakeTuple();
  msg.trace_id = 99;
  serde::Buffer bytes;
  serde::WireEncoder enc(&bytes);
  enc.WriteBytesField(4, serde::BytesView("\0", 1));  // values: count 0
  serde::WireDecoder dec(bytes);
  ASSERT_TRUE(msg.ParseFrom(&dec).ok());
  EXPECT_EQ(msg.tuple_key, 0u);
  EXPECT_TRUE(msg.roots.empty());
  EXPECT_EQ(msg.emit_time_nanos, 0);
  EXPECT_EQ(msg.trace_id, 0u);
  EXPECT_TRUE(msg.values.empty());
}

TEST(MessagesTest, ClearResetsEverything) {
  TupleDataMsg msg = MakeTuple();
  msg.Clear();
  EXPECT_EQ(msg.tuple_key, 0u);
  EXPECT_TRUE(msg.roots.empty());
  EXPECT_TRUE(msg.values.empty());
  EXPECT_EQ(msg.emit_time_nanos, 0);
}

}  // namespace
}  // namespace proto
}  // namespace heron
