// State Manager (§IV-C) tests, parameterized over both built-in backends
// (the ZooKeeper-like in-memory tree and the local filesystem), exactly as
// the paper names them.

#include "statemgr/state_manager.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/ids.h"
#include "common/strings.h"
#include "packing/round_robin_packing.h"
#include "statemgr/topology_state.h"
#include "workloads/word_count.h"

namespace heron {
namespace statemgr {
namespace {

class StateManagerTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    Config config;
    config.Set(config_keys::kStateManagerKind, GetParam());
    if (GetParam() == "LOCAL_FILE") {
      root_dir_ = std::filesystem::temp_directory_path() /
                  IdGenerator::Next("heron-statemgr-test");
      config.Set(config_keys::kStateManagerRoot, root_dir_.string());
    }
    auto sm = CreateStateManager(config);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    sm_ = std::move(*sm);
  }

  void TearDown() override {
    if (sm_ != nullptr) sm_->Close().ok();
    if (!root_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_dir_, ec);
    }
  }

  std::unique_ptr<IStateManager> sm_;
  std::filesystem::path root_dir_;
};

TEST_P(StateManagerTest, CreateGetSetDelete) {
  ASSERT_TRUE(sm_->CreateNode("/a", "one").ok());
  EXPECT_EQ(*sm_->GetNodeData("/a"), "one");
  ASSERT_TRUE(sm_->SetNodeData("/a", "two").ok());
  EXPECT_EQ(*sm_->GetNodeData("/a"), "two");
  ASSERT_TRUE(sm_->DeleteNode("/a").ok());
  EXPECT_TRUE(sm_->GetNodeData("/a").status().IsNotFound());
}

TEST_P(StateManagerTest, CreateRequiresParent) {
  EXPECT_TRUE(sm_->CreateNode("/a/b", "x").IsNotFound());
  ASSERT_TRUE(sm_->CreateNode("/a", "").ok());
  EXPECT_TRUE(sm_->CreateNode("/a/b", "x").ok());
}

TEST_P(StateManagerTest, DuplicateCreateRejected) {
  ASSERT_TRUE(sm_->CreateNode("/a", "").ok());
  EXPECT_TRUE(sm_->CreateNode("/a", "").IsAlreadyExists());
}

TEST_P(StateManagerTest, DeleteWithChildrenRejected) {
  ASSERT_TRUE(sm_->CreateNode("/a", "").ok());
  ASSERT_TRUE(sm_->CreateNode("/a/b", "").ok());
  EXPECT_TRUE(sm_->DeleteNode("/a").IsFailedPrecondition());
  ASSERT_TRUE(sm_->DeleteNode("/a/b").ok());
  EXPECT_TRUE(sm_->DeleteNode("/a").ok());
}

TEST_P(StateManagerTest, ListChildrenSorted) {
  ASSERT_TRUE(sm_->CreateNode("/t", "").ok());
  ASSERT_TRUE(sm_->CreateNode("/t/c", "").ok());
  ASSERT_TRUE(sm_->CreateNode("/t/a", "").ok());
  ASSERT_TRUE(sm_->CreateNode("/t/b", "").ok());
  ASSERT_TRUE(sm_->CreateNode("/t/a/nested", "").ok());
  auto children = sm_->ListChildren("/t");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(sm_->ListChildren("/ghost").status().IsNotFound());
}

TEST_P(StateManagerTest, PathValidation) {
  EXPECT_TRUE(sm_->CreateNode("relative", "").IsInvalidArgument());
  EXPECT_TRUE(sm_->CreateNode("/a/", "").IsInvalidArgument());
  EXPECT_TRUE(sm_->CreateNode("/a//b", "").IsInvalidArgument());
  EXPECT_TRUE(sm_->CreateNode("/a/../b", "").IsInvalidArgument());
}

TEST_P(StateManagerTest, BinaryDataSurvives) {
  serde::Buffer binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  ASSERT_TRUE(sm_->CreateNode("/bin", binary).ok());
  EXPECT_EQ(*sm_->GetNodeData("/bin"), binary);
}

TEST_P(StateManagerTest, WatchesFireOnceWithRightType) {
  ASSERT_TRUE(sm_->CreateNode("/w", "").ok());
  std::vector<WatchEvent> events;
  const auto record = [&events](const WatchEvent& e) { events.push_back(e); };

  ASSERT_TRUE(sm_->Watch("/w", record).ok());
  ASSERT_TRUE(sm_->SetNodeData("/w", "x").ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, WatchEventType::kDataChanged);
  EXPECT_EQ(events[0].path, "/w");

  // One-shot: a second mutation does not fire.
  ASSERT_TRUE(sm_->SetNodeData("/w", "y").ok());
  EXPECT_EQ(events.size(), 1u);

  // Deletion event.
  ASSERT_TRUE(sm_->Watch("/w", record).ok());
  ASSERT_TRUE(sm_->DeleteNode("/w").ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, WatchEventType::kDeleted);

  // Creation event on a watched-but-absent path.
  ASSERT_TRUE(sm_->Watch("/w", record).ok());
  ASSERT_TRUE(sm_->CreateNode("/w", "").ok());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].type, WatchEventType::kCreated);
}

TEST_P(StateManagerTest, ParentWatchSeesChildrenChange) {
  ASSERT_TRUE(sm_->CreateNode("/p", "").ok());
  int fired = 0;
  ASSERT_TRUE(sm_->Watch("/p", [&fired](const WatchEvent& e) {
                    if (e.type == WatchEventType::kChildrenChanged) ++fired;
                  }).ok());
  ASSERT_TRUE(sm_->CreateNode("/p/kid", "").ok());
  EXPECT_EQ(fired, 1);
}

TEST_P(StateManagerTest, EphemeralNodesVanishWithSession) {
  auto session = sm_->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(sm_->CreateNode("/eph", "alive", *session).ok());
  EXPECT_TRUE(*sm_->ExistsNode("/eph"));

  bool deleted = false;
  ASSERT_TRUE(sm_->Watch("/eph", [&deleted](const WatchEvent& e) {
                    deleted = e.type == WatchEventType::kDeleted;
                  }).ok());
  ASSERT_TRUE(sm_->CloseSession(*session).ok());
  EXPECT_FALSE(*sm_->ExistsNode("/eph"));
  EXPECT_TRUE(deleted);  // "all the Stream Managers become immediately
                         // aware of the event" (§IV-C).
}

TEST_P(StateManagerTest, PersistentNodesSurviveSessionClose) {
  auto session = sm_->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(sm_->CreateNode("/persist", "stay").ok());
  ASSERT_TRUE(sm_->CloseSession(*session).ok());
  EXPECT_TRUE(*sm_->ExistsNode("/persist"));
}

TEST_P(StateManagerTest, UnknownSessionRejected) {
  EXPECT_TRUE(sm_->CreateNode("/x", "", 424242).IsNotFound());
  EXPECT_TRUE(sm_->CloseSession(424242).IsNotFound());
}

TEST_P(StateManagerTest, EnsurePathCreatesAncestors) {
  ASSERT_TRUE(EnsurePath(sm_.get(), "/deep/nested/leaf", "v").ok());
  EXPECT_EQ(*sm_->GetNodeData("/deep/nested/leaf"), "v");
  // Overwrites the leaf on repeat.
  ASSERT_TRUE(EnsurePath(sm_.get(), "/deep/nested/leaf", "w").ok());
  EXPECT_EQ(*sm_->GetNodeData("/deep/nested/leaf"), "w");
}

// ---------------------------------------------------------------------
// Typed topology-state helpers (§IV-C metadata).
// ---------------------------------------------------------------------

TEST_P(StateManagerTest, TopologyLifecycle) {
  ASSERT_TRUE(RegisterTopology(sm_.get(), "wc").ok());
  EXPECT_TRUE(*TopologyExists(sm_.get(), "wc"));
  EXPECT_TRUE(RegisterTopology(sm_.get(), "wc").IsAlreadyExists());
  ASSERT_TRUE(UnregisterTopology(sm_.get(), "wc").ok());
  EXPECT_FALSE(*TopologyExists(sm_.get(), "wc"));
}

TEST_P(StateManagerTest, PackingPlanStoredAndLoaded) {
  auto topology = workloads::BuildWordCountTopology("wc", 2, 2);
  ASSERT_TRUE(topology.ok());
  packing::RoundRobinPacking packing;
  ASSERT_TRUE(packing.Initialize(Config(), *topology).ok());
  auto plan = packing.Pack();
  ASSERT_TRUE(plan.ok());

  ASSERT_TRUE(RegisterTopology(sm_.get(), "wc").ok());
  ASSERT_TRUE(SetPackingPlan(sm_.get(), *plan).ok());
  auto loaded = GetPackingPlan(*sm_, "wc");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, *plan);
}

TEST_P(StateManagerTest, CorruptPackingPlanCpuIsRejected) {
  // A stored plan (on disk for LOCAL_FILE) whose CPU demand is negative or
  // past 2^50 milli-cores fails to load, in the container and the instance
  // field alike: it could not re-serialize to the same demand, and near
  // the int64 range re-serializing it would be undefined. Demands in range
  // load, re-store and re-load unchanged.
  constexpr int64_t kMaxMilli = int64_t{1} << 50;
  ASSERT_TRUE(RegisterTopology(sm_.get(), "wc").ok());
  for (const bool in_instance : {false, true}) {
    for (const int64_t milli :
         {int64_t{-1}, kMaxMilli + 1, INT64_MAX, INT64_MIN, int64_t{0},
          int64_t{1500}, kMaxMilli}) {
      serde::Buffer instance;
      serde::WireEncoder instance_enc(&instance);
      instance_enc.WriteInt32Field(1, 0);  // task_id
      instance_enc.WriteStringField(2, "word");
      instance_enc.WriteInt32Field(3, 0);  // component_index
      instance_enc.WriteInt64Field(4, in_instance ? milli : 500);
      serde::Buffer container;
      serde::WireEncoder container_enc(&container);
      container_enc.WriteInt32Field(1, 0);  // id
      container_enc.WriteBytesField(2, instance);
      container_enc.WriteInt64Field(3, in_instance ? 2000 : milli);
      serde::Buffer bytes;
      serde::WireEncoder enc(&bytes);
      enc.WriteStringField(1, "wc");
      enc.WriteBytesField(2, container);
      ASSERT_TRUE(EnsurePath(sm_.get(), paths::PackingPlan("wc"), bytes).ok());

      auto loaded = GetPackingPlan(*sm_, "wc");
      if (milli < 0 || milli > kMaxMilli) {
        EXPECT_TRUE(loaded.status().IsIOError())
            << milli << " in_instance=" << in_instance;
        continue;
      }
      ASSERT_TRUE(loaded.ok()) << milli;
      ASSERT_TRUE(SetPackingPlan(sm_.get(), *loaded).ok());
      auto reloaded = GetPackingPlan(*sm_, "wc");
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(*reloaded, *loaded) << milli;
    }
  }
}

TEST_P(StateManagerTest, TMasterLocationAdvertisement) {
  ASSERT_TRUE(RegisterTopology(sm_.get(), "wc").ok());
  auto session = sm_->OpenSession();
  ASSERT_TRUE(session.ok());

  proto::TMasterLocationMsg location;
  location.topology = "wc";
  location.host = "host-a";
  location.port = 1234;
  ASSERT_TRUE(SetTMasterLocation(sm_.get(), location, *session).ok());
  auto loaded = GetTMasterLocation(*sm_, "wc");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, location);

  // A second TMaster must not clobber the live advertisement.
  proto::TMasterLocationMsg usurper = location;
  usurper.host = "host-b";
  EXPECT_TRUE(
      SetTMasterLocation(sm_.get(), usurper).IsAlreadyExists());

  // Session death clears the way (failover).
  ASSERT_TRUE(sm_->CloseSession(*session).ok());
  EXPECT_TRUE(SetTMasterLocation(sm_.get(), usurper).ok());
  EXPECT_EQ(GetTMasterLocation(*sm_, "wc")->host, "host-b");
}

TEST_P(StateManagerTest, SchedulerLocationAndContainerInfo) {
  ASSERT_TRUE(RegisterTopology(sm_.get(), "wc").ok());
  ASSERT_TRUE(
      SetSchedulerLocation(sm_.get(), "wc", "yarn://rm:8032").ok());
  EXPECT_EQ(*GetSchedulerLocation(*sm_, "wc"), "yarn://rm:8032");
  ASSERT_TRUE(SetContainerInfo(sm_.get(), "wc", 2, "host-x:7000").ok());
  EXPECT_EQ(*GetContainerInfo(*sm_, "wc", 2), "host-x:7000");
  EXPECT_TRUE(GetContainerInfo(*sm_, "wc", 9).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Backends, StateManagerTest,
                         ::testing::Values("IN_MEMORY", "LOCAL_FILE"));

TEST(StateManagerFactoryTest, UnknownKindRejected) {
  Config config;
  config.Set(config_keys::kStateManagerKind, "ETCD");
  EXPECT_TRUE(CreateStateManager(config).status().IsNotFound());
}

TEST(StateManagerPathsTest, Helpers) {
  EXPECT_EQ(SplitPath("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitPath("/").empty());
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(paths::PackingPlan("wc"), "/topologies/wc/packingplan");
  EXPECT_EQ(paths::TMasterLocation("wc"), "/topologies/wc/tmaster");
}

}  // namespace
}  // namespace statemgr
}  // namespace heron
