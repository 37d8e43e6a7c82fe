#include "api/grouping.h"

#include <gtest/gtest.h>

#include <map>

namespace heron {
namespace api {
namespace {

const Fields kSchema({"word", "count"});
const std::vector<TaskId> kTasks = {10, 11, 12, 13};

TEST(GroupingTest, FieldsGroupingIsDeterministicPerKey) {
  Router r1(GroupingKind::kFields, kSchema, Fields({"word"}), kTasks);
  Router r2(GroupingKind::kFields, kSchema, Fields({"word"}), kTasks);
  for (int i = 0; i < 200; ++i) {
    const Values values = {Value(std::string("key") + std::to_string(i)),
                           Value(int64_t{i})};
    EXPECT_EQ(r1.RouteOne(values), r2.RouteOne(values));
    // Same key again routes identically (stickiness).
    EXPECT_EQ(r1.RouteOne(values), r1.RouteOne(values));
  }
}

TEST(GroupingTest, FieldsGroupingIgnoresNonKeyFields) {
  Router r(GroupingKind::kFields, kSchema, Fields({"word"}), kTasks);
  const Values a = {Value(std::string("same")), Value(int64_t{1})};
  const Values b = {Value(std::string("same")), Value(int64_t{999})};
  EXPECT_EQ(r.RouteOne(a), r.RouteOne(b));
}

TEST(GroupingTest, MultiFieldKeyUsesBothFields) {
  Router r(GroupingKind::kFields, kSchema, Fields({"word", "count"}), kTasks);
  const Values a = {Value(std::string("w")), Value(int64_t{1})};
  const Values b = {Value(std::string("w")), Value(int64_t{2})};
  // Different composite keys *may* differ; at least hashes must.
  EXPECT_NE(r.KeyHash(a), r.KeyHash(b));
}

TEST(GroupingTest, FieldOrderInGroupingSpecIsIrrelevant) {
  // Field indices are canonicalized (sorted) so the lazy serialized walk
  // and the declared order agree.
  Router ab(GroupingKind::kFields, kSchema, Fields({"word", "count"}), kTasks);
  Router ba(GroupingKind::kFields, kSchema, Fields({"count", "word"}), kTasks);
  const Values v = {Value(std::string("w")), Value(int64_t{3})};
  EXPECT_EQ(ab.KeyHash(v), ba.KeyHash(v));
  EXPECT_EQ(ab.field_indices(), (std::vector<int>{0, 1}));
  EXPECT_EQ(ba.field_indices(), ab.field_indices());
  EXPECT_EQ(ab.TaskForKeyHash(ab.KeyHash(v)), ab.RouteOne(v));
}

TEST(GroupingTest, ShuffleIsRoughlyBalanced) {
  Router r(GroupingKind::kShuffle, kSchema, Fields(), kTasks, /*seed=*/5);
  std::map<TaskId, int> counts;
  constexpr int kDraws = 40000;
  const Values values = {Value(std::string("x")), Value(int64_t{0})};
  for (int i = 0; i < kDraws; ++i) ++counts[r.RouteOne(values)];
  for (const TaskId t : kTasks) {
    EXPECT_NEAR(counts[t], kDraws / 4, kDraws / 20) << "task " << t;
  }
}

TEST(GroupingTest, FieldsIsRoughlyBalancedOverManyKeys) {
  Router r(GroupingKind::kFields, kSchema, Fields({"word"}), kTasks);
  std::map<TaskId, int> counts;
  constexpr int kKeys = 40000;
  for (int i = 0; i < kKeys; ++i) {
    const Values values = {Value(std::string("key") + std::to_string(i)),
                           Value(int64_t{0})};
    ++counts[r.RouteOne(values)];
  }
  for (const TaskId t : kTasks) {
    EXPECT_NEAR(counts[t], kKeys / 4, kKeys / 10) << "task " << t;
  }
}

TEST(GroupingTest, GlobalAlwaysLowestTask) {
  Router r(GroupingKind::kGlobal, kSchema, Fields(), {13, 10, 12, 11});
  const Values values = {Value(std::string("x")), Value(int64_t{0})};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.RouteOne(values), 10);
  }
}

TEST(GroupingTest, AllFansOutToEveryTask) {
  Router r(GroupingKind::kAll, kSchema, Fields(), kTasks);
  std::vector<TaskId> out;
  r.Route({Value(std::string("x")), Value(int64_t{0})}, &out);
  EXPECT_EQ(out, kTasks);
}

TEST(GroupingTest, CustomGroupingPicksByFunction) {
  const CustomGroupingFn pick_by_count = [](const Values& values,
                                            int num_tasks) {
    return std::vector<int>{
        static_cast<int>(std::get<int64_t>(values[1]) % num_tasks)};
  };
  Router r(GroupingKind::kCustom, kSchema, Fields(), kTasks, 1, pick_by_count);
  std::vector<TaskId> out;
  r.Route({Value(std::string("x")), Value(int64_t{6})}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], kTasks[2]);  // 6 % 4 == 2.
}

TEST(GroupingTest, CustomGroupingMayFanOut) {
  const CustomGroupingFn broadcast_two = [](const Values&, int) {
    return std::vector<int>{0, 1};
  };
  Router r(GroupingKind::kCustom, kSchema, Fields(), kTasks, 1, broadcast_two);
  std::vector<TaskId> out;
  r.Route({Value(std::string("x")), Value(int64_t{0})}, &out);
  EXPECT_EQ(out, (std::vector<TaskId>{10, 11}));
}

TEST(GroupingTest, CustomGroupingDropsOutOfRangePicks) {
  // User code returns picks below 0 and at or past the task count; only
  // index 1 is valid. The bad picks are dropped, not fatal.
  const CustomGroupingFn sloppy = [](const Values&, int num_tasks) {
    return std::vector<int>{-1, num_tasks, 1, num_tasks + 7};
  };
  Router r(GroupingKind::kCustom, kSchema, Fields(), kTasks, 1, sloppy);
  std::vector<TaskId> out;
  r.Route({Value(std::string("x")), Value(int64_t{0})}, &out);
  EXPECT_EQ(out, (std::vector<TaskId>{kTasks[1]}));
}

TEST(GroupingTest, RouteAppendsWithoutClearing) {
  Router r(GroupingKind::kGlobal, kSchema, Fields(), kTasks);
  std::vector<TaskId> out = {99};
  r.Route({Value(std::string("x")), Value(int64_t{0})}, &out);
  EXPECT_EQ(out, (std::vector<TaskId>{99, 10}));
}

}  // namespace
}  // namespace api
}  // namespace heron
