#include "k8s/store.hpp"

#include <gtest/gtest.h>

#include "k8s/api.hpp"

namespace ehpc::k8s {
namespace {

Pod make_pod(const std::string& name) {
  Pod p;
  p.meta.name = name;
  return p;
}

TEST(ObjectStore, AddAssignsIncreasingVersions) {
  ObjectStore<Pod> store;
  const Pod& a = store.add(make_pod("a"));
  const Pod& b = store.add(make_pod("b"));
  EXPECT_LT(a.meta.resource_version, b.meta.resource_version);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ObjectStore, AddRejectsDuplicatesAndEmptyNames) {
  ObjectStore<Pod> store;
  store.add(make_pod("a"));
  EXPECT_THROW(store.add(make_pod("a")), PreconditionError);
  EXPECT_THROW(store.add(make_pod("")), PreconditionError);
}

TEST(ObjectStore, MutateBumpsVersionAndNotifies) {
  ObjectStore<Pod> store;
  store.add(make_pod("a"));
  const auto v1 = store.get("a").meta.resource_version;
  int events = 0;
  store.watch([&](WatchEvent e, const Pod&) {
    if (e == WatchEvent::kModified) ++events;
  });
  store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_GT(store.get("a").meta.resource_version, v1);
  EXPECT_EQ(store.get("a").phase, PodPhase::kRunning);
  EXPECT_EQ(events, 1);
}

TEST(ObjectStore, RemoveNotifiesWithFinalState) {
  ObjectStore<Pod> store;
  store.add(make_pod("a"));
  std::string deleted;
  store.watch([&](WatchEvent e, const Pod& p) {
    if (e == WatchEvent::kDeleted) deleted = p.meta.name;
  });
  EXPECT_TRUE(store.remove("a"));
  EXPECT_EQ(deleted, "a");
  EXPECT_FALSE(store.remove("a"));
  EXPECT_FALSE(store.contains("a"));
}

TEST(ObjectStore, IdsAreRecycledButRefsNameOneIncarnation) {
  ObjectStore<Pod> store;
  const ObjectRef a = store.add(make_pod("a")).meta.ref();
  EXPECT_EQ(store.find_id("a"), a.id);
  EXPECT_EQ(store.find(a), &store.get("a"));
  ASSERT_TRUE(store.remove("a"));
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(store.find(a.id), nullptr);
  EXPECT_EQ(store.find_id("a"), kNoObject);

  // A new object takes the freed slot; the old ref stays stale, and so
  // does it after the old name comes back.
  const ObjectRef b = store.add(make_pod("b")).meta.ref();
  EXPECT_EQ(b.id, a.id);
  EXPECT_NE(b.uid, a.uid);
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(store.find(b)->meta.name, "b");
  const ObjectRef a2 = store.add(make_pod("a")).meta.ref();
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(store.find(a2)->meta.name, "a");
  EXPECT_EQ(store.capacity(), 2u);

  // update keeps the incarnation.
  Pod replacement = make_pod("a");
  replacement.phase = PodPhase::kRunning;
  store.update(replacement);
  EXPECT_EQ(store.find(a2)->phase, PodPhase::kRunning);
}

TEST(ObjectStore, WatchersFireInRegistrationOrder) {
  ObjectStore<Pod> store;
  std::vector<int> order;
  store.watch([&](WatchEvent, const Pod&) { order.push_back(1); });
  store.watch([&](WatchEvent, const Pod&) { order.push_back(2); });
  store.add(make_pod("a"));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ObjectStore, ListIsNameOrdered) {
  ObjectStore<Pod> store;
  store.add(make_pod("b"));
  store.add(make_pod("a"));
  auto all = store.list();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->meta.name, "a");
  EXPECT_EQ(all[1]->meta.name, "b");
}

TEST(ObjectStore, ListWhereFilters) {
  ObjectStore<Pod> store;
  store.add(make_pod("a"));
  Pod b = make_pod("b");
  b.phase = PodPhase::kRunning;
  store.add(std::move(b));
  auto running = store.list_where(
      [](const Pod& p) { return p.phase == PodPhase::kRunning; });
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0]->meta.name, "b");
}

TEST(ObjectStore, GetThrowsFindReturnsNull) {
  ObjectStore<Pod> store;
  EXPECT_THROW(store.get("missing"), PreconditionError);
  EXPECT_EQ(store.find("missing"), nullptr);
}

TEST(MatchesLabels, SubsetSemantics) {
  std::map<std::string, std::string> labels{{"job", "j1"}, {"role", "worker"}};
  EXPECT_TRUE(matches_labels(labels, {{"job", "j1"}}));
  EXPECT_TRUE(matches_labels(labels, {}));
  EXPECT_FALSE(matches_labels(labels, {{"job", "j2"}}));
  EXPECT_FALSE(matches_labels(labels, {{"missing", "x"}}));
}

TEST(Resources, ArithmeticAndFit) {
  Resources a{4, 1024};
  Resources b{2, 512};
  EXPECT_EQ((a + b).cpus, 6);
  EXPECT_EQ((a - b).memory_mib, 512);
  EXPECT_TRUE(b.fits_within(a));
  const Resources too_many_cpus{5, 0};
  const Resources too_much_memory{0, 2048};
  EXPECT_FALSE(too_many_cpus.fits_within(a));
  EXPECT_FALSE(too_much_memory.fits_within(a));
}

}  // namespace
}  // namespace ehpc::k8s
