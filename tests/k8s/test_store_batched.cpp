// Batched watch delivery: the coalescing window, its edge cases, and the
// view-vs-watcher consistency contract (views are synchronous and exact
// mid-window; watchers see the coalesced replay at flush()).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "k8s/api.hpp"
#include "k8s/store.hpp"

namespace ehpc::k8s {
namespace {

Pod make_pod(const std::string& name, PodPhase phase = PodPhase::kPending) {
  Pod p;
  p.meta.name = name;
  p.phase = phase;
  return p;
}

/// A store in batched mode with a manual flush trigger, plus a recording
/// watcher capturing (event, name, phase) tuples in delivery order.
struct Fixture {
  ObjectStore<Pod> store;
  int flush_requests = 0;
  std::vector<std::tuple<WatchEvent, std::string, PodPhase>> seen;

  Fixture() {
    store.enable_batched_delivery([this] { ++flush_requests; });
    store.watch([this](WatchEvent e, const Pod& p) {
      seen.emplace_back(e, p.meta.name, p.phase);
    });
  }
};

TEST(BatchedStore, DeliveryDeferredUntilFlushAndRequestedOncePerWindow) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(f.flush_requests, 1);  // only the window's first event asks
  EXPECT_TRUE(f.seen.empty());
  EXPECT_EQ(f.store.pending_events(), 3u);

  f.store.flush();
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(f.store.pending_events(), 0u);

  // Next window requests a flush again.
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(f.flush_requests, 2);
}

TEST(BatchedStore, ModifiedRunCoalescesToFinalStateAtFirstPosition) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.store.flush();
  f.seen.clear();

  // Run on "a" (3 events), interleaved single event on "b", then one more on
  // "a": the whole "a" run folds into its first queue position.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kScheduled; });
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kScheduled; });
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  EXPECT_EQ(f.store.pending_events(), 2u);

  f.store.flush();
  ASSERT_EQ(f.seen.size(), 2u);
  EXPECT_EQ(f.seen[0], std::make_tuple(WatchEvent::kModified, std::string("a"),
                                       PodPhase::kSucceeded));
  EXPECT_EQ(f.seen[1], std::make_tuple(WatchEvent::kModified, std::string("b"),
                                       PodPhase::kScheduled));
}

TEST(BatchedStore, AddAndDeleteInOneWindowBothDelivered) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kTerminating; });
  f.store.remove("a");
  EXPECT_FALSE(f.store.contains("a"));

  f.store.flush();
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(std::get<0>(f.seen[0]), WatchEvent::kAdded);
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kModified);
  // The Deleted snapshot is the final image even though the object is gone.
  EXPECT_EQ(f.seen[2], std::make_tuple(WatchEvent::kDeleted, std::string("a"),
                                       PodPhase::kTerminating));
}

TEST(BatchedStore, LifecycleEdgesEndModifiedRuns) {
  Fixture f;
  f.store.add(make_pod("a"));
  f.store.flush();
  f.seen.clear();

  // Modified / Deleted / Added / Modified: nothing coalesces across the
  // delete+re-add edge pair, and the final Modified starts a fresh run.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.remove("a");
  f.store.add(make_pod("a"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kScheduled; });

  f.store.flush();
  ASSERT_EQ(f.seen.size(), 4u);
  EXPECT_EQ(std::get<0>(f.seen[0]), WatchEvent::kModified);
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kDeleted);
  EXPECT_EQ(std::get<0>(f.seen[2]), WatchEvent::kAdded);
  EXPECT_EQ(f.seen[3], std::make_tuple(WatchEvent::kModified, std::string("a"),
                                       PodPhase::kScheduled));
}

TEST(BatchedStore, ReusedIdStartsAFreshRun) {
  Fixture f;
  const ObjectId id = f.store.add(make_pod("a")).meta.id;
  f.store.flush();
  f.seen.clear();

  // "b" takes the id "a" freed inside the window; its Modified must not
  // fold into the run "a" opened under that id.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.remove("a");
  ASSERT_EQ(f.store.add(make_pod("b")).meta.id, id);
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kScheduled; });
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kRunning; });

  f.store.flush();
  ASSERT_EQ(f.seen.size(), 4u);
  EXPECT_EQ(f.seen[0], std::make_tuple(WatchEvent::kModified, std::string("a"),
                                       PodPhase::kRunning));
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kDeleted);
  EXPECT_EQ(std::get<0>(f.seen[2]), WatchEvent::kAdded);
  EXPECT_EQ(f.seen[3], std::make_tuple(WatchEvent::kModified, std::string("b"),
                                       PodPhase::kRunning));
}

TEST(BatchedStore, MidWindowWatcherSeesOnlyLaterEvents) {
  Fixture f;
  f.store.mutate(f.store.add(make_pod("early")).meta.name,
                 [](Pod& p) { p.phase = PodPhase::kRunning; });

  std::vector<std::string> late_seen;
  f.store.watch([&](WatchEvent, const Pod& p) {
    late_seen.push_back(p.meta.name);
  });
  // A further fold into "early"'s pre-registration run stays invisible to
  // the new watcher; a fresh object is visible.
  f.store.mutate("early", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  f.store.add(make_pod("late"));

  f.store.flush();
  EXPECT_EQ(late_seen, std::vector<std::string>{"late"});
  // The original watcher saw everything (Added+coalesced Modified, Added).
  ASSERT_EQ(f.seen.size(), 3u);

  // After the flush the registration cutoff resets: the late watcher is a
  // full participant in the next window.
  f.seen.clear();
  late_seen.clear();
  f.store.mutate("early", [](Pod& p) { p.phase = PodPhase::kFailed; });
  f.store.flush();
  EXPECT_EQ(late_seen, std::vector<std::string>{"early"});
}

TEST(BatchedStore, EventsEnqueuedMidFlushDrainInSameFlush) {
  Fixture f;
  f.store.add(make_pod("a"));
  // A reactive watcher: on "a" turning Running, bind "b" (two more events).
  f.store.watch([&](WatchEvent e, const Pod& p) {
    if (e == WatchEvent::kModified && p.meta.name == "a" &&
        p.phase == PodPhase::kRunning && !f.store.contains("b")) {
      f.store.add(make_pod("b"));
      f.store.mutate("b", [](Pod& q) { q.phase = PodPhase::kScheduled; });
    }
  });
  f.store.flush();
  f.seen.clear();

  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  ASSERT_EQ(f.flush_requests, 2);
  f.store.flush();

  // One flush delivered the trigger plus both reactive events, appended in
  // order (no coalescing into already-delivered positions).
  ASSERT_EQ(f.seen.size(), 3u);
  EXPECT_EQ(std::get<1>(f.seen[0]), "a");
  EXPECT_EQ(std::get<0>(f.seen[1]), WatchEvent::kAdded);
  EXPECT_EQ(std::get<1>(f.seen[1]), "b");
  EXPECT_EQ(std::get<0>(f.seen[2]), WatchEvent::kModified);
  EXPECT_EQ(std::get<1>(f.seen[2]), "b");
  EXPECT_EQ(f.store.pending_events(), 0u);
  // The mid-flush enqueue must not have scheduled a second flush...
  EXPECT_EQ(f.flush_requests, 2);
  // ...but the *next* window does request one.
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  EXPECT_EQ(f.flush_requests, 3);
}

TEST(BatchedStore, ViewsStayExactMidWindow) {
  Fixture f;
  int running_pods = 0;
  f.store.attach_view([&](WatchEvent, const Pod* before, const Pod* after) {
    if (before && before->phase == PodPhase::kRunning) --running_pods;
    if (after && after->phase == PodPhase::kRunning) ++running_pods;
  });
  f.store.add(make_pod("a", PodPhase::kRunning));
  f.store.add(make_pod("b", PodPhase::kRunning));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kSucceeded; });
  // The view already reflects all three mutations; no watcher has run yet.
  EXPECT_EQ(running_pods, 1);
  EXPECT_TRUE(f.seen.empty());
  f.store.flush();
  EXPECT_EQ(running_pods, 1);
}

TEST(BatchedStore, FlushOnEmptyQueueIsNoOp) {
  Fixture f;
  int batches = 0;
  f.store.observe_batches([&] { ++batches; });
  f.store.flush();
  EXPECT_EQ(batches, 0);
  EXPECT_TRUE(f.seen.empty());
}

TEST(BatchedStore, BatchObserverFiresOncePerFlush) {
  Fixture f;
  int batches = 0;
  f.store.observe_batches([&] { ++batches; });
  f.store.add(make_pod("a"));
  f.store.add(make_pod("b"));
  f.store.mutate("a", [](Pod& p) { p.phase = PodPhase::kRunning; });
  EXPECT_EQ(batches, 0);
  f.store.flush();
  EXPECT_EQ(batches, 1);
  f.store.mutate("b", [](Pod& p) { p.phase = PodPhase::kRunning; });
  f.store.flush();
  EXPECT_EQ(batches, 2);
}

}  // namespace
}  // namespace ehpc::k8s
