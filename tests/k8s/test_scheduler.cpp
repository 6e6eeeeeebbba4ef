#include "k8s/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "k8s/cluster.hpp"

namespace ehpc::k8s {
namespace {

Pod worker(const std::string& name, int cpus = 1) {
  Pod p;
  p.meta.name = name;
  p.request = {cpus, 512};
  return p;
}

TEST(KubeScheduler, FiltersNodesWithoutCapacity) {
  Cluster c;
  c.add_nodes("small", 1, {1, 32768});
  c.add_nodes("big", 1, {16, 32768});
  c.create_pod(worker("p0", 8));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, "big-0");
}

TEST(KubeScheduler, FiltersNotReadyNodes) {
  Cluster c;
  c.add_nodes("node", 2, {16, 32768});
  c.nodes().mutate("node-0", [](Node& n) { n.ready = false; });
  c.create_pod(worker("p0"));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, "node-1");
}

TEST(KubeScheduler, BinPackFillsOneNodeFirst) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kBinPack;
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_EQ(c.pods().get("p0").node_name, c.pods().get("p1").node_name);
}

TEST(KubeScheduler, SpreadUsesBothNodes) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kSpread;
  cfg.scheduler.affinity_weight = 0.0;
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_NE(c.pods().get("p0").node_name, c.pods().get("p1").node_name);
}

TEST(KubeScheduler, AffinityColocatesJobPods) {
  ClusterConfig cfg;
  cfg.scheduler.strategy = PlacementStrategy::kSpread;  // fights affinity
  cfg.scheduler.affinity_weight = 100.0;                // affinity must win
  Cluster c(cfg);
  c.add_nodes("node", 2, {16, 32768});
  for (int i = 0; i < 4; ++i) {
    Pod p = worker("j1-w" + std::to_string(i));
    p.meta.labels["job"] = "j1";
    p.affinity_key = "job";
    p.affinity_value = "j1";
    c.create_pod(std::move(p));
    c.sim().run();
  }
  const std::string first = c.pods().get("j1-w0").node_name;
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(c.pods().get("j1-w" + std::to_string(i)).node_name, first);
  }
}

TEST(KubeScheduler, UsedOnCountsBoundPods) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0", 4));
  c.sim().run();
  EXPECT_EQ(c.scheduler().used_on("node-0").cpus, 4);
  EXPECT_EQ(c.scheduler().used_on("node-1").cpus, 0);
}

TEST(KubeScheduler, PickNodeEmptyWhenNothingFits) {
  Cluster c;
  c.add_nodes("node", 1, {2, 32768});
  Pod p = worker("p0", 8);
  EXPECT_EQ(c.scheduler().pick_node(p), "");
}

TEST(KubeScheduler, ScheduledCountAccumulates) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0"));
  c.create_pod(worker("p1"));
  c.sim().run();
  EXPECT_EQ(c.scheduler().scheduled_count(), 2);
}

// Placement ties and the retry queue follow name order, which differs from
// numeric and creation order ("node-10" < "node-9").

TEST(KubeScheduler, TieBreakIsNameOrderNotNumericOrder) {
  Cluster c;
  c.add_nodes("node", 11, {16, 32768});
  for (int i = 0; i <= 8; ++i) {
    c.nodes().mutate("node-" + std::to_string(i),
                     [](Node& n) { n.ready = false; });
  }
  // node-9 and node-10 tie (both idle); node-10 is first in name order.
  EXPECT_EQ(c.scheduler().pick_node(worker("p")), "node-10");
}

TEST(KubeScheduler, TieBreakSeesLaterBatchWithSmallerPrefix) {
  for (const auto strategy :
       {PlacementStrategy::kBinPack, PlacementStrategy::kSpread}) {
    ClusterConfig cfg;
    cfg.scheduler.strategy = strategy;
    Cluster c(cfg);
    c.add_nodes("node", 3, {16, 32768});
    c.add_nodes("edge", 2, {16, 32768});
    EXPECT_EQ(c.scheduler().pick_node(worker("p")), "edge-0");
  }
}

TEST(KubeScheduler, TieBreakAfterReadinessFlip) {
  Cluster c;
  c.add_nodes("node", 12, {16, 32768});
  c.nodes().mutate("node-0", [](Node& n) { n.ready = false; });
  c.nodes().mutate("node-1", [](Node& n) { n.ready = false; });
  EXPECT_EQ(c.scheduler().pick_node(worker("p")), "node-10");
  c.nodes().mutate("node-1", [](Node& n) { n.ready = true; });
  EXPECT_EQ(c.scheduler().pick_node(worker("p")), "node-1");
  c.nodes().mutate("node-0", [](Node& n) { n.ready = true; });
  EXPECT_EQ(c.scheduler().pick_node(worker("p")), "node-0");
}

TEST(KubeScheduler, RetryBindsPendingPodsInNameOrder) {
  Cluster c;
  c.add_nodes("node", 1, {1, 32768});
  c.create_pod(worker("blocker"));
  c.sim().run();
  // Created in numeric order; name order is p-10, p-2, p-9.
  for (const char* name : {"p-2", "p-9", "p-10"}) c.create_pod(worker(name));
  c.sim().run();
  for (const char* name : {"p-2", "p-9", "p-10"}) {
    ASSERT_EQ(c.pods().get(name).phase, PodPhase::kPending) << name;
  }
  // Each freed slot goes to the first pending pod in name order.
  std::vector<std::string> bound;
  for (const char* freed : {"blocker", "p-10", "p-2"}) {
    c.delete_pod(freed);
    c.sim().run();
    for (const char* name : {"p-2", "p-9", "p-10"}) {
      const Pod* pod = c.pods().find(name);
      if (pod != nullptr && pod->phase == PodPhase::kRunning &&
          std::find(bound.begin(), bound.end(), name) == bound.end()) {
        bound.push_back(name);
      }
    }
  }
  EXPECT_EQ(bound, (std::vector<std::string>{"p-10", "p-2", "p-9"}));
}

}  // namespace
}  // namespace ehpc::k8s
