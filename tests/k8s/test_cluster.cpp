#include "k8s/cluster.hpp"

#include <gtest/gtest.h>

namespace ehpc::k8s {
namespace {

Pod worker(const std::string& name, int cpus = 1) {
  Pod p;
  p.meta.name = name;
  p.request = {cpus, 512};
  return p;
}

TEST(Cluster, AddNodesCreatesCapacity) {
  Cluster c;
  c.add_nodes("node", 4, {16, 32768});
  EXPECT_EQ(c.total_cpus(), 64);
  EXPECT_EQ(c.nodes().size(), 4u);
}

TEST(Cluster, PodLifecycleReachesRunning) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0"));
  EXPECT_EQ(c.pods().get("p0").phase, PodPhase::kPending);
  c.sim().run();
  const Pod& p = c.pods().get("p0");
  EXPECT_EQ(p.phase, PodPhase::kRunning);
  EXPECT_EQ(p.node_name, "node-0");
  EXPECT_GT(p.running_time, p.scheduled_time);
}

TEST(Cluster, StartupLatencyIsModeled) {
  ClusterConfig cfg;
  cfg.kubelet.pod_startup_s = 5.0;
  cfg.scheduler.schedule_latency_s = 1.0;
  Cluster c(cfg);
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  EXPECT_GE(c.sim().now(), 6.0);
  EXPECT_EQ(c.pods().get("p0").phase, PodPhase::kRunning);
}

TEST(Cluster, DeleteGoesThroughTerminating) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0"));
  c.sim().run();
  c.delete_pod("p0");
  EXPECT_EQ(c.pods().get("p0").phase, PodPhase::kTerminating);
  c.sim().run();
  EXPECT_FALSE(c.pods().contains("p0"));
}

TEST(Cluster, UsedCpusTracksNonFinishedPods) {
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("p0", 3));
  c.create_pod(worker("p1", 2));
  EXPECT_EQ(c.used_cpus(), 5);  // pending pods still claim their request
  c.sim().run();
  c.delete_pod("p0");
  c.sim().run();
  EXPECT_EQ(c.used_cpus(), 2);
}

TEST(Cluster, PodWaitsWhenClusterFull) {
  Cluster c;
  c.add_nodes("node", 1, {2, 32768});
  c.create_pod(worker("p0"));
  c.create_pod(worker("p1"));
  c.create_pod(worker("p2"));  // no room
  c.sim().run();
  EXPECT_EQ(c.pods().get("p2").phase, PodPhase::kPending);
  // Freeing capacity lets the waiter in.
  c.delete_pod("p0");
  c.sim().run();
  EXPECT_EQ(c.pods().get("p2").phase, PodPhase::kRunning);
}

TEST(Cluster, ZeroCpuPodAlwaysFits) {
  Cluster c;
  c.add_nodes("node", 1, {1, 32768});
  c.create_pod(worker("w0", 1));
  Pod launcher;
  launcher.meta.name = "launcher";
  launcher.request = {0, 256};
  c.create_pod(std::move(launcher));
  c.sim().run();
  EXPECT_EQ(c.pods().get("launcher").phase, PodPhase::kRunning);
}

TEST(Kubelet, StartupTimerIgnoresRecreatedPod) {
  // Default latencies: bind 0.05 s after creation, Running 2.0 s after the
  // bind, removal 1.0 s after the delete request.
  Cluster c;
  c.add_nodes("node", 1, {16, 32768});
  c.create_pod(worker("w-0"));  // bound at 0.05, start-up timer for 2.05
  c.sim().run_until(0.1);
  c.delete_pod("w-0");  // removed at 1.1
  c.sim().run_until(1.2);
  ASSERT_FALSE(c.pods().contains("w-0"));
  c.create_pod(worker("w-0"));  // a new pod under the old name: bound 1.25
  c.sim().run_until(2.5);
  // The first pod's timer has fired (2.05); it must not start this pod.
  EXPECT_EQ(c.pods().get("w-0").phase, PodPhase::kScheduled);
  c.sim().run();
  const Pod& p = c.pods().get("w-0");
  EXPECT_EQ(p.phase, PodPhase::kRunning);
  EXPECT_DOUBLE_EQ(p.running_time - p.scheduled_time, 2.0);
  EXPECT_EQ(c.kubelet().started_count(), 1);
}

TEST(Cluster, PodChurnMemoryIsBoundedByLivePods) {
  // 50k create -> bind -> run -> delete cycles of distinct pod names (and
  // distinct job labels), at most 100 pods live: the store's arena and the
  // index's tables are sized by the live high-water mark, not by the
  // 50k names seen.
  Cluster c;
  c.add_nodes("node", 1, {100, 1 << 20});
  constexpr int kLive = 100;
  constexpr int kPodsPerJob = 10;
  int next = 0;
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < kLive; ++i, ++next) {
      Pod pod = worker("p-" + std::to_string(next));
      const std::string job = "j-" + std::to_string(next / kPodsPerJob);
      pod.meta.labels["job"] = job;
      pod.meta.labels["role"] = "worker";
      pod.affinity_key = "job";
      pod.affinity_value = job;
      c.create_pod(std::move(pod));
    }
    c.sim().run();
    ASSERT_EQ(c.bound_cpus(), kLive) << "round " << round;
    for (int i = next - kLive; i < next; ++i) {
      c.delete_pod("p-" + std::to_string(i));
    }
    c.sim().run();
    ASSERT_EQ(c.pods().size(), 0u) << "round " << round;
  }
  EXPECT_EQ(c.kubelet().started_count(), 500 * kLive);
  EXPECT_EQ(c.pods().capacity(), static_cast<std::size_t>(kLive));
  const ClusterIndex::Footprint fp = c.index().footprint();
  EXPECT_LE(fp.pod_slots, static_cast<std::size_t>(kLive));
  EXPECT_EQ(fp.node_slots, 1u);
  // One job label per 10 live pods plus the shared role label.
  EXPECT_LE(fp.label_slots, static_cast<std::size_t>(kLive / kPodsPerJob + 1));
  EXPECT_EQ(fp.live_labels, 0u);
  EXPECT_TRUE(c.index().pending().empty());
  EXPECT_EQ(c.used_cpus(), 0);
}

}  // namespace
}  // namespace ehpc::k8s
