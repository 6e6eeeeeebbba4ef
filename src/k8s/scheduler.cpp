#include "k8s/scheduler.hpp"

#include <vector>

#include "common/log.hpp"

namespace ehpc::k8s {

KubeScheduler::KubeScheduler(sim::Simulation& sim, ObjectStore<Node>& nodes,
                             ObjectStore<Pod>& pods, SchedulerConfig config,
                             const ClusterIndex* index)
    : sim_(sim), nodes_(nodes), pods_(pods), config_(config) {
  if (index == nullptr) {
    owned_index_ = std::make_unique<ClusterIndex>(nodes_, pods_);
    index = owned_index_.get();
  }
  index_ = index;
  // Watch for new pending pods and for capacity freed by departing pods.
  pods_.watch([this](WatchEvent event, const Pod& pod) {
    if (event == WatchEvent::kAdded && pod.phase == PodPhase::kPending) {
      const ObjectRef ref = pod.meta.ref();
      sim_.schedule_after(config_.schedule_latency_s,
                          [this, ref] { try_schedule(ref); });
    } else if (event == WatchEvent::kDeleted) {
      // Freed capacity: give unschedulable pods another chance.
      request_retry();
    }
  });
  nodes_.watch([this](WatchEvent, const Node&) { request_retry(); });
}

Resources KubeScheduler::used_on(const std::string& node_name) const {
  return index_->used_on(node_name);
}

std::string KubeScheduler::pick_node(const Pod& pod) const {
  return index_->best_node(pod,
                           config_.strategy == PlacementStrategy::kBinPack,
                           config_.affinity_weight);
}

void KubeScheduler::try_schedule(ObjectRef ref) {
  const Pod* pod = pods_.find(ref);
  if (pod == nullptr || pod->phase != PodPhase::kPending) return;
  ++stats_.bind_attempts;
  std::string node = pick_node(*pod);
  if (node.empty()) {
    EHPC_DEBUG("kube-scheduler", "pod %s unschedulable, stays pending",
               pod->meta.name.c_str());
    return;  // retried on the next pod/node event
  }
  const double now = sim_.now();
  pods_.mutate(ref.id, [&](Pod& p) {
    p.phase = PodPhase::kScheduled;
    p.node_name = std::move(node);
    p.scheduled_time = now;
  });
  ++scheduled_count_;
  EHPC_DEBUG("kube-scheduler", "bound pod %s -> %s", pod->meta.name.c_str(),
             pod->node_name.c_str());
}

void KubeScheduler::request_retry() {
  const double target = sim_.now() + config_.schedule_latency_s;
  if (target == retry_scheduled_for_) return;  // one sweep per tick
  retry_scheduled_for_ = target;
  sim_.schedule_after(config_.schedule_latency_s, [this] { retry_pending(); });
}

void KubeScheduler::retry_pending() {
  ++stats_.retry_sweeps;
  // Snapshot the queue (name order): a successful bind mutates it
  // mid-sweep.
  const auto& pending = index_->pending();
  std::vector<ObjectRef> refs;
  refs.reserve(pending.size());
  for (const ObjectId id : pending) refs.push_back(pods_.get(id).meta.ref());
  for (const ObjectRef ref : refs) try_schedule(ref);
}

}  // namespace ehpc::k8s
