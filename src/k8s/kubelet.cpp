#include "k8s/kubelet.hpp"

#include "common/log.hpp"

namespace ehpc::k8s {

Kubelet::Kubelet(sim::Simulation& sim, ObjectStore<Pod>& pods,
                 KubeletConfig config)
    : sim_(sim), pods_(pods), config_(config) {
  pods_.watch([this](WatchEvent event, const Pod& pod) {
    if (event == WatchEvent::kDeleted) return;
    // Timers hold the pod's incarnation, not its name: a pod deleted and
    // re-created under the same name is a new pod with its own timers.
    const ObjectRef ref = pod.meta.ref();
    if (pod.phase == PodPhase::kScheduled) {
      sim_.schedule_after(config_.pod_startup_s, [this, ref] {
        const Pod* p = pods_.find(ref);
        if (p == nullptr || p->phase != PodPhase::kScheduled) return;
        const double now = sim_.now();
        pods_.mutate(ref.id, [now](Pod& pp) {
          pp.phase = PodPhase::kRunning;
          pp.running_time = now;
        });
        ++started_count_;
        EHPC_DEBUG("kubelet", "pod %s running on %s", p->meta.name.c_str(),
                   p->node_name.c_str());
      });
    } else if (pod.phase == PodPhase::kTerminating) {
      sim_.schedule_after(config_.pod_stop_s, [this, ref] {
        const Pod* p = pods_.find(ref);
        if (p == nullptr || p->phase != PodPhase::kTerminating) return;
        EHPC_DEBUG("kubelet", "pod %s removed", p->meta.name.c_str());
        pods_.remove(ref.id);
        ++stopped_count_;
      });
    }
  });
}

}  // namespace ehpc::k8s
