#include "opk/controller.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::opk {

std::string to_string(CharmJobPhase phase) {
  switch (phase) {
    case CharmJobPhase::kQueued: return "Queued";
    case CharmJobPhase::kLaunching: return "Launching";
    case CharmJobPhase::kRunning: return "Running";
    case CharmJobPhase::kResizing: return "Resizing";
    case CharmJobPhase::kCompleted: return "Completed";
  }
  return "?";
}

namespace {

bool is_worker(const k8s::Pod& pod) {
  auto role = pod.meta.labels.find("role");
  return role != pod.meta.labels.end() && role->second == "worker";
}

/// A worker's rank: the suffix after the last '-' of its name.
int rank_of(const k8s::Pod& pod) {
  const std::string& name = pod.meta.name;
  return std::atoi(name.c_str() + name.rfind('-') + 1);
}

}  // namespace

CharmJobController::CharmJobController(k8s::Cluster& cluster,
                                       k8s::ObjectStore<CharmJob>& jobs,
                                       ControllerConfig config)
    : cluster_(cluster), jobs_(jobs), config_(config) {
  // CharmJob changes enqueue a reconcile after the controller latency.
  jobs_.watch([this](k8s::WatchEvent event, const CharmJob& job) {
    if (event == k8s::WatchEvent::kDeleted) return;
    request_reconcile(job.meta.name);
  });
  // Pod phase changes update the owning job's readiness. One check per job
  // per tick: the check reads current state, so several pod events landing
  // on the same tick need only the first to schedule it.
  cluster_.pods().watch([this](k8s::WatchEvent event, const k8s::Pod& pod) {
    auto it = pod.meta.labels.find(k8s::kJobLabel);
    if (it == pod.meta.labels.end()) return;
    const k8s::ObjectId job_id = jobs_.find_id(it->second);
    if (job_id == k8s::kNoObject) return;  // nothing to heal or check
    if (event == k8s::WatchEvent::kDeleted && is_worker(pod)) {
      // A worker rank the job still wants disappeared — an involuntary
      // deletion (node-group kill), not one of ours: shrink only removes
      // ranks >= desired and completion teardown runs with the job already
      // Completed. Heal by re-reconciling so the rank is recreated.
      const CharmJob& job = jobs_.get(job_id);
      if (job.phase != CharmJobPhase::kCompleted &&
          job.desired_replicas > 0 && rank_of(pod) < job.desired_replicas) {
        request_reconcile(job.meta.name);
      }
    }
    if (readiness_check_pending_.size() <= job_id) {
      readiness_check_pending_.resize(job_id + 1, false);
    }
    if (readiness_check_pending_[job_id]) return;
    readiness_check_pending_[job_id] = true;
    cluster_.sim().schedule_after(0.0, [this, job_id] {
      readiness_check_pending_[job_id] = false;
      if (const CharmJob* job = jobs_.find(job_id)) update_readiness(*job);
    });
  });
}

std::string CharmJobController::pod_name(const std::string& job_name,
                                         int rank) const {
  return job_name + "-worker-" + std::to_string(rank);
}

void CharmJobController::request_reconcile(const std::string& job_name) {
  cluster_.sim().schedule_after(config_.reconcile_latency_s, [this, job_name] {
    if (jobs_.contains(job_name)) reconcile(job_name);
  });
}

void CharmJobController::reconcile(const std::string& job_name) {
  ++reconcile_count_;
  const CharmJob& job = jobs_.get(job_name);
  // Copy the ids: creating and deleting pods rewrites the job's pod list.
  const std::vector<k8s::ObjectId> owned =
      cluster_.index().pods_with_label(k8s::kJobLabel, job_name);
  if (job.phase == CharmJobPhase::kCompleted) {
    // Tear down every pod of the job (workers and launcher), in name order.
    for (const k8s::ObjectId id : owned) cluster_.delete_pod(id);
    return;
  }
  if (job.desired_replicas <= 0) return;

  // The launcher pod (mpirun home) requests no CPU so it never competes
  // with worker slots, mirroring the paper's testbed where the launcher
  // does not occupy a worker vCPU.
  const std::string launcher = job_name + "-launcher";
  if (!cluster_.pods().contains(launcher)) {
    k8s::Pod pod;
    pod.meta.name = launcher;
    pod.meta.labels[k8s::kJobLabel] = job_name;
    pod.meta.labels["role"] = "launcher";
    pod.request = {0, 256};
    cluster_.create_pod(std::move(pod));
  }

  // Worker pods are rank-addressed; ranks >= desired are surplus. A rank
  // whose pod still exists (even terminating: wait for its removal) is
  // left alone.
  for (int rank = 0; rank < job.desired_replicas; ++rank) {
    std::string name = pod_name(job_name, rank);
    if (cluster_.pods().contains(name)) continue;
    k8s::Pod pod;
    pod.meta.name = std::move(name);
    pod.meta.labels[k8s::kJobLabel] = job_name;
    pod.meta.labels["role"] = "worker";
    pod.request = {1, 512};  // one vCPU per worker (non-SMP: 1 PE/replica)
    pod.affinity_key = k8s::kJobLabel;
    pod.affinity_value = job_name;
    cluster_.create_pod(std::move(pod));
  }
  // Delete surplus ranks (highest first, matching shrink semantics: the
  // runtime has already evacuated those PEs before we get here).
  for (const k8s::ObjectId id : owned) {
    const k8s::Pod* pod = cluster_.pods().find(id);
    if (pod == nullptr || !is_worker(*pod)) continue;
    if (rank_of(*pod) >= job.desired_replicas) cluster_.delete_pod(id);
  }
  update_readiness(job);
}

void CharmJobController::update_readiness(const CharmJob& job) {
  if (job.phase == CharmJobPhase::kCompleted) return;
  // The job's pod list is name-ordered, so the nodelist comes out sorted.
  // Reads only — pod mutations cannot happen under us here. Build a new
  // nodelist only when the running workers differ from the current one.
  const auto& pods = cluster_.pods();
  const auto& owned = cluster_.index().pods_with_label(k8s::kJobLabel,
                                                       job.meta.name);
  const auto running_worker = [&](k8s::ObjectId id) -> const k8s::Pod* {
    const k8s::Pod& pod = pods.get(id);
    return is_worker(pod) && pod.phase == k8s::PodPhase::kRunning ? &pod
                                                                  : nullptr;
  };
  std::size_t running = 0;
  bool same = true;
  for (const k8s::ObjectId id : owned) {
    const k8s::Pod* pod = running_worker(id);
    if (pod == nullptr) continue;
    same = same && running < job.nodelist.size() &&
           job.nodelist[running] == pod->meta.name;
    ++running;
  }
  same = same && running == job.nodelist.size();
  if (!same || static_cast<int>(running) != job.ready_replicas) {
    std::vector<std::string> nodelist;
    nodelist.reserve(running);
    for (const k8s::ObjectId id : owned) {
      if (const k8s::Pod* pod = running_worker(id)) {
        nodelist.push_back(pod->meta.name);
      }
    }
    jobs_.mutate(job.meta.id, [&](CharmJob& j) {
      j.ready_replicas = static_cast<int>(running);
      j.nodelist = std::move(nodelist);
    });
  }
  const int desired = job.desired_replicas;
  if (desired > 0 && static_cast<int>(running) >= desired) {
    auto it = ready_waiters_.find(job.meta.name);
    if (it != ready_waiters_.end()) {
      // Detach before firing: a waiter may register a new waiter.
      const std::string job_name = job.meta.name;
      auto fns = std::move(it->second);
      ready_waiters_.erase(it);
      EHPC_DEBUG("opk", "job %s ready with %zu replicas", job_name.c_str(),
                 running);
      for (auto& fn : fns) fn(job_name);
    }
  }
}

void CharmJobController::when_ready(const std::string& job_name,
                                    ReadyCallback fn) {
  EHPC_EXPECTS(fn != nullptr);
  ready_waiters_[job_name].push_back(std::move(fn));
  cluster_.sim().schedule_after(0.0, [this, job_name] {
    if (const CharmJob* job = jobs_.find(job_name)) update_readiness(*job);
  });
}

}  // namespace ehpc::opk
