#include "elastic/policy.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ehpc::elastic {

std::string to_string(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kRigidMin: return "min_replicas";
    case PolicyMode::kRigidMax: return "max_replicas";
    case PolicyMode::kMoldable: return "moldable";
    case PolicyMode::kElastic: return "elastic";
  }
  return "?";
}

PolicyMode policy_mode_from_string(const std::string& name) {
  if (name == "min_replicas" || name == "min") return PolicyMode::kRigidMin;
  if (name == "max_replicas" || name == "max") return PolicyMode::kRigidMax;
  if (name == "moldable") return PolicyMode::kMoldable;
  if (name == "elastic") return PolicyMode::kElastic;
  throw PreconditionError("unknown policy mode: " + name);
}

PolicyEngine::PolicyEngine(int total_slots, PolicyConfig config)
    : total_slots_(total_slots), free_slots_(total_slots), config_(config) {
  EHPC_EXPECTS(total_slots_ > 0);
  EHPC_EXPECTS(config_.rescale_gap_s >= 0.0);
  EHPC_EXPECTS(config_.reserve_slots >= 0);
}

const JobState& PolicyEngine::job(JobId id) const {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  return it->second;
}

JobState& PolicyEngine::job_mut(JobId id) {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  return it->second;
}

JobSpec PolicyEngine::transform_spec(JobSpec spec) const {
  // The paper emulates the rigid schedulers by collapsing min and max.
  switch (config_.mode) {
    case PolicyMode::kRigidMin:
      spec.max_replicas = spec.min_replicas;
      break;
    case PolicyMode::kRigidMax:
      spec.min_replicas = spec.max_replicas;
      break;
    case PolicyMode::kMoldable:
    case PolicyMode::kElastic:
      break;
  }
  return spec;
}

bool PolicyEngine::rescale_allowed(const JobState& j, double now) const {
  return now - j.last_action_time >= config_.rescale_gap_s;
}

void PolicyEngine::set_progress_provider(ProgressProvider provider) {
  progress_ = std::move(provider);
}

double PolicyEngine::effective_priority(const JobState& j, double now) const {
  double priority = static_cast<double>(j.spec.priority);
  if (config_.aging_rate_per_s > 0.0 && !j.running && !j.completed) {
    priority += config_.aging_rate_per_s * std::max(0.0, now - j.submit_time);
  }
  return priority;
}

bool PolicyEngine::expand_worthwhile(const JobState& j, int add) const {
  if (config_.min_expand_gain > 0.0 &&
      static_cast<double>(add) <
          config_.min_expand_gain * static_cast<double>(j.replicas)) {
    return false;
  }
  if (config_.min_remaining_fraction_for_expand > 0.0 && progress_) {
    if (progress_(j.spec.id) < config_.min_remaining_fraction_for_expand) {
      return false;
    }
  }
  return true;
}

namespace {

bool by_priority_order(const JobState* a, const JobState* b) {
  return PriorityOrder{}(*a, *b);
}

}  // namespace

std::vector<JobState*>::iterator PolicyEngine::active_position(const JobState& j) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), &j, by_priority_order);
  EHPC_ENSURES(it != active_.end() && *it == &j);
  return it;
}

std::vector<JobId> PolicyEngine::queued() const {
  std::vector<JobId> out;
  for (const JobState* st : active_) {
    if (!st->running) out.push_back(st->spec.id);
  }
  return out;
}

std::vector<JobId> PolicyEngine::running() const {
  std::vector<JobId> out;
  for (const JobState* st : active_) {
    if (st->running) out.push_back(st->spec.id);
  }
  return out;
}

std::vector<JobId> PolicyEngine::all_jobs() const {
  std::vector<JobId> out;
  out.reserve(jobs_.size());
  for (const auto& [id, st] : jobs_) out.push_back(id);
  return out;
}

std::vector<Action> PolicyEngine::submit(const JobSpec& raw_spec, double now) {
  const JobSpec spec = transform_spec(raw_spec);
  EHPC_EXPECTS(spec.min_replicas >= 1);
  EHPC_EXPECTS(spec.max_replicas >= spec.min_replicas);
  EHPC_EXPECTS(spec.min_replicas <= total_slots_ - config_.reserve_slots);
  EHPC_EXPECTS(jobs_.count(spec.id) == 0);

  JobState st;
  st.spec = spec;
  st.submit_time = now;
  auto [it, inserted] = jobs_.emplace(spec.id, st);
  EHPC_ENSURES(inserted);
  JobState& job = it->second;
  active_.insert(std::upper_bound(active_.begin(), active_.end(), &job, by_priority_order),
                 &job);

  // Fig. 2, first branch: start outright if the free slots allow >= min.
  const int replicas =
      std::min(free_slots_ - config_.reserve_slots, spec.max_replicas);
  if (replicas >= spec.min_replicas) {
    job.replicas = replicas;
    job.running = true;
    job.last_action_time = now;
    free_slots_ -= replicas;
    EHPC_DEBUG("policy", "job %d starts with %d replicas (free now %d)",
               spec.id, replicas, free_slots_);
    return {Action{ActionType::kStart, spec.id, replicas}};
  }

  // Not enough room. Only the elastic policy may evict capacity from
  // lower-priority running jobs; everyone else queues.
  if (config_.mode != PolicyMode::kElastic) {
    return {Action{ActionType::kEnqueue, spec.id, 0}};
  }
  return try_shrink_to_fit(job, now);
}

std::vector<Action> PolicyEngine::try_shrink_to_fit(JobState& job, double now) {
  // Fig. 2 dry-run: can enough slots be freed (respecting T_rescale_gap and
  // priority) to reach the job's min replicas? Walk the in-flight index from
  // the lowest priority, skipping jobs that are not running (the new job
  // among them). The highest-priority running job is never considered: the
  // walk stops one past the first running entry.
  std::size_t stop = 0;
  if (config_.protect_top_job) {
    const auto top = std::find_if(active_.begin(), active_.end(),
                                  [](const JobState* j) { return j->running; });
    stop = static_cast<std::size_t>(top - active_.begin()) + 1;
  }
  int num_to_free = job.spec.min_replicas - free_slots_ + config_.reserve_slots;
  const double job_priority = effective_priority(job, now);
  for (std::size_t i = active_.size(); num_to_free > 0 && i-- > stop;) {
    const JobState& j = *active_[i];
    if (!j.running || !rescale_allowed(j, now)) continue;
    if (effective_priority(j, now) > job_priority) break;
    if (j.replicas > j.spec.min_replicas) {
      const int new_replicas =
          std::max(j.spec.min_replicas, j.replicas - num_to_free);
      num_to_free -= j.replicas - new_replicas;
    }
  }
  if (num_to_free > 0) {
    return {Action{ActionType::kEnqueue, job.spec.id, 0}};
  }

  // Commit: shrink until the new job could run at max replicas (or we run
  // out of eligible victims), but only require reaching min.
  std::vector<Action> actions;
  int min_to_free = job.spec.min_replicas - free_slots_ + config_.reserve_slots;
  int max_to_free = job.spec.max_replicas - free_slots_ + config_.reserve_slots;
  for (std::size_t i = active_.size(); max_to_free > 0 && i-- > stop;) {
    JobState& j = *active_[i];
    if (!j.running || !rescale_allowed(j, now)) continue;
    if (effective_priority(j, now) > job_priority) break;
    if (j.replicas > j.spec.min_replicas) {
      const int new_replicas =
          std::max(j.spec.min_replicas, j.replicas - max_to_free);
      const int freed = j.replicas - new_replicas;
      j.replicas = new_replicas;
      j.last_action_time = now;
      free_slots_ += freed;
      min_to_free -= freed;
      max_to_free -= freed;
      actions.push_back(Action{ActionType::kShrink, j.spec.id, new_replicas});
      EHPC_DEBUG("policy", "shrink job %d to %d (freeing %d for job %d)",
                 j.spec.id, new_replicas, freed, job.spec.id);
    }
  }
  EHPC_ENSURES(min_to_free <= 0);  // the dry run guaranteed feasibility

  const int replicas =
      std::min(free_slots_ - config_.reserve_slots, job.spec.max_replicas);
  EHPC_ENSURES(replicas >= job.spec.min_replicas);
  job.replicas = replicas;
  job.running = true;
  job.last_action_time = now;
  free_slots_ -= replicas;
  actions.push_back(Action{ActionType::kStart, job.spec.id, replicas});
  return actions;
}

void PolicyEngine::abandon(JobId id) {
  JobState& st = job_mut(id);
  EHPC_EXPECTS(!st.running && !st.completed);
  EHPC_ENSURES(st.replicas == 0);  // queued jobs hold no slots
  active_.erase(active_position(st));
  st.completed = true;
}

void PolicyEngine::forget(JobId id) {
  auto it = jobs_.find(id);
  EHPC_EXPECTS(it != jobs_.end());
  EHPC_EXPECTS(it->second.completed);
  jobs_.erase(it);
}

std::vector<Action> PolicyEngine::complete(JobId id, double now) {
  JobState& done = job_mut(id);
  EHPC_EXPECTS(done.running);
  free_slots_ += done.replicas;
  done.replicas = 0;
  done.running = false;
  done.completed = true;
  active_.erase(active_position(done));

  // Fig. 3: hand the available slots to jobs in decreasing priority order —
  // running jobs below their max (elastic only) and queued jobs that can
  // reach at least their min. The order is effective priority, ties in
  // PriorityOrder. Without aging that is the index order itself; aging
  // raises queued jobs' priority as they wait, and a stable sort of the
  // PriorityOrder-sorted index by effective priority keeps the tie-break.
  const auto by_effective = [this, now](const JobState* a, const JobState* b) {
    return effective_priority(*a, now) > effective_priority(*b, now);
  };
  std::vector<JobState*> resorted;
  const std::vector<JobState*>* order = &active_;
  if (config_.aging_rate_per_s > 0.0 &&
      !std::is_sorted(active_.begin(), active_.end(), by_effective)) {
    resorted = active_;
    std::stable_sort(resorted.begin(), resorted.end(), by_effective);
    order = &resorted;
  }

  const bool can_rescale = config_.mode == PolicyMode::kElastic;
  std::vector<Action> actions;
  int budget = free_slots_;
  for (JobState* next : *order) {
    if (budget <= 0) break;
    JobState& j = *next;
    if (!rescale_allowed(j, now)) continue;
    if (j.running && !can_rescale) continue;
    if (j.replicas >= j.spec.max_replicas) continue;
    const int add = std::min(budget, j.spec.max_replicas - j.replicas);
    if (j.replicas + add < j.spec.min_replicas) continue;
    const bool was_queued = !j.running;
    if (!was_queued && !expand_worthwhile(j, add)) continue;
    j.replicas += add;
    j.running = true;
    j.last_action_time = now;
    free_slots_ -= add;
    budget -= add;
    actions.push_back(Action{was_queued ? ActionType::kStart : ActionType::kExpand,
                             j.spec.id, j.replicas});
    EHPC_DEBUG("policy", "%s job %d to %d replicas on completion of job %d",
               was_queued ? "start" : "expand", j.spec.id, j.replicas, id);
  }
  return actions;
}

}  // namespace ehpc::elastic
