#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace ehpc::k8s {

/// Dense id of a stored object: its slot in the store's arena. Valid for
/// one incarnation — `remove` frees the slot and a later `add` (of any
/// name) may reuse it — so anything that outlives the object's lifetime,
/// such as a timer, holds an `ObjectRef` instead.
using ObjectId = std::uint32_t;
inline constexpr ObjectId kNoObject = std::numeric_limits<ObjectId>::max();

/// One incarnation of a stored object: its id plus its uid, which is never
/// reused (Kubernetes' `metadata.uid`). Resolving the ref of a removed
/// object yields nothing, even after its id or its name is reused.
struct ObjectRef {
  ObjectId id = kNoObject;
  std::uint64_t uid = 0;
};

/// Kubernetes-style object metadata: stable name, monotonically increasing
/// resource version (bumped by the store on every write), labels, and the
/// creation timestamp in virtual time. `id` and `uid` are assigned by the
/// store on `add`; callers leave them default.
struct ObjectMeta {
  std::string name;
  std::uint64_t resource_version = 0;
  std::map<std::string, std::string> labels;
  double creation_time = 0.0;
  ObjectId id = kNoObject;
  std::uint64_t uid = 0;  ///< resource version at creation

  ObjectRef ref() const { return {id, uid}; }
};

/// Requested/allocatable compute resources. CPUs are whole vCPUs ("slots" in
/// the paper's terms: 1 worker replica = 1 vCPU with the non-SMP build);
/// memory in MiB.
struct Resources {
  int cpus = 0;
  int memory_mib = 0;

  Resources operator+(const Resources& o) const {
    return {cpus + o.cpus, memory_mib + o.memory_mib};
  }
  Resources operator-(const Resources& o) const {
    return {cpus - o.cpus, memory_mib - o.memory_mib};
  }
  bool fits_within(const Resources& capacity) const {
    return cpus <= capacity.cpus && memory_mib <= capacity.memory_mib;
  }
  bool operator==(const Resources& o) const = default;
};

/// A worker node (the paper's testbed: 4 × c6g.4xlarge, 16 vCPUs each).
struct Node {
  ObjectMeta meta;
  Resources capacity;
  bool ready = true;
};

enum class PodPhase {
  kPending,      ///< created, not yet bound to a node
  kScheduled,    ///< bound, container starting
  kRunning,
  kSucceeded,
  kFailed,
  kTerminating,  ///< deletion requested, grace period running
};

std::string to_string(PodPhase phase);

/// The label that names a pod's owning job. The cluster index groups pods by
/// it (`ClusterIndex::pods_with_label`).
inline constexpr const char* kJobLabel = "job";

/// A pod: one schedulable unit. Worker pods carry the owning job's name in
/// labels["job"], which pod affinity uses for locality-aware placement.
struct Pod {
  ObjectMeta meta;
  Resources request{1, 512};
  /// Soft pod-affinity: prefer nodes already hosting pods whose labels match
  /// this key/value (empty = no affinity). The Charm++ operator sets
  /// affinity_key="job" so a job's workers pack together (paper §3.1).
  std::string affinity_key;
  std::string affinity_value;
  PodPhase phase = PodPhase::kPending;
  std::string node_name;  ///< empty until bound
  double scheduled_time = -1.0;
  double running_time = -1.0;
};

/// Label-selector helper: true when every (key, value) in `selector` appears
/// in `labels`.
bool matches_labels(const std::map<std::string, std::string>& labels,
                    const std::map<std::string, std::string>& selector);

}  // namespace ehpc::k8s
