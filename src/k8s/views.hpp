#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "k8s/api.hpp"
#include "k8s/store.hpp"

namespace ehpc::k8s {

/// Incrementally-maintained indexed views over the node/pod stores — the
/// FileSystemView pattern: a flat object store stays the source of truth,
/// and every query the hot paths need is answered from an index that each
/// mutation updates in O(log n), never from a linear rescan.
///
/// Maintained views:
///   - per-node allocated resources (`used_on`) and per-node counts of bound
///     pods by label pair (the scheduler's soft-affinity term);
///   - the pending-pod queue in name order (the scheduler's retry order);
///   - the pods of each job (`labels[kJobLabel]`), in name order: the
///     controller's teardown order and nodelist;
///   - cluster aggregates: total ready CPUs, CPUs claimed by non-finished
///     pods, CPUs claimed by bound non-finished pods — all O(1) reads;
///   - placement buckets: ready nodes grouped by CPU allocation ratio in a
///     sorted map, so binpack/spread pick the best feasible node by walking
///     buckets in score order instead of scoring every node.
///
/// Keys are dense ids, not names: pods by their store `ObjectId`, label
/// pairs by an interned id released when the last pod carrying the pair
/// goes, nodes by a slot of this index (a binding may name a node the store
/// does not hold). Every table is therefore sized by the live high-water
/// mark, not by the names ever seen. Name order survives where a caller
/// observes it: the pending queue and the job pod lists compare pod names,
/// and each node carries a rank, fixed when the index first sees its name,
/// that orders nodes by name (buckets iterate by rank; placement ties go to
/// the lower rank).
///
/// Consistency: the index attaches `ObjectStore` views, which run
/// synchronously inside every mutation — so all queries here are exact with
/// respect to the stores at all times, including mid-window while watch
/// delivery is batched. Construction bootstraps from the stores' current
/// contents, so the index may be attached to non-empty stores.
///
/// Semantics match the historical scan-based queries bit for bit:
///   - a pod claims node resources iff it is bound (`node_name` set) and not
///     Succeeded/Failed (Terminating pods hold their request until removed);
///   - the affinity count includes bound pods of *any* phase (the historical
///     colocation scan had no phase filter);
///   - `used_on` of an unknown node name is zero resources.
class ClusterIndex {
 public:
  /// Deterministic query-cost counters (virtual-time invariant), used by the
  /// scale bench to pin scheduler tick cost in a committed baseline.
  struct Stats {
    std::int64_t placement_queries = 0;  ///< best_node calls
    std::int64_t nodes_examined = 0;     ///< fit/score evaluations inside them
  };

  /// Slots held by the index's id-keyed tables (for bounded-memory checks).
  struct Footprint {
    std::size_t pod_slots = 0;    ///< per-pod entries (pod store high-water)
    std::size_t node_slots = 0;   ///< per-node entries, live and free
    std::size_t label_slots = 0;  ///< interned label pairs, live and free
    std::size_t live_labels = 0;  ///< label pairs carried by a live pod
  };

  /// Orders pod ids by pod name.
  struct PodNameOrder {
    const ObjectStore<Pod>* pods;
    bool operator()(ObjectId a, ObjectId b) const {
      return pods->name_less(a, b);
    }
  };
  using PodQueue = std::set<ObjectId, PodNameOrder>;

  ClusterIndex(ObjectStore<Node>& nodes, ObjectStore<Pod>& pods);

  ClusterIndex(const ClusterIndex&) = delete;
  ClusterIndex& operator=(const ClusterIndex&) = delete;

  /// Resources claimed on `node` by bound, non-finished pods.
  Resources used_on(const std::string& node) const;

  /// Bound pods on `node` whose labels carry `key`=`value` (any phase).
  int colocated(const std::string& node, const std::string& key,
                const std::string& value) const;

  /// Total CPU capacity across ready nodes.
  int total_cpus() const { return total_cpus_; }
  /// CPUs claimed by non-finished pods (including still-pending ones).
  int used_cpus() const { return used_cpus_; }
  /// CPUs claimed by bound non-finished pods (what a monitor observes).
  int bound_cpus() const { return bound_cpus_; }

  /// Pending pods in name order: the scheduler's retry queue.
  const PodQueue& pending() const { return pending_; }

  /// Pods in `phase`, in name order. O(pods): a diagnostic, not a hot path
  /// (the pending queue is `pending()`).
  std::vector<ObjectId> pods_in_phase(PodPhase phase) const;

  /// Pods (any phase, bound or not) carrying `key`=`value`, in name order.
  /// Only the job label is indexed: `key` must be `kJobLabel`.
  const std::vector<ObjectId>& pods_with_label(std::string_view key,
                                               std::string_view value) const;

  /// Best feasible node for `pod` under the given scoring parameters, or
  /// empty if nothing fits. Exactly the historical all-nodes scan semantics:
  /// score = ±allocation ratio (+ affinity bonus), winner = first node in
  /// name order with a strictly greater score. Implemented as an
  /// O(affinity candidates + buckets-until-fit) walk instead of O(nodes ×
  /// pods).
  std::string best_node(const Pod& pod, bool prefer_packed,
                        double affinity_weight) const;

  const Stats& stats() const { return stats_; }
  Footprint footprint() const;

 private:
  using NodeSlot = std::uint32_t;
  using LabelId = std::uint32_t;
  static constexpr NodeSlot kNoNode = std::numeric_limits<NodeSlot>::max();
  static constexpr LabelId kNoLabel = std::numeric_limits<LabelId>::max();

  /// Bound pods on one node carrying one label pair.
  struct LabelCount {
    LabelId label;
    int count;
    std::uint32_t pos;  ///< this node's position in the label's `nodes`
  };
  struct NodeEntry {
    std::string name;
    std::uint64_t rank = 0;  ///< orders entries by name
    Resources capacity;
    Resources used;
    bool ready = false;
    bool exists = false;  ///< false: placeholder created by an orphan binding
    int bound_pods = 0;   ///< pods bound here (any phase); keeps the entry
    /// Bound pods on this node by label pair (any phase) — the affinity term.
    std::vector<LabelCount> labels;
  };
  struct LabelEntry {
    std::string key;
    std::string value;
    int pods = 0;  ///< live pods carrying the pair; 0 = slot free
    /// Nodes hosting bound pods with this pair: the affinity candidates.
    std::vector<NodeSlot> nodes;
    /// Pods carrying the pair, in name order (job label only).
    std::vector<ObjectId> members;
  };
  struct PodEntry {
    PodPhase phase = PodPhase::kPending;
    NodeSlot node = kNoNode;
    Resources claim;  ///< request while claiming resources, else zero
    std::vector<LabelId> labels;
    LabelId job = kNoLabel;
  };
  struct LabelView {
    std::string_view key;
    std::string_view value;
  };
  struct LabelHash {
    using is_transparent = void;
    const std::vector<LabelEntry>* labels;
    std::size_t operator()(LabelView v) const;
    std::size_t operator()(LabelId id) const;
  };
  struct LabelEq {
    using is_transparent = void;
    const std::vector<LabelEntry>* labels;
    LabelView view(LabelId id) const;
    bool operator()(LabelId a, LabelId b) const { return a == b; }
    bool operator()(LabelView a, LabelId b) const;
    bool operator()(LabelId a, LabelView b) const;
  };
  /// A ready node in a placement bucket: (rank, slot).
  using Bucket = std::set<std::pair<std::uint64_t, NodeSlot>>;

  void on_node_event(const Node* before, const Node* after);
  void on_pod_event(const Pod* before, const Pod* after);

  NodeSlot node_slot(const std::string& name);  ///< finds or creates
  NodeSlot find_node(std::string_view name) const;
  void release_node_if_unused(NodeSlot slot);
  void renumber_ranks();
  void bind(NodeSlot slot, Resources claim, const std::vector<LabelId>& labels);
  void unbind(NodeSlot slot, Resources claim,
              const std::vector<LabelId>& labels);
  void set_used(NodeSlot slot, Resources used);
  void bucket_erase(NodeSlot slot);
  void bucket_insert(NodeSlot slot);
  static double alloc_ratio(const NodeEntry& entry);
  static LabelCount* find_count(NodeEntry& entry, LabelId label);
  static int label_count(const NodeEntry& entry, LabelId label);

  LabelId find_label(std::string_view key, std::string_view value) const;
  void intern_labels(PodEntry& pod, ObjectId id, const Pod& object);
  void release_labels(PodEntry& pod, ObjectId id);

  const ObjectStore<Pod>& pod_store_;
  std::vector<NodeEntry> nodes_;
  std::vector<NodeSlot> free_nodes_;
  /// Node entries by name: resolves bindings and fixes each rank.
  std::map<std::string, NodeSlot, std::less<>> node_names_;
  /// Ready nodes by CPU allocation ratio, name-ordered within a bucket.
  std::map<double, Bucket> by_ratio_;
  std::vector<PodEntry> pods_;  ///< by pod id
  PodQueue pending_;
  std::vector<LabelEntry> labels_;
  std::vector<LabelId> free_labels_;
  std::unordered_set<LabelId, LabelHash, LabelEq> label_ids_;
  int total_cpus_ = 0;
  int used_cpus_ = 0;
  int bound_cpus_ = 0;
  mutable Stats stats_;
};

}  // namespace ehpc::k8s
