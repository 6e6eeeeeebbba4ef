#include "k8s/views.hpp"

#include <algorithm>
#include <limits>

namespace ehpc::k8s {

namespace {

/// Finished pods release their resource claim (but keep their labels
/// counted for affinity while bound — the historical colocation scan had no
/// phase filter).
bool claims_resources(const Pod& pod) {
  return pod.phase != PodPhase::kSucceeded && pod.phase != PodPhase::kFailed;
}

/// Rank distance between consecutive nodes after a renumbering; a node
/// named between two others takes the midpoint of their ranks.
constexpr std::uint64_t kRankSpacing = std::uint64_t{1} << 32;

const std::vector<ObjectId> kNoPods;

/// A slot for a new entry: the most recently freed one, else a new one.
template <typename Entries, typename Id>
Id take_slot(Entries& entries, std::vector<Id>& free) {
  if (free.empty()) {
    entries.emplace_back();
    return static_cast<Id>(entries.size() - 1);
  }
  const Id id = free.back();
  free.pop_back();
  return id;
}

}  // namespace

std::size_t ClusterIndex::LabelHash::operator()(LabelView v) const {
  const std::hash<std::string_view> h;
  return h(v.key) * 0x9e3779b97f4a7c15ULL ^ h(v.value);
}

std::size_t ClusterIndex::LabelHash::operator()(LabelId id) const {
  const LabelEntry& entry = (*labels)[id];
  return (*this)(LabelView{entry.key, entry.value});
}

ClusterIndex::LabelView ClusterIndex::LabelEq::view(LabelId id) const {
  const LabelEntry& entry = (*labels)[id];
  return {entry.key, entry.value};
}

bool ClusterIndex::LabelEq::operator()(LabelView a, LabelId b) const {
  const LabelView v = view(b);
  return a.key == v.key && a.value == v.value;
}

bool ClusterIndex::LabelEq::operator()(LabelId a, LabelView b) const {
  return (*this)(b, a);
}

ClusterIndex::ClusterIndex(ObjectStore<Node>& nodes, ObjectStore<Pod>& pods)
    : pod_store_(pods),
      pending_(PodNameOrder{&pods}),
      label_ids_(0, LabelHash{&labels_}, LabelEq{&labels_}) {
  // Bootstrap from current contents, then track every later mutation.
  for (const Node* node : nodes.list()) on_node_event(nullptr, node);
  for (const Pod* pod : pods.list()) on_pod_event(nullptr, pod);
  nodes.attach_view(
      [this](WatchEvent, const Node* before, const Node* after) {
        on_node_event(before, after);
      });
  pods.attach_view([this](WatchEvent, const Pod* before, const Pod* after) {
    on_pod_event(before, after);
  });
}

double ClusterIndex::alloc_ratio(const NodeEntry& entry) {
  return entry.capacity.cpus > 0
             ? static_cast<double>(entry.used.cpus) / entry.capacity.cpus
             : 0.0;
}

// ---- nodes ----

ClusterIndex::NodeSlot ClusterIndex::find_node(std::string_view name) const {
  auto it = node_names_.find(name);
  return it == node_names_.end() ? kNoNode : it->second;
}

ClusterIndex::NodeSlot ClusterIndex::node_slot(const std::string& name) {
  auto it = node_names_.lower_bound(name);
  if (it != node_names_.end() && it->first == name) return it->second;
  const NodeSlot slot = take_slot(nodes_, free_nodes_);
  nodes_[slot].name = name;
  // A placeholder (exists=false) until the node store adds the node; an
  // orphan binding creates one too.
  const auto pos = node_names_.emplace_hint(it, name, slot);
  const std::uint64_t lo =
      pos == node_names_.begin() ? 0 : nodes_[std::prev(pos)->second].rank;
  const auto next = std::next(pos);
  if (next == node_names_.end()) {
    nodes_[slot].rank = lo + kRankSpacing;
  } else if (const std::uint64_t hi = nodes_[next->second].rank; hi - lo > 1) {
    nodes_[slot].rank = lo + (hi - lo) / 2;
  } else {
    renumber_ranks();
  }
  return slot;
}

void ClusterIndex::renumber_ranks() {
  std::uint64_t rank = 0;
  for (const auto& [name, slot] : node_names_) {
    nodes_[slot].rank = rank += kRankSpacing;
  }
  by_ratio_.clear();
  for (const auto& [name, slot] : node_names_) bucket_insert(slot);
}

void ClusterIndex::release_node_if_unused(NodeSlot slot) {
  NodeEntry& entry = nodes_[slot];
  if (entry.exists || entry.bound_pods > 0) return;
  node_names_.erase(entry.name);
  entry = NodeEntry{};
  free_nodes_.push_back(slot);
}

void ClusterIndex::bucket_erase(NodeSlot slot) {
  const NodeEntry& entry = nodes_[slot];
  if (!entry.exists || !entry.ready) return;
  auto it = by_ratio_.find(alloc_ratio(entry));
  EHPC_EXPECTS(it != by_ratio_.end());
  it->second.erase({entry.rank, slot});
  if (it->second.empty()) by_ratio_.erase(it);
}

void ClusterIndex::bucket_insert(NodeSlot slot) {
  const NodeEntry& entry = nodes_[slot];
  if (!entry.exists || !entry.ready) return;
  by_ratio_[alloc_ratio(entry)].insert({entry.rank, slot});
}

void ClusterIndex::set_used(NodeSlot slot, Resources used) {
  NodeEntry& entry = nodes_[slot];
  const double from = alloc_ratio(entry);
  entry.used = used;
  const double to = alloc_ratio(entry);
  if (!entry.exists || !entry.ready || to == from) return;
  // Move the set node itself rather than erase and re-insert the key.
  auto src = by_ratio_.find(from);
  EHPC_EXPECTS(src != by_ratio_.end());
  auto moved = src->second.extract({entry.rank, slot});
  if (src->second.empty()) by_ratio_.erase(src);
  by_ratio_[to].insert(std::move(moved));
}

void ClusterIndex::on_node_event(const Node* before, const Node* after) {
  if (before != nullptr) {
    const NodeSlot slot = find_node(before->meta.name);
    EHPC_EXPECTS(slot != kNoNode);
    bucket_erase(slot);
    NodeEntry& entry = nodes_[slot];
    if (entry.exists && entry.ready) total_cpus_ -= entry.capacity.cpus;
    entry.exists = false;
    entry.ready = false;
    // Deleted: drop the entry once no bound pod still references it.
    if (after == nullptr) release_node_if_unused(slot);
  }
  if (after != nullptr) {
    const NodeSlot slot = node_slot(after->meta.name);
    NodeEntry& entry = nodes_[slot];
    entry.exists = true;
    entry.capacity = after->capacity;
    entry.ready = after->ready;
    if (entry.ready) total_cpus_ += entry.capacity.cpus;
    bucket_insert(slot);
  }
}

ClusterIndex::LabelCount* ClusterIndex::find_count(NodeEntry& entry,
                                                   LabelId label) {
  for (LabelCount& lc : entry.labels) {
    if (lc.label == label) return &lc;
  }
  return nullptr;
}

int ClusterIndex::label_count(const NodeEntry& entry, LabelId label) {
  for (const LabelCount& lc : entry.labels) {
    if (lc.label == label) return lc.count;
  }
  return 0;
}

void ClusterIndex::bind(NodeSlot slot, Resources claim,
                        const std::vector<LabelId>& labels) {
  NodeEntry& entry = nodes_[slot];
  ++entry.bound_pods;
  if (claim != Resources{}) {
    set_used(slot, entry.used + claim);
    bound_cpus_ += claim.cpus;
  }
  for (const LabelId label : labels) {
    if (LabelCount* count = find_count(entry, label)) {
      ++count->count;
      continue;
    }
    std::vector<NodeSlot>& hosts = labels_[label].nodes;
    entry.labels.push_back(
        {label, 1, static_cast<std::uint32_t>(hosts.size())});
    hosts.push_back(slot);
  }
}

void ClusterIndex::unbind(NodeSlot slot, Resources claim,
                          const std::vector<LabelId>& labels) {
  NodeEntry& entry = nodes_[slot];
  if (claim != Resources{}) {
    set_used(slot, entry.used - claim);
    bound_cpus_ -= claim.cpus;
  }
  for (const LabelId label : labels) {
    LabelCount* count = find_count(entry, label);
    EHPC_EXPECTS(count != nullptr);
    if (--count->count > 0) continue;
    // Last such pod here: swap-remove this node from the label's hosts,
    // and this label from the node's counts.
    std::vector<NodeSlot>& hosts = labels_[label].nodes;
    hosts[count->pos] = hosts.back();
    find_count(nodes_[hosts.back()], label)->pos = count->pos;
    hosts.pop_back();
    *count = entry.labels.back();
    entry.labels.pop_back();
  }
  --entry.bound_pods;
  release_node_if_unused(slot);
}

// ---- labels ----

ClusterIndex::LabelId ClusterIndex::find_label(std::string_view key,
                                               std::string_view value) const {
  auto it = label_ids_.find(LabelView{key, value});
  return it == label_ids_.end() ? kNoLabel : *it;
}

void ClusterIndex::intern_labels(PodEntry& pod, ObjectId id,
                                 const Pod& object) {
  for (const auto& [key, value] : object.meta.labels) {
    LabelId label = find_label(key, value);
    if (label == kNoLabel) {
      label = take_slot(labels_, free_labels_);
      labels_[label].key = key;
      labels_[label].value = value;
      label_ids_.insert(label);
    }
    ++labels_[label].pods;
    pod.labels.push_back(label);
    if (key == kJobLabel) {
      pod.job = label;
      std::vector<ObjectId>& members = labels_[label].members;
      members.insert(std::lower_bound(members.begin(), members.end(), id,
                                      PodNameOrder{&pod_store_}),
                     id);
    }
  }
}

void ClusterIndex::release_labels(PodEntry& pod, ObjectId id) {
  for (const LabelId label : pod.labels) {
    LabelEntry& entry = labels_[label];
    if (label == pod.job) {
      auto it = std::lower_bound(entry.members.begin(), entry.members.end(),
                                 id, PodNameOrder{&pod_store_});
      EHPC_EXPECTS(it != entry.members.end() && *it == id);
      entry.members.erase(it);
    }
    if (--entry.pods > 0) continue;
    label_ids_.erase(label);
    entry = LabelEntry{};
    free_labels_.push_back(label);
  }
  pod.labels.clear();
  pod.job = kNoLabel;
}

// ---- pods ----

void ClusterIndex::on_pod_event(const Pod* before, const Pod* after) {
  const ObjectId id = (after != nullptr ? after : before)->meta.id;
  if (pods_.size() <= id) pods_.resize(static_cast<std::size_t>(id) + 1);
  PodEntry& pod = pods_[id];

  if (after == nullptr) {  // deleted
    if (pod.phase == PodPhase::kPending) pending_.erase(id);
    used_cpus_ -= pod.claim.cpus;
    if (pod.node != kNoNode) unbind(pod.node, pod.claim, pod.labels);
    release_labels(pod, id);
    pod.node = kNoNode;
    pod.claim = {};
    pod.phase = PodPhase::kPending;
    return;
  }

  const Resources claim = claims_resources(*after) ? after->request
                                                   : Resources{};
  NodeSlot node = kNoNode;
  if (!after->node_name.empty()) {
    node = pod.node != kNoNode && nodes_[pod.node].name == after->node_name
               ? pod.node
               : node_slot(after->node_name);
  }

  if (before == nullptr) {  // added
    pod.phase = after->phase;
    pod.claim = claim;
    pod.node = node;
    intern_labels(pod, id, *after);
    if (pod.phase == PodPhase::kPending) pending_.insert(id);
    used_cpus_ += claim.cpus;
    if (node != kNoNode) bind(node, claim, pod.labels);
    return;
  }

  // Modified: apply only what changed.
  const bool was_pending = pod.phase == PodPhase::kPending;
  const bool now_pending = after->phase == PodPhase::kPending;
  if (was_pending && !now_pending) pending_.erase(id);
  if (!was_pending && now_pending) pending_.insert(id);
  pod.phase = after->phase;
  used_cpus_ += claim.cpus - pod.claim.cpus;

  if (before->meta.labels != after->meta.labels) {
    // Rare: bind under the new labels before releasing the old ones, so a
    // shared node entry or label id is never dropped in between.
    PodEntry old = pod;
    pod.labels.clear();
    pod.job = kNoLabel;
    intern_labels(pod, id, *after);
    pod.node = node;
    pod.claim = claim;
    if (node != kNoNode) bind(node, claim, pod.labels);
    if (old.node != kNoNode) unbind(old.node, old.claim, old.labels);
    release_labels(old, id);
    return;
  }
  if (node != pod.node) {
    const NodeSlot old_node = pod.node;
    const Resources old_claim = pod.claim;
    pod.node = node;
    pod.claim = claim;
    if (node != kNoNode) bind(node, claim, pod.labels);
    if (old_node != kNoNode) unbind(old_node, old_claim, pod.labels);
    return;
  }
  if (node != kNoNode && claim != pod.claim) {
    set_used(node, nodes_[node].used - pod.claim + claim);
    bound_cpus_ += claim.cpus - pod.claim.cpus;
  }
  pod.claim = claim;
}

// ---- queries ----

Resources ClusterIndex::used_on(const std::string& node) const {
  const NodeSlot slot = find_node(node);
  return slot == kNoNode ? Resources{} : nodes_[slot].used;
}

int ClusterIndex::colocated(const std::string& node, const std::string& key,
                            const std::string& value) const {
  const NodeSlot slot = find_node(node);
  const LabelId label = find_label(key, value);
  if (slot == kNoNode || label == kNoLabel) return 0;
  return label_count(nodes_[slot], label);
}

std::vector<ObjectId> ClusterIndex::pods_in_phase(PodPhase phase) const {
  std::vector<ObjectId> out;
  for (ObjectId id = 0; id < pods_.size(); ++id) {
    if (pods_[id].phase == phase && pod_store_.find(id) != nullptr) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end(), PodNameOrder{&pod_store_});
  return out;
}

const std::vector<ObjectId>& ClusterIndex::pods_with_label(
    std::string_view key, std::string_view value) const {
  EHPC_EXPECTS(key == kJobLabel);
  const LabelId label = find_label(key, value);
  return label == kNoLabel ? kNoPods : labels_[label].members;
}

ClusterIndex::Footprint ClusterIndex::footprint() const {
  return {pods_.size(), nodes_.size(), labels_.size(), label_ids_.size()};
}

std::string ClusterIndex::best_node(const Pod& pod, bool prefer_packed,
                                    double affinity_weight) const {
  ++stats_.placement_queries;
  NodeSlot best = kNoNode;
  double best_score = -std::numeric_limits<double>::infinity();

  // Affinity candidates carry a score bonus, so they are evaluated
  // individually. Their list is unordered; the historical scan's tie-break
  // (first node in name order) becomes the lower rank on an equal score.
  const LabelId affinity = pod.affinity_key.empty()
                               ? kNoLabel
                               : find_label(pod.affinity_key,
                                            pod.affinity_value);
  if (affinity != kNoLabel) {
    for (const NodeSlot slot : labels_[affinity].nodes) {
      const NodeEntry& entry = nodes_[slot];
      if (!entry.exists || !entry.ready) continue;
      ++stats_.nodes_examined;
      if (!(entry.used + pod.request).fits_within(entry.capacity)) continue;
      double score = prefer_packed ? alloc_ratio(entry) : -alloc_ratio(entry);
      score += affinity_weight * label_count(entry, affinity) /
               std::max(1, entry.capacity.cpus);
      if (best == kNoNode || score > best_score ||
          (score == best_score && entry.rank < nodes_[best].rank)) {
        best_score = score;
        best = slot;
      }
    }
  }

  // Plain candidates share a score within a ratio bucket, so the first
  // fitting node of the best feasible bucket is the plain optimum. Walk
  // buckets in score order and stop as soon as no later bucket can win.
  const auto scan_bucket = [&](double ratio, const Bucket& bucket) {
    const double score = prefer_packed ? ratio : -ratio;
    if (best != kNoNode && score < best_score) return true;  // done
    const bool tie = best != kNoNode && score == best_score;
    for (const auto& [rank, slot] : bucket) {
      const NodeEntry& entry = nodes_[slot];
      if (affinity != kNoLabel && label_count(entry, affinity) > 0) {
        continue;  // scored above, with the bonus
      }
      ++stats_.nodes_examined;
      if (!(entry.used + pod.request).fits_within(entry.capacity)) continue;
      if (tie) {
        // Equal scores resolve to the first node in global name order
        // (the historical scan kept the first strict maximum).
        if (rank < nodes_[best].rank) best = slot;
      } else {
        best_score = score;
        best = slot;
      }
      return true;  // later nodes in this bucket can only rank higher
    }
    return false;  // nothing fits here, try the next bucket
  };

  if (prefer_packed) {
    for (auto it = by_ratio_.rbegin(); it != by_ratio_.rend(); ++it) {
      // A CPU-saturated bucket cannot fit a CPU-requesting pod; skip it
      // without touching its (possibly many) nodes.
      if (pod.request.cpus > 0 && it->first >= 1.0) continue;
      if (scan_bucket(it->first, it->second)) break;
    }
  } else {
    for (const auto& [ratio, bucket] : by_ratio_) {
      if (pod.request.cpus > 0 && ratio >= 1.0) continue;
      if (scan_bucket(ratio, bucket)) break;
    }
  }
  return best == kNoNode ? std::string() : nodes_[best].name;
}

}  // namespace ehpc::k8s
