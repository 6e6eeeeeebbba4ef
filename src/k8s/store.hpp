#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "k8s/api.hpp"

namespace ehpc::k8s {

/// Kind of change delivered to watchers.
enum class WatchEvent { kAdded, kModified, kDeleted };

/// A typed, versioned object store — the API-server role of the substrate.
/// Every mutation bumps the object's resourceVersion; the scheduler, kubelets
/// and the operator's controller react to cluster changes through watchers
/// (the "watch" machinery of real Kubernetes, collapsed into an in-process
/// call graph driven by the simulation).
///
/// Two observation mechanisms with different consistency contracts:
///
/// **Views** (attach_view) are incrementally-maintained indexes. A view
/// callback runs *synchronously inside every mutation*, receiving the event
/// kind plus the before/after images of the object:
///   - `kAdded`:    before == nullptr, after == stored object
///   - `kModified`: before == pre-image,  after == post-image
///   - `kDeleted`:  before == final image, after == nullptr
/// Invariant: when any mutating call (`add`/`update`/`mutate`/`remove`)
/// returns, every attached view has already observed the change — a view's
/// derived state is never stale with respect to `get`/`list`, regardless of
/// delivery mode. Views must not mutate the store re-entrantly.
///
/// **Watchers** (watch) model the asynchronous watch channel. In the default
/// *immediate* mode they fire synchronously per mutation, in registration
/// order — the historical behavior. After `enable_batched_delivery`, events
/// are instead queued and delivered at an explicit `flush()` (scheduled by
/// the owner at a deterministic point in virtual time), with per-object
/// coalescing so a watcher's reaction cost scales with *distinct changed
/// objects* rather than raw mutation count.
///
/// Batched-delivery guarantees:
///   - Delivery is event-major: queued events are replayed in enqueue order,
///     and each event is handed to all eligible watchers in registration
///     order before the next event — the same interleaving a synchronous
///     store produces for the surviving events.
///   - Coalescing: a run of `kModified` events for one object with no
///     intervening `kAdded`/`kDeleted` of that object collapses into a
///     single event at the run's *first* queue position carrying the run's
///     *final* state. `kAdded` and `kDeleted` are never coalesced or
///     elided — an add+delete inside one window delivers both, so watchers
///     keyed on lifecycle edges (e.g. the scheduler's retry-on-delete) see
///     every edge.
///   - Snapshots: watchers receive the object state captured at coalescing
///     time, so a `kDeleted` event delivers the object's final image even
///     though it has left the store.
///   - A watcher registered mid-window sees only events enqueued after its
///     registration; a Modified run that began earlier stays folded into
///     its pre-registration queue position and is not replayed to it.
///   - Events enqueued *during* a flush (a watcher mutating the store) are
///     appended and drained by the same flush, after the already-queued
///     events; they are not coalesced into earlier positions.
///
/// Storage: objects live in an id-indexed arena (`ObjectId`, assigned on
/// `add`, recycled through a free list on `remove`, so the arena is sized
/// by the live high-water mark), and a name resolves to its id with one
/// hash lookup. `list()` still returns objects in name order. The
/// reference `add`/`get` return stays valid until the object is removed.
///
/// T must expose an ObjectMeta member named `meta`. A `mutate` function
/// must not rename the object.
template <typename T>
class ObjectStore {
 public:
  using Watcher = std::function<void(WatchEvent, const T&)>;
  using View = std::function<void(WatchEvent, const T* before, const T* after)>;
  using FlushRequester = std::function<void()>;

  ObjectStore() : names_(0, NameHash{this}, NameEq{this}) {}
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Insert a new object; its name must be unused. Returns the stored copy,
  /// with `meta.id` and `meta.uid` assigned.
  const T& add(T object) {
    EHPC_EXPECTS(!object.meta.name.empty());
    EHPC_EXPECTS(!contains(object.meta.name));
    ObjectId id;
    if (free_.empty()) {
      id = static_cast<ObjectId>(slots_.size());
      EHPC_EXPECTS(id != kNoObject);
      slots_.emplace_back();
    } else {
      id = free_.back();
      free_.pop_back();
    }
    object.meta.resource_version = ++version_counter_;
    object.meta.uid = object.meta.resource_version;
    object.meta.id = id;
    Slot& slot = slots_[id];
    slot.object = std::move(object);
    slot.live = true;
    names_.insert(id);
    notify_views(WatchEvent::kAdded, nullptr, &slot.object);
    dispatch(WatchEvent::kAdded, slot.object);
    return slot.object;
  }

  /// Replace an existing object (matched by name); it keeps its id and uid.
  const T& update(T object) {
    Slot& slot = slots_[id_of(object.meta.name)];
    object.meta.resource_version = ++version_counter_;
    object.meta.id = slot.object.meta.id;
    object.meta.uid = slot.object.meta.uid;
    T before = std::move(slot.object);
    slot.object = std::move(object);
    notify_views(WatchEvent::kModified, &before, &slot.object);
    dispatch(WatchEvent::kModified, slot.object);
    return slot.object;
  }

  /// Mutate an object in place through `fn`; bumps the version and notifies.
  template <typename Fn>
  const T& mutate(const std::string& name, Fn&& fn) {
    return mutate(id_of(name), std::forward<Fn>(fn));
  }

  template <typename Fn>
  const T& mutate(ObjectId id, Fn&& fn) {
    EHPC_EXPECTS(live(id));
    T& object = slots_[id].object;
    if (views_.empty()) {
      fn(object);
      object.meta.resource_version = ++version_counter_;
    } else {
      T before = object;  // pre-image for the views
      fn(object);
      object.meta.resource_version = ++version_counter_;
      notify_views(WatchEvent::kModified, &before, &object);
    }
    dispatch(WatchEvent::kModified, object);
    return object;
  }

  /// Delete by name. Returns false if absent.
  bool remove(const std::string& name) {
    auto it = names_.find(std::string_view(name));
    if (it == names_.end()) return false;
    remove(*it);
    return true;
  }

  /// Delete a live object by id. Views and watchers are notified while the
  /// object is already unresolvable by name and id but its slot is not yet
  /// reusable; the slot is freed once they return.
  void remove(ObjectId id) {
    EHPC_EXPECTS(live(id));
    Slot& slot = slots_[id];
    names_.erase(id);
    slot.live = false;
    notify_views(WatchEvent::kDeleted, &slot.object, nullptr);
    dispatch(WatchEvent::kDeleted, slot.object);
    slot.object = T{};
    free_.push_back(id);
  }

  bool contains(const std::string& name) const {
    return names_.find(std::string_view(name)) != names_.end();
  }

  const T& get(const std::string& name) const {
    return slots_[id_of(name)].object;
  }

  const T& get(ObjectId id) const {
    EHPC_EXPECTS(live(id));
    return slots_[id].object;
  }

  const T* find(const std::string& name) const {
    auto it = names_.find(std::string_view(name));
    return it == names_.end() ? nullptr : &slots_[*it].object;
  }

  /// The live object with this id, or nullptr.
  const T* find(ObjectId id) const {
    return live(id) ? &slots_[id].object : nullptr;
  }

  /// The incarnation `ref` names, or nullptr once it has been removed.
  const T* find(ObjectRef ref) const {
    const T* object = find(ref.id);
    return object != nullptr && object->meta.uid == ref.uid ? object : nullptr;
  }

  /// Id of the live object named `name`, or kNoObject.
  ObjectId find_id(const std::string& name) const {
    auto it = names_.find(std::string_view(name));
    return it == names_.end() ? kNoObject : *it;
  }

  /// Name order on ids: for live ids, and for the id of an object whose
  /// `kDeleted` notification is running.
  bool name_less(ObjectId a, ObjectId b) const {
    return slots_[a].object.meta.name < slots_[b].object.meta.name;
  }

  /// All objects in name order (deterministic iteration). Sorts: O(n log n).
  std::vector<const T*> list() const {
    return list_where([](const T&) { return true; });
  }

  /// Objects satisfying a predicate, in name order.
  template <typename Pred>
  std::vector<const T*> list_where(Pred&& pred) const {
    std::vector<const T*> out;
    for (const Slot& slot : slots_) {
      if (slot.live && pred(slot.object)) out.push_back(&slot.object);
    }
    std::sort(out.begin(), out.end(), [](const T* a, const T* b) {
      return a->meta.name < b->meta.name;
    });
    return out;
  }

  std::size_t size() const { return names_.size(); }

  /// Arena slots ever allocated (live + free): the live high-water mark.
  std::size_t capacity() const { return slots_.size(); }

  /// Register a watcher. Immediate mode: fires synchronously for every
  /// subsequent mutation. Batched mode: receives events enqueued from now
  /// on, at the next flush.
  void watch(Watcher watcher) {
    watchers_.push_back({std::move(watcher), batched_ ? log_.size() : 0});
  }

  /// Attach an incrementally-maintained view; immediately and synchronously
  /// invoked on every subsequent mutation (see class comment for the
  /// before/after contract). Views are not replayed for existing objects —
  /// a view that must bootstrap walks `list()` itself before attaching.
  void attach_view(View view) { views_.push_back(std::move(view)); }

  /// Register a batch observer: called once after each delivered batch — in
  /// immediate mode after every mutation's watcher fan-out, in batched mode
  /// once per flush. Use for per-window sampling (e.g. one utilization
  /// sample per flush instead of one per mutation).
  void observe_batches(std::function<void()> fn) {
    batch_observers_.push_back(std::move(fn));
  }

  /// Switch watcher delivery to batched mode. `request_flush` is invoked at
  /// most once per window (on the first queued event since the last flush)
  /// and must arrange for `flush()` to be called at the desired point —
  /// typically `sim.schedule_now([&store]{ store.flush(); })`, which drains
  /// the window at the current virtual time after the in-flight event chain.
  void enable_batched_delivery(FlushRequester request_flush) {
    EHPC_EXPECTS(request_flush != nullptr);
    batched_ = true;
    request_flush_ = std::move(request_flush);
  }

  bool batched_delivery() const { return batched_; }

  /// Queued-but-undelivered events (0 in immediate mode).
  std::size_t pending_events() const { return log_.size(); }

  /// Deliver all queued events (see class comment for ordering guarantees).
  /// No-op when the queue is empty. Immediate-mode stores never queue, so
  /// calling flush() is always safe.
  void flush() {
    flush_requested_ = false;
    if (log_.empty()) return;
    flushing_ = true;
    // Index loops: watchers may register more watchers or enqueue more
    // events mid-flush; both vectors can grow (and reallocate) under us.
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const WatchEvent event = log_[i].event;
      const T snapshot = std::move(log_[i].snapshot);
      for (std::size_t w = 0; w < watchers_.size(); ++w) {
        if (i >= watchers_[w].registered_at) watchers_[w].fn(event, snapshot);
      }
    }
    for (const LogEntry& entry : log_) open_run_[entry.id] = 0;
    log_.clear();
    for (auto& w : watchers_) w.registered_at = 0;
    flushing_ = false;
    for (std::size_t i = 0; i < batch_observers_.size(); ++i) {
      batch_observers_[i]();
    }
  }

  std::uint64_t latest_version() const { return version_counter_; }

 private:
  struct WatcherEntry {
    Watcher fn;
    std::size_t registered_at;  ///< first queue index this watcher receives
  };
  struct LogEntry {
    WatchEvent event;
    ObjectId id;
    T snapshot;
  };
  struct Slot {
    T object;
    bool live = false;
  };
  /// The name index hashes and compares ids through their objects' names,
  /// and looks names up without building a key (transparent lookup).
  struct NameHash {
    using is_transparent = void;
    const ObjectStore* store;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
    std::size_t operator()(ObjectId id) const {
      return (*this)(std::string_view(store->slots_[id].object.meta.name));
    }
  };
  struct NameEq {
    using is_transparent = void;
    const ObjectStore* store;
    std::string_view name(ObjectId id) const {
      return store->slots_[id].object.meta.name;
    }
    bool operator()(ObjectId a, ObjectId b) const { return a == b; }
    bool operator()(std::string_view a, ObjectId b) const { return a == name(b); }
    bool operator()(ObjectId a, std::string_view b) const { return name(a) == b; }
  };

  bool live(ObjectId id) const { return id < slots_.size() && slots_[id].live; }

  ObjectId id_of(const std::string& name) const {
    auto it = names_.find(std::string_view(name));
    EHPC_EXPECTS(it != names_.end());
    return *it;
  }

  void notify_views(WatchEvent event, const T* before, const T* after) {
    for (std::size_t i = 0; i < views_.size(); ++i) {
      views_[i](event, before, after);
    }
  }

  void dispatch(WatchEvent event, const T& object) {
    if (!batched_) {
      for (std::size_t w = 0; w < watchers_.size(); ++w) {
        watchers_[w].fn(event, object);
      }
      for (std::size_t i = 0; i < batch_observers_.size(); ++i) {
        batch_observers_[i]();
      }
      return;
    }
    const ObjectId id = object.meta.id;
    if (open_run_.size() < slots_.size()) open_run_.resize(slots_.size(), 0);
    if (event == WatchEvent::kModified && !flushing_) {
      if (open_run_[id] != 0) {
        // Fold the run: final state wins.
        log_[open_run_[id] - 1].snapshot = object;
        return;
      }
      open_run_[id] = log_.size() + 1;
    } else {
      // An Added/Deleted edge ends any coalescible Modified run for this
      // object; mid-flush events append without coalescing (earlier queue
      // positions may already be delivered). Ids are per incarnation, and
      // every incarnation ends with a Deleted edge, so a reused id never
      // inherits a run.
      open_run_[id] = 0;
    }
    log_.push_back({event, id, object});
    if (!flush_requested_ && !flushing_) {
      flush_requested_ = true;
      request_flush_();
    }
  }

  std::deque<Slot> slots_;  ///< arena; deque: references survive growth
  std::vector<ObjectId> free_;
  std::unordered_set<ObjectId, NameHash, NameEq> names_;  ///< live ids
  std::vector<WatcherEntry> watchers_;
  std::vector<View> views_;
  std::vector<std::function<void()>> batch_observers_;
  std::vector<LogEntry> log_;
  /// Open Modified runs: 1 + queue position of the run, by id (0 = none).
  std::vector<std::size_t> open_run_;
  FlushRequester request_flush_;
  bool batched_ = false;
  bool flush_requested_ = false;
  bool flushing_ = false;
  std::uint64_t version_counter_ = 0;
};

}  // namespace ehpc::k8s
