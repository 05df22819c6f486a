// WsdDb: a probabilistic world-set decomposition of a finite set of
// possible databases (the paper's central data structure).
//
// Representation
//   - Each relation is stored as a *template relation*: its tuples exist
//     in some subset of the worlds, and each cell either holds an inline
//     (certain) value or references a slot of a component.
//   - The *component store* holds the independent factors. A world is one
//     row choice per component; its probability is the product of the
//     chosen rows' probabilities.
//   - A template tuple `t` exists in a world iff every slot owned by an
//     owner in `t.deps` is non-⊥ under that world's choices. Base tuples
//     own the slots of their uncertain fields; lifted operators attach
//     additional "existence slots" to encode survival of derived tuples.
#ifndef MAYBMS_CORE_WSD_H_
#define MAYBMS_CORE_WSD_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/component.h"
#include "core/types.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace maybms {

struct ShardPartition;  // core/shard.h
class DeltaBatch;       // core/delta.h

/// What a DeltaBatch touched: the invalidation unit handed to callers so
/// caches can be maintained delta-scoped instead of wholesale. Clusters
/// are keyed by component *content* (see ClusterIndex::ClusterKey), so a
/// dirty component automatically re-keys every cluster it participates
/// in — the effects report which components those are.
struct DeltaEffects {
  /// Components whose content changed (edited in place or created).
  std::vector<ComponentId> dirty_components;
  /// Components garbage-collected because no surviving tuple references
  /// or is gated by them.
  std::vector<ComponentId> removed_components;
  /// Storage keys (lowercased names) of relations whose tuple vectors
  /// changed or that reference a dirty component.
  std::vector<std::string> dirty_relations;
  size_t tuples_inserted = 0;
  size_t tuples_evicted = 0;
  /// Aggregated statistics of the batch's REPAIR KEY ops.
  size_t repair_groups = 0;
  size_t repair_conflicting_groups = 0;
  double repair_log2_worlds_added = 0.0;
  /// Aggregated statistics of the batch's ENFORCE ops.
  double enforce_removed_mass = 0.0;
  size_t enforce_rows_removed = 0;
  /// The database's mutation epoch after this batch applied.
  uint64_t epoch = 0;
};

/// A template cell: inline certain value or reference to a component slot.
class Cell {
 public:
  Cell() : rep_(Value::Null()) {}
  static Cell Certain(Value v) {
    Cell c;
    c.rep_ = std::move(v);
    return c;
  }
  static Cell Ref(FieldRef ref) {
    Cell c;
    c.rep_ = ref;
    return c;
  }

  bool is_certain() const { return std::holds_alternative<Value>(rep_); }
  bool is_ref() const { return !is_certain(); }
  const Value& value() const { return std::get<Value>(rep_); }
  const FieldRef& ref() const { return std::get<FieldRef>(rep_); }
  FieldRef& mutable_ref() { return std::get<FieldRef>(rep_); }

 private:
  std::variant<Value, FieldRef> rep_;
};

/// One tuple of a template relation.
struct WsdTuple {
  std::vector<Cell> cells;
  /// Sorted, deduplicated owner ids gating this tuple's existence.
  std::vector<OwnerId> deps;

  /// Adds an owner to deps, keeping the vector sorted and unique.
  void AddDep(OwnerId owner);
};

/// Read-only view of a relation's tuples, oldest first.
class TupleSpan {
 public:
  TupleSpan(const WsdTuple* data, size_t size) : data_(data), size_(size) {}
  const WsdTuple* begin() const { return data_; }
  const WsdTuple* end() const { return data_ + size_; }
  size_t size() const { return size_; }

 private:
  const WsdTuple* data_;
  size_t size_;
};

/// A template relation: schema plus world-dependent tuples.
///
/// Copy-on-write: copying a WsdRelation shares the tuple vector (an
/// O(1) pointer copy); the mutable accessors detach — clone the shared
/// vector — when it is shared. Catalog snapshots published to concurrent
/// readers (server/shared_catalog.h) rely on this: a writer's detach
/// never disturbs the tuples a reader's snapshot still references.
///
/// Retiring the oldest tuples (EraseOldest, the sliding-window
/// primitive) costs O(retired) amortized: retired tuples are released at
/// once but compacted out of the vector only when they make up half of
/// it.
class WsdRelation {
 public:
  WsdRelation() : tuples_(std::make_shared<std::vector<WsdTuple>>()) {}
  WsdRelation(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        tuples_(std::make_shared<std::vector<WsdTuple>>()) {}

  // Copies share the tuple vector and read the shard cache atomically (a
  // concurrent reader may be CAS-installing a partition on the source at
  // the same moment). Moves require exclusive access, like mutation.
  WsdRelation(const WsdRelation& o)
      : name_(o.name_),
        display_name_(o.display_name_),
        schema_(o.schema_),
        tuples_(o.tuples_),
        head_(o.head_),
        base_rows_(o.base_rows_),
        shards_(std::atomic_load(&o.shards_)) {}
  WsdRelation& operator=(const WsdRelation& o) {
    if (this == &o) return *this;
    name_ = o.name_;
    display_name_ = o.display_name_;
    schema_ = o.schema_;
    tuples_ = o.tuples_;
    head_ = o.head_;
    base_rows_ = o.base_rows_;
    shards_ = std::atomic_load(&o.shards_);
    return *this;
  }
  WsdRelation(WsdRelation&&) = default;
  WsdRelation& operator=(WsdRelation&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  /// Name used for schema disambiguation in products/joins (e.g. the
  /// base-relation name of a scan copy whose storage name is a temp).
  const std::string& display_name() const {
    return display_name_.empty() ? name_ : display_name_;
  }
  void set_display_name(std::string n) { display_name_ = std::move(n); }
  const Schema& schema() const { return schema_; }
  void set_schema(Schema s) { schema_ = std::move(s); }

  size_t NumTuples() const { return tuples_->size() - head_; }
  const WsdTuple& tuple(size_t i) const { return (*tuples_)[head_ + i]; }
  WsdTuple& mutable_tuple(size_t i) {
    Detach();
    return (*tuples_)[head_ + i];
  }
  TupleSpan tuples() const {
    return TupleSpan(tuples_->data() + head_, NumTuples());
  }
  /// Note: the returned reference is invalidated by copying this
  /// relation (or its database) — the next mutable access re-detaches.
  std::vector<WsdTuple>& mutable_tuples() {
    Detach();
    Compact();
    return *tuples_;
  }

  void Add(WsdTuple t) {
    Detach();
    tuples_->push_back(std::move(t));
  }
  /// Installs `tuples` as the relation's tuples. The current vector is
  /// released, not detached: a filter that keeps a few tuples of a
  /// shared relation copies only those.
  void SetTuples(std::vector<WsdTuple> tuples) {
    set_cached_shards(nullptr);
    tuples_ = std::make_shared<std::vector<WsdTuple>>(std::move(tuples));
    head_ = 0;
  }
  void Reserve(size_t n) {
    Detach();
    tuples_->reserve(head_ + n);
  }
  /// Rows of a mapped snapshot's relation that logically precede this
  /// relation's tuples (core/mapped_db.h): nonzero only in the write
  /// overlay of a MAPPED session, whose relations hold just the tuples
  /// inserted since the load. Evictions retire these rows first, and
  /// inserts count them in their slot labels, so the overlay allocates
  /// and labels exactly what the fully loaded relation would.
  size_t base_rows() const { return base_rows_; }
  void set_base_rows(size_t n) { base_rows_ = n; }

  /// Removes the oldest `n` tuples (n <= NumTuples()).
  void EraseOldest(size_t n) {
    Detach();
    for (size_t i = head_; i < head_ + n; ++i) (*tuples_)[i] = WsdTuple();
    head_ += n;
    if (2 * head_ >= tuples_->size()) Compact();
  }

  /// Cached shard partition (see core/shard.h). Invalidated by the tuple
  /// mutators above and by component mutation through the owning
  /// database (WsdDb::mutable_component and friends), since the
  /// partition records per-shard possible-value ranges read from the
  /// components. Accessed atomically: concurrent readers optimizing
  /// plans against a shared catalog may populate it simultaneously —
  /// GetShardPartition installs with compare-and-swap so one partition
  /// wins.
  std::shared_ptr<const ShardPartition> cached_shards() const {
    return std::atomic_load(&shards_);
  }
  void set_cached_shards(std::shared_ptr<const ShardPartition> p) const {
    std::atomic_store(&shards_, std::move(p));
  }
  /// CAS-installs `desired` if the cache still holds `*expected`
  /// (updating *expected to the current value on failure). Returns true
  /// when installed.
  bool cas_cached_shards(std::shared_ptr<const ShardPartition>* expected,
                         std::shared_ptr<const ShardPartition> desired) const {
    return std::atomic_compare_exchange_strong(&shards_, expected,
                                               std::move(desired));
  }

 private:
  /// Clones the tuple vector when it is shared with another relation
  /// (i.e. with another catalog version), so mutation stays private.
  /// use_count() == 1 proves uniqueness: other threads can only bump the
  /// count through a WsdRelation that already shares the vector, which
  /// would make the count >= 2 to begin with.
  void Detach() {
    set_cached_shards(nullptr);
    if (!tuples_) {
      tuples_ = std::make_shared<std::vector<WsdTuple>>();
      head_ = 0;
    } else if (tuples_.use_count() > 1) {
      tuples_ = std::make_shared<std::vector<WsdTuple>>(
          tuples_->begin() + static_cast<ptrdiff_t>(head_), tuples_->end());
      head_ = 0;
    }
  }
  /// Drops the retired prefix from the (unshared) vector.
  void Compact() {
    tuples_->erase(tuples_->begin(),
                   tuples_->begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }

  std::string name_;
  std::string display_name_;
  Schema schema_;
  /// Never null; shared across copies until a mutable accessor detaches.
  std::shared_ptr<std::vector<WsdTuple>> tuples_;
  /// (*tuples_)[0, head_) are retired tuples awaiting compaction.
  size_t head_ = 0;
  size_t base_rows_ = 0;
  mutable std::shared_ptr<const ShardPartition> shards_;
};

/// Tuning knobs for lifted evaluation.
struct WsdOptions {
  /// Hard cap on the row count of any merged component. Lifted operators
  /// return ResourceExhausted instead of exceeding it.
  size_t max_component_rows = 1u << 20;

  /// Target template rows per horizontal shard (core/shard.h); 0 keeps
  /// each relation in a single shard. Persisted by v3 snapshots so a
  /// mapped reader sees the same partition the writer used.
  size_t rows_per_shard = 4096;
};

/// A world-set database: template relations + component store.
///
/// Value type with copy-on-write semantics: copying a WsdDb copies the
/// relation map (whose relations share their tuple vectors) and a deque
/// of shared_ptrs to components — O(#relations + live component-id
/// span), not O(data). The first mutation of a shared relation or
/// component clones just that object, so copies stay logically
/// independent. This is what makes snapshot-isolated catalog versions
/// cheap to publish (server/shared_catalog.h) and lifted evaluation's
/// private input copies nearly free.
///
/// Thread safety: all const methods are safe to call concurrently as
/// long as no thread mutates this database object — value
/// materialization only reads the (internally synchronized) global
/// ValuePool, and the lazy caches (Component/Relation::GetStats, the
/// shard-partition cache) publish atomically. The parallel aggregate
/// paths (core/confidence.cc) and concurrent server sessions rely on
/// this. Distinct WsdDb copies sharing inner objects may be used from
/// different threads freely: mutators detach before writing.
class WsdDb {
 public:
  WsdDb() = default;

  // Copies and moves never inherit an active delta scope: the scope is a
  // frame-local recording hook owned by an in-flight ApplyDelta.
  WsdDb(const WsdDb& o)
      : relations_(o.relations_),
        components_(o.components_),
        first_id_(o.first_id_),
        ref_index_(o.ref_index_),
        next_owner_(o.next_owner_),
        options_(o.options_),
        mutation_epoch_(o.mutation_epoch_) {}
  WsdDb& operator=(const WsdDb& o) {
    if (this == &o) return *this;
    relations_ = o.relations_;
    components_ = o.components_;
    first_id_ = o.first_id_;
    ref_index_ = o.ref_index_;
    next_owner_ = o.next_owner_;
    options_ = o.options_;
    mutation_epoch_ = o.mutation_epoch_;
    delta_scope_ = nullptr;
    return *this;
  }
  WsdDb(WsdDb&& o) noexcept
      : relations_(std::move(o.relations_)),
        components_(std::move(o.components_)),
        first_id_(o.first_id_),
        ref_index_(std::move(o.ref_index_)),
        next_owner_(o.next_owner_),
        options_(o.options_),
        mutation_epoch_(o.mutation_epoch_) {}
  WsdDb& operator=(WsdDb&& o) noexcept {
    if (this == &o) return *this;
    relations_ = std::move(o.relations_);
    components_ = std::move(o.components_);
    first_id_ = o.first_id_;
    ref_index_ = std::move(o.ref_index_);
    next_owner_ = o.next_owner_;
    options_ = o.options_;
    mutation_epoch_ = o.mutation_epoch_;
    delta_scope_ = nullptr;
    return *this;
  }

  // --- relations ---------------------------------------------------------
  Status CreateRelation(std::string name, Schema schema);
  bool HasRelation(const std::string& name) const;
  Result<const WsdRelation*> GetRelation(const std::string& name) const;
  /// Mutable relation access. Like every mutator below, it drops the
  /// reference index (see RefIndex) when called outside ApplyDelta.
  Result<WsdRelation*> GetMutableRelation(const std::string& name);
  /// Removes the relation; its components stay (ApplyDelta's drop op is
  /// the one that collects them).
  Status DropRelation(const std::string& name);
  std::vector<std::string> RelationNames() const;
  const std::map<std::string, WsdRelation>& relations() const {
    return relations_;
  }
  std::map<std::string, WsdRelation>& mutable_relations() {
    DropRefIndexOutsideDelta();
    return relations_;
  }

  // --- components --------------------------------------------------------
  /// Adds a component, returning its id. Ids are monotone and never
  /// reused, so a stale id keeps reading as dead.
  ComponentId AddComponent(Component c);
  /// Places `c` at exactly `id` (snapshot loading: template cells
  /// reference the stored ids). `id` must be >= component_slot_count();
  /// the ids skipped over are dead.
  void PlaceComponent(ComponentId id, Component c);
  /// Component access; the id must be live.
  const Component& component(ComponentId id) const;
  /// Mutable component access: detaches the component if it is shared
  /// with another database copy, and invalidates every relation's shard
  /// cache (the cached partitions carry per-shard possible-value ranges
  /// read from the components).
  Component& mutable_component(ComponentId id);
  bool IsLive(ComponentId id) const {
    return id >= first_id_ && id - first_id_ < components_.size() &&
           components_[id - first_id_] != nullptr;
  }
  void RemoveComponent(ComponentId id);
  /// Ids of all live components, ascending.
  std::vector<ComponentId> LiveComponents() const;
  size_t NumLiveComponents() const;
  /// The allocation point: one past the highest id ever allocated (live
  /// or dead). AddComponent hands out id component_slot_count(), so two
  /// databases only allocate the same ids going forward when their
  /// counts match — the binary snapshot persists this so WAL replay
  /// after a reload is deterministic. Only the span from the lowest
  /// live id up to this point is stored.
  size_t component_slot_count() const {
    return first_id_ + components_.size();
  }
  /// Stored id span: from the lowest live id to the allocation point (0
  /// when nothing is live). Dead ids below the lowest live one cost
  /// nothing.
  size_t component_span() const { return components_.size(); }
  /// Moves the allocation point up to `n` (no-op when already there).
  /// Used by snapshot loading to restore the point recorded at save
  /// time; the ids skipped over are dead.
  void PadComponentSlots(size_t n);
  /// Places every live component of `other` at its own id, shared
  /// copy-on-write, and moves the allocation point up to other's. Every
  /// live id of `other` must be >= component_slot_count(). A mapped
  /// session merges its write overlay into a database decoded from the
  /// snapshot this way.
  void AdoptComponents(const WsdDb& other);

  /// Merges the given components (≥1) into a single product component.
  /// All template cells referencing the old components are remapped to the
  /// merged one. Returns the merged component's id.
  Result<ComponentId> MergeComponents(std::vector<ComponentId> ids,
                                      size_t max_rows);

  /// Merges several disjoint groups at once; template cells are remapped
  /// in a single pass over all relations (use this instead of repeated
  /// MergeComponents calls when many groups are involved). Returns the
  /// merged id per group, aligned with `groups`.
  Result<std::vector<ComponentId>> MergeComponentGroups(
      const std::vector<std::vector<ComponentId>>& groups, size_t max_rows);

  /// Fresh owner id for new tuples/existence slots.
  OwnerId NextOwner() { return next_owner_++; }
  /// Keeps the owner counter ahead of any id used so far.
  void BumpOwner(OwnerId used) {
    if (used >= next_owner_) next_owner_ = used + 1;
  }
  /// The next owner id NextOwner() would hand out (persisted by the
  /// binary snapshot so a reloaded database allocates from where the
  /// saved one stopped).
  OwnerId owner_counter() const { return next_owner_; }

  const WsdOptions& options() const { return options_; }
  WsdOptions& mutable_options() { return options_; }

  // --- statistics --------------------------------------------------------
  /// log2 of the number of choice combinations (= worlds counted as in the
  /// paper's "2^624449 worlds": the product of component row counts).
  double Log2WorldCount() const;

  /// Exact world count when it fits in uint64; nullopt otherwise.
  std::optional<uint64_t> WorldCountIfSmall(uint64_t limit = 1ull << 62) const;

  /// Flat serialized size of template relations + components, comparable
  /// with Relation::SerializedSize for the storage experiment. Inline
  /// cells count their value; ref cells count a 8-byte reference.
  uint64_t SerializedSize() const;

  /// Bytes the decomposition actually occupies in memory with the
  /// columnar, interned representation: packed component columns +
  /// probabilities + template cells + the pool bytes of the distinct
  /// strings this database references. The storage experiment reports
  /// this next to the logical flat model of SerializedSize().
  uint64_t InternedSize() const;

  /// Probability that `t` exists (product over components of the mass of
  /// rows where no dep-owned slot is ⊥).
  double ExistenceProbability(const WsdTuple& t) const;

  /// Mass of `c`'s rows where no slot owned by one of `deps` (sorted) is
  /// ⊥. Sets *gates to false (returning 1.0) when no slot of `c` is
  /// owned by a dep. Shared between ExistenceProbability and the
  /// memoized per-tuple existence path (core/confidence.cc) so both
  /// produce bit-identical products.
  static double GatedAliveMass(const Component& c,
                               const std::vector<OwnerId>& deps, bool* gates);

  // --- deltas ------------------------------------------------------------
  /// Applies a batch of mutations (the single mutation funnel: SQL
  /// INSERT/REPAIR/ENFORCE/DELETE, the server commit path and streaming
  /// ingest all come through here; see core/delta.h). Ops apply in order
  /// and stop at the first error — already-applied ops stay applied, so
  /// WAL replay of the same batch reproduces the same partial state.
  /// Defined in core/delta.cc.
  Result<DeltaEffects> ApplyDelta(const DeltaBatch& batch);

  /// Monotone counter bumped by every ApplyDelta (used by tests and by
  /// callers that want a cheap "did anything change" signal).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // --- invariants / rendering -------------------------------------------
  /// Validates structural invariants: refs point at live components/slots,
  /// component masses ≈ 1, deps sorted, no ⊥ in inline cells, and — when
  /// the reference index is present — that it equals a rebuild from
  /// scratch. Returns the first violation found.
  Status CheckInvariants() const;

  /// Paper-style rendering: template relations, then components as small
  /// tables joined by ×.
  std::string ToString() const;

  /// Who references what, so component GC costs O(delta) instead of a
  /// pass over the whole database. A count reaching zero erases its key,
  /// so a maintained index equals a rebuild exactly.
  ///
  /// Maintained incrementally only by ApplyDelta's insert, evict and
  /// drop ops; reweight and set-cell ops leave it valid (they change no
  /// reference or slot owner). Every other mutation drops it — REPAIR
  /// KEY and ENFORCE ops, and any mutator called outside ApplyDelta
  /// (lifted operators on working copies, loaders, MergeComponentGroups)
  /// — and the next eviction rebuilds it. Databases that never evict
  /// never build it. Copies share it; the first maintained write to a
  /// shared index clones it (copy-on-write, like components).
  struct RefIndex {
    /// component → template cells referencing it.
    std::unordered_map<ComponentId, uint32_t> cell_refs;
    /// owner → tuples whose deps contain it.
    std::unordered_map<OwnerId, uint32_t> gated;
    /// owner → live components with a slot it owns, ascending.
    std::unordered_map<OwnerId, std::vector<ComponentId>> slot_comps;

    bool operator==(const RefIndex& o) const {
      return cell_refs == o.cell_refs && gated == o.gated &&
             slot_comps == o.slot_comps;
    }
  };

  /// The maintained reference index, shared; null when the database
  /// keeps none. Lifted evaluation reads its owner → components part to
  /// find the components a tuple is gated by without a pass over the
  /// component store (core/normalize.h, OwnerLocator).
  std::shared_ptr<const RefIndex> ref_index() const { return ref_index_; }

 private:
  /// Recording hook installed by an in-flight ApplyDelta: while active,
  /// the component mutators append touched ids here instead of clearing
  /// every relation's shard cache wholesale; the delta epilogue then
  /// invalidates only the relations that reference a touched component.
  struct DeltaScope {
    std::vector<ComponentId> dirty;
    std::vector<ComponentId> removed;
    /// Slot owners of every touched component (captured before removal,
    /// while the slots are still readable): the epilogue marks relations
    /// whose tuples are *gated* by a touched component dirty, not just
    /// relations whose cells reference one.
    std::vector<OwnerId> touched_owners;
  };

  RefIndex BuildRefIndex() const;
  /// The index, built when absent and detached when shared.
  RefIndex& MutableRefIndex();
  void DropRefIndexOutsideDelta() {
    if (delta_scope_ == nullptr) ref_index_.reset();
  }
  void IndexComponent(RefIndex* index, ComponentId id) const;
  static void IndexTuple(RefIndex* index, const WsdTuple& t);
  /// Indexes what a successful insert op added: components from
  /// `first_new` on and the relation's last tuple.
  void IndexInsert(const std::string& relation, ComponentId first_new);
  /// Removes the oldest `count` tuples of `relation` and collects the
  /// components no surviving tuple references or is gated by, visiting
  /// only the evicted tuples and their candidate components. The
  /// relation's base rows (WsdRelation::base_rows) go first; they are not
  /// stored here, so their components are collected where the base is.
  Status EvictOldest(const std::string& relation, size_t count,
                     size_t* evicted);

  /// Clears every relation's cached shard partition. Called by the
  /// component mutators: partitions persist per-shard possible-value
  /// ranges, so a component edit (e.g. ENFORCE removing rows) must not
  /// leave a reader pruning shards against stale ranges.
  void InvalidateShardCaches();

  std::map<std::string, WsdRelation> relations_;
  /// Component first_id_ + i lives at components_[i]; null = dead. The
  /// dead prefix is popped as it forms (sliding-window eviction retires
  /// the oldest ids first), so storage, iteration and copies cost the
  /// live id span, not every id ever allocated. Shared across database
  /// copies until mutable_component detaches (copy-on-write).
  std::deque<std::shared_ptr<Component>> components_;
  /// Id of components_.front(); the allocation point when it is empty.
  ComponentId first_id_ = 0;
  /// Null until an eviction needs it; see RefIndex.
  std::shared_ptr<RefIndex> ref_index_;
  OwnerId next_owner_ = 1;
  WsdOptions options_;
  uint64_t mutation_epoch_ = 0;
  /// Non-null only inside ApplyDelta; never propagated by copy/move.
  DeltaScope* delta_scope_ = nullptr;
};

}  // namespace maybms

#endif  // MAYBMS_CORE_WSD_H_
