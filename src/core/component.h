// Component: one independent factor of a world-set decomposition.
//
// A component covers a set of *slots* (fields of template tuples, or
// synthetic existence slots); each row simultaneously assigns a value to
// every slot and carries a probability. Choosing one row per component,
// independently across components, yields one possible world; the world's
// probability is the product of the chosen rows' probabilities. Row
// probabilities of every component sum to 1.
//
// Storage is slot-major (SoA): one contiguous vector of trivially-
// copyable PackedValues per slot plus one probability vector. The hot
// operations (Product, DedupRows, DropSlots, TotalMass, Renormalize)
// run directly on the columns with no per-row heap allocation; strings
// live once in the global ValuePool and are referenced by id.
#ifndef MAYBMS_CORE_COMPONENT_H_
#define MAYBMS_CORE_COMPONENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/types.h"
#include "storage/packed_value.h"
#include "storage/value.h"

namespace maybms {

/// Metadata of one slot (column) of a component.
struct Slot {
  OwnerId owner = 0;   ///< tuple/derivation that this slot gates
  std::string label;   ///< for rendering, e.g. "r1.Diagnosis" or "r1.∃"
};

/// Row-major exchange type used by builders and cold paths; the columnar
/// store materializes/consumes it at the boundary (Component::GetRow /
/// AddRow).
struct ComponentRow {
  std::vector<Value> values;
  double prob = 1.0;
};

/// The token stored in existence slots for "the owner is alive here".
/// Only ⊥ vs non-⊥ matters for existence; the concrete token is arbitrary.
Value ExistsToken();

/// ExistsToken() in packed form, for columnar writers.
inline PackedValue PackedExistsToken() { return PackedValue::Bool(true); }

/// Component statistics: row count plus one distinct-value count per
/// slot (distinct packed cells; interning makes this exact for strings).
/// The optimizer's cardinality estimator reads these to bound how many
/// distinct values an uncertain column can take across worlds.
struct ComponentStats {
  uint64_t rows = 0;
  std::vector<uint64_t> distinct;  ///< aligned with slots
};

/// One independent factor of the decomposition.
class Component {
 public:
  Component() = default;

  // Copies read the stats cache atomically: a concurrent reader may be
  // CAS-installing stats on the source (GetStats is const and
  // thread-safe). Moves require exclusive access, like mutation.
  Component(const Component& o)
      : slots_(o.slots_),
        cols_(o.cols_),
        probs_(o.probs_),
        stats_(std::atomic_load(&o.stats_)),
        content_hash_(o.content_hash_.load(std::memory_order_relaxed)) {}
  Component& operator=(const Component& o) {
    if (this == &o) return *this;
    slots_ = o.slots_;
    cols_ = o.cols_;
    probs_ = o.probs_;
    stats_ = std::atomic_load(&o.stats_);
    content_hash_.store(o.content_hash_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }
  Component(Component&& o) noexcept
      : slots_(std::move(o.slots_)),
        cols_(std::move(o.cols_)),
        probs_(std::move(o.probs_)),
        stats_(std::move(o.stats_)),
        content_hash_(o.content_hash_.load(std::memory_order_relaxed)) {}
  Component& operator=(Component&& o) noexcept {
    if (this == &o) return *this;
    slots_ = std::move(o.slots_);
    cols_ = std::move(o.cols_);
    probs_ = std::move(o.probs_);
    stats_ = std::move(o.stats_);
    content_hash_.store(o.content_hash_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  size_t NumSlots() const { return slots_.size(); }
  size_t NumRows() const { return probs_.size(); }
  bool empty() const { return slots_.empty(); }

  const Slot& slot(size_t i) const { return slots_[i]; }
  Slot& mutable_slot(size_t i) { return slots_[i]; }
  const std::vector<Slot>& slots() const { return slots_; }

  // --- columnar accessors ------------------------------------------------
  double prob(size_t r) const { return probs_[r]; }
  void set_prob(size_t r, double p) {
    // Probability-only updates keep the stats cache (row/distinct counts
    // don't change) but do change the content hash.
    InvalidateContentHash();
    probs_[r] = p;
  }
  const std::vector<double>& probs() const { return probs_; }

  /// The packed cell at (row r, slot s).
  const PackedValue& packed(size_t r, size_t s) const { return cols_[s][r]; }
  bool IsBottomAt(size_t r, size_t s) const { return cols_[s][r].is_bottom(); }
  /// Materializes the cell as a Value (copies string content).
  Value ValueAt(size_t r, size_t s) const { return cols_[s][r].ToValue(); }
  void SetPacked(size_t r, size_t s, PackedValue v) {
    InvalidateStats();
    cols_[s][r] = v;
  }
  void SetValue(size_t r, size_t s, const Value& v) {
    InvalidateStats();
    cols_[s][r] = PackedValue::FromValue(v);
  }
  /// The whole column of slot s (length NumRows()).
  const std::vector<PackedValue>& column(size_t s) const { return cols_[s]; }

  // --- row-major adapters ------------------------------------------------
  /// Materializes row r (values + probability) for cold paths.
  ComponentRow GetRow(size_t r) const;

  /// Appends a row; arity must equal NumSlots.
  Status AddRow(ComponentRow row);

  /// Appends an already-packed row; arity must equal NumSlots.
  Status AddPackedRow(const std::vector<PackedValue>& values, double prob);

  /// Appends a slot to every row using `fill` as its value; returns the
  /// new slot index.
  uint32_t AddSlot(Slot slot, const Value& fill);

  /// Appends a slot whose per-row values are supplied (must match NumRows).
  uint32_t AddSlotWithValues(Slot slot, std::vector<Value> values);

  /// Appends a slot from an already-packed column (must match NumRows).
  uint32_t AddSlotWithPacked(Slot slot, std::vector<PackedValue> column);

  /// Builds a component directly from columnar storage: slot metadata,
  /// one packed column per slot, and the probability vector — the bulk
  /// restore path of the binary snapshot loader. Validates column
  /// lengths and that every probability is finite and in [0,1].
  static Result<Component> FromColumns(
      std::vector<Slot> slots, std::vector<std::vector<PackedValue>> cols,
      std::vector<double> probs);

  // --- operations --------------------------------------------------------
  /// Sum of row probabilities (should be ~1 outside of conditioning).
  double TotalMass() const;

  /// Divides all row probabilities by TotalMass(). Fails when mass is 0
  /// (the world-set is inconsistent).
  Status Renormalize();

  /// Merges duplicate rows (equal values in all slots), summing their
  /// probabilities. Preserves first-occurrence order.
  void DedupRows();

  /// True when DedupRows would merge some rows. Read-only, so a caller
  /// can leave a shared component undetached when it is already deduped.
  bool HasDuplicateRows() const;

  /// Removes the given slots (sorted ascending) and marginalizes:
  /// projects rows onto the remaining slots and dedups.
  void DropSlots(const std::vector<uint32_t>& sorted_slots);

  /// Keeps exactly the rows whose indexes appear in `keep` (strictly
  /// ascending), discarding the rest. The conditioning primitive.
  void KeepRows(const std::vector<uint32_t>& keep);

  /// Removes rows with probability below `eps` (mass is renormalized by
  /// the caller when appropriate). Rows of probability exactly 0 carry no
  /// worlds.
  void DropZeroRows(double eps = 0.0);

  /// The relational product of two components: slots concatenated, rows
  /// paired, probabilities multiplied. Fails when the result would exceed
  /// `max_rows`.
  static Result<Component> Product(const Component& a, const Component& b,
                                   size_t max_rows);

  /// Row count of the product of an `an`-row and a `bn`-row component,
  /// or the error Product returns when it would exceed `max_rows`.
  static Result<size_t> ProductRows(size_t an, size_t bn, size_t max_rows);

  // --- statistics --------------------------------------------------------
  /// Row/per-slot-distinct statistics, computed on first access and
  /// cached until the next mutation of rows or cells (probability-only
  /// updates keep the cache). Safe to call from concurrent readers: the
  /// cache is published with an atomic compare-and-swap, so racing
  /// callers agree on one result object. Mutators (which invalidate)
  /// still require exclusive access, like every non-const method.
  const ComponentStats& GetStats() const;

  /// True when GetStats() would return a cached result (for tests).
  bool HasCachedStats() const { return std::atomic_load(&stats_) != nullptr; }

  /// A 64-bit hash of the component's full content: slot owners, packed
  /// cells and probability bits (labels are excluded — they are pure
  /// rendering metadata). Equal content always hashes equal, so the
  /// materialized-confidence cache (core/materialized_conf.h) can key
  /// cluster results by content and have a component edit re-key —
  /// rather than explicitly invalidate — every cluster it touches.
  /// Never returns 0. Computed lazily, cached until the next mutation
  /// (including probability-only updates), safe under concurrent
  /// readers: racing callers compute the same value and publish it with
  /// relaxed atomic stores.
  uint64_t ContentHash() const;

  /// True when ContentHash() would return a cached result (for tests).
  bool HasCachedContentHash() const {
    return content_hash_.load(std::memory_order_relaxed) != 0;
  }

  // --- sizes / rendering -------------------------------------------------
  /// Bytes in the flat serialized model (values + 8-byte probability per
  /// row + 4-byte row header), mirroring Relation::SerializedSize. This
  /// is the *logical* size used by the paper's storage experiment.
  uint64_t SerializedSize() const;

  /// Bytes the columnar store actually occupies (packed columns +
  /// probabilities + slot metadata), excluding the shared ValuePool —
  /// attribute pool bytes via CollectStrings at the database level.
  uint64_t InternedSize() const;

  /// Inserts the distinct string contents referenced by this component
  /// (views into the global pool; stable forever).
  void CollectStrings(std::unordered_set<std::string_view>* out) const;

  /// Paper-style rendering: a small table with one column per slot and a
  /// probability column.
  std::string ToString() const;

 private:
  bool FindDuplicateRows(std::vector<uint32_t>* keep,
                         std::vector<double>* merged) const;

  /// Drops the cached statistics (atomically, so a reader that raced a
  /// handed-out mutable reference sees either the old stats or none).
  /// Any mutation that changes stats also changes content.
  void InvalidateStats() {
    std::atomic_store(&stats_, std::shared_ptr<const ComponentStats>());
    InvalidateContentHash();
  }

  void InvalidateContentHash() {
    content_hash_.store(0, std::memory_order_relaxed);
  }

  std::vector<Slot> slots_;
  std::vector<std::vector<PackedValue>> cols_;  ///< cols_[slot][row]
  std::vector<double> probs_;                   ///< probs_[row]
  /// Lazily-computed statistics; reset by every cell/row mutation and
  /// published by CAS so concurrent const readers never race.
  mutable std::shared_ptr<const ComponentStats> stats_;
  /// Lazily-computed content hash; 0 = unset. Reset by every mutation.
  mutable std::atomic<uint64_t> content_hash_{0};
};

}  // namespace maybms

#endif  // MAYBMS_CORE_COMPONENT_H_
