// Normalization of world-set decompositions (Section 2 of the paper).
//
// After lifted operators mark fields with ⊥, normalization restores the
// compact form: ⊥ is propagated across a tuple's fields within each
// component row, tuples that exist in no world are removed, unreferenced
// slots are garbage-collected or collapsed into existence slots, duplicate
// component rows are merged, and fields that became certain are inlined
// back into the template.
//
// Every step is local to one component and the tuples that reference it
// or are gated by it. So normalization can be *scoped*: a lifted operator
// hands Normalize the part of the database it touched (a NormalizeScope)
// and the passes visit only those components and their tuples. Untouched
// components are only read through WsdDb::component(), never detached:
// mutable_component() is called only on a component a pass changes, so
// a working copy keeps sharing everything else with the database it was
// copied from. A scoped run leaves the database exactly as a full run
// would, as long as the part outside the scope was normal already (the
// lifted operators' tests cross-check this; see lifted.h). What each
// operator reports, and how the selection drops tuples on their certain
// cells before any component is touched, is in docs/ARCHITECTURE.md
// ("Lifted execution and scoped normalization").
#ifndef MAYBMS_CORE_NORMALIZE_H_
#define MAYBMS_CORE_NORMALIZE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/wsd.h"

namespace maybms {

/// Which normalization steps to run (all on by default; the ablation
/// benchmark toggles them individually).
struct NormalizeOptions {
  bool propagate_bottom = true;   ///< ⊥ spreads over a tuple's fields per row
  bool remove_dead_tuples = true; ///< drop tuples with existence probability 0
  bool gc_slots = true;           ///< drop/collapse unreferenced slots
  bool dedup_rows = true;         ///< merge identical component rows
  bool inline_certain = true;     ///< move constant slots into the template
};

/// Counters reported by Normalize.
struct NormalizeStats {
  size_t tuples_removed = 0;
  size_t slots_dropped = 0;
  size_t slots_collapsed = 0;  ///< data slots turned into existence slots
  size_t rows_merged = 0;
  size_t cells_inlined = 0;
  size_t components_dropped = 0;
  size_t iterations = 0;
  /// Components the passes visited, summed over iterations. Components
  /// of the scope that no tuple references or is gated by are dropped
  /// before the passes run and counted in components_released instead.
  size_t components_visited = 0;
  size_t components_released = 0;
};

/// The part of a database one operator touched: the components it
/// created, changed, released or read, and the owners of the tuples it
/// removed or rewrote. A scoped Normalize visits these components, the
/// components holding a slot of these owners, and the tuples that
/// reference or are gated by any of them.
struct NormalizeScope {
  std::vector<ComponentId> components;
  std::vector<OwnerId> owners;

  /// Adds the components `t` references and its gating owners.
  void AddTuple(const WsdTuple& t);
  void AddRelation(const WsdRelation& rel);
  bool empty() const { return components.empty() && owners.empty(); }
};

/// Finds the live components holding a slot of a given owner, so that a
/// scoped Normalize reaches the components a tuple is gated by without a
/// pass over the whole component store. Seeded from the database's
/// maintained reference index when it has one; otherwise it indexes the
/// live components once, on the first lookup. Every component a scoped
/// Normalize visits is recorded again, so components that lifted
/// operators create or change stay findable. Entries may go stale (a
/// component removed, or its slot dropped); lookups re-check them.
class OwnerLocator {
 public:
  explicit OwnerLocator(const WsdDb& db) : base_(db.ref_index()) {}

  /// Appends to `out` the live components of `db` with a slot owned by
  /// `owner` (unsorted; may repeat ids).
  void Find(const WsdDb& db, OwnerId owner, std::vector<ComponentId>* out);
  /// Records the current slot owners of live component `id`.
  void Note(const WsdDb& db, ComponentId id);

 private:
  std::shared_ptr<const WsdDb::RefIndex> base_;
  std::unordered_map<OwnerId, std::vector<ComponentId>> noted_;
  bool indexed_all_ = false;
};

/// Runs normalization over the whole database to fixpoint. Preserves the
/// represented world-set and its probability distribution exactly
/// (verified by the property tests).
Result<NormalizeStats> Normalize(WsdDb* db,
                                 const NormalizeOptions& options = {});

/// Runs normalization over `scope` only (see the file comment). Tuples
/// the passes remove widen the scope by what they referenced and were
/// gated by, found through `owners`.
Result<NormalizeStats> Normalize(WsdDb* db, const NormalizeScope& scope,
                                 OwnerLocator* owners,
                                 const NormalizeOptions& options = {});

/// Process-wide running total of NormalizeStats::components_visited and
/// components_released over every Normalize call (all threads). A bench
/// differences them around a statement to get per-statement counters.
uint64_t NormalizeComponentsVisitedTotal();
uint64_t NormalizeComponentsReleasedTotal();

}  // namespace maybms

#endif  // MAYBMS_CORE_NORMALIZE_H_
