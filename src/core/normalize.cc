#include "core/normalize.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace maybms {

void NormalizeScope::AddTuple(const WsdTuple& t) {
  for (const Cell& cell : t.cells) {
    if (cell.is_ref()) components.push_back(cell.ref().cid);
  }
  owners.insert(owners.end(), t.deps.begin(), t.deps.end());
}

void NormalizeScope::AddRelation(const WsdRelation& rel) {
  for (const WsdTuple& t : rel.tuples()) AddTuple(t);
}

void OwnerLocator::Find(const WsdDb& db, OwnerId owner,
                        std::vector<ComponentId>* out) {
  if (base_ == nullptr && !indexed_all_) {
    indexed_all_ = true;
    for (ComponentId id : db.LiveComponents()) Note(db, id);
  }
  auto owns = [&](ComponentId id) {
    if (!db.IsLive(id)) return false;
    for (const Slot& s : db.component(id).slots()) {
      if (s.owner == owner) return true;
    }
    return false;
  };
  if (base_ != nullptr) {
    auto it = base_->slot_comps.find(owner);
    if (it != base_->slot_comps.end()) {
      for (ComponentId id : it->second) {
        if (owns(id)) out->push_back(id);
      }
    }
  }
  auto it = noted_.find(owner);
  if (it != noted_.end()) {
    for (ComponentId id : it->second) {
      if (owns(id)) out->push_back(id);
    }
  }
}

void OwnerLocator::Note(const WsdDb& db, ComponentId id) {
  for (const Slot& s : db.component(id).slots()) {
    std::vector<ComponentId>& ids = noted_[s.owner];
    if (ids.empty() || ids.back() != id) ids.push_back(id);
  }
}

namespace {

std::atomic<uint64_t> g_components_visited{0};
std::atomic<uint64_t> g_components_released{0};

uint64_t SlotKey(ComponentId cid, uint32_t slot) {
  return (static_cast<uint64_t>(cid) << 32) | slot;
}

// The components one Normalize run visits. A full run visits every live
// component. Membership is a bitmap over the stored id span; the visiting
// order does not matter, since every pass treats components one at a
// time.
class Scope {
 public:
  Scope(WsdDb* db, bool all) : db_(db), all_(all) {
    if (!all_) {
      base_ = db->component_slot_count() - db->component_span();
      member_.assign(db->component_span(), 0);
    }
  }

  const std::vector<ComponentId>& components() const { return comps_; }
  bool Has(ComponentId id) const {
    return all_ || (id >= base_ && id - base_ < member_.size() &&
                    member_[id - base_] != 0);
  }

  // Adds `ids` (any order; repeats and dead ids are skipped).
  void Add(const std::vector<ComponentId>& ids) {
    if (all_) return;
    for (ComponentId id : ids) {
      if (!db_->IsLive(id) || member_[id - base_] != 0) continue;
      member_[id - base_] = 1;
      comps_.push_back(id);
    }
  }
  // Adds the components holding a slot of each owner in `owners`.
  void AddOwners(const std::vector<OwnerId>& owners, OwnerLocator* locator) {
    if (all_ || owners.empty()) return;
    std::vector<OwnerId> sorted = owners;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<ComponentId> found;
    for (OwnerId o : sorted) locator->Find(*db_, o, &found);
    Add(found);
  }
  // Re-reads the live components (full runs) or forgets the ones removed
  // since (scoped runs).
  void Settle() {
    if (all_) {
      comps_ = db_->LiveComponents();
      return;
    }
    comps_.erase(std::remove_if(comps_.begin(), comps_.end(),
                                [&](ComponentId id) {
                                  if (db_->IsLive(id)) return false;
                                  member_[id - base_] = 0;
                                  return true;
                                }),
                 comps_.end());
  }

 private:
  WsdDb* db_;
  bool all_;
  std::vector<ComponentId> comps_;  // live
  ComponentId base_ = 0;            // id of member_[0]
  std::vector<uint8_t> member_;
};

// What the templates say about the scope's components, from one read-only
// pass over every tuple: the referenced slots of scope components, the
// owners some tuple depends on, and the tuples referencing the scope (the
// only ones GcSlots and InlineCertain rewrite).
struct TupleRefs {
  std::unordered_set<uint64_t> slots;  // SlotKey of referenced slots
  std::unordered_set<ComponentId> components;
  std::unordered_set<OwnerId> live_owners;
  std::vector<std::pair<WsdRelation*, size_t>> tuples;
};

TupleRefs ScanTuples(WsdDb* db, const Scope& scope) {
  TupleRefs refs;
  for (auto& [key, rel] : db->mutable_relations()) {
    const TupleSpan tuples = rel.tuples();
    for (size_t i = 0; i < tuples.size(); ++i) {
      const WsdTuple& t = tuples.begin()[i];
      bool referencing = false;
      for (const Cell& cell : t.cells) {
        if (!cell.is_ref() || !scope.Has(cell.ref().cid)) continue;
        refs.slots.insert(SlotKey(cell.ref().cid, cell.ref().slot));
        refs.components.insert(cell.ref().cid);
        referencing = true;
      }
      refs.live_owners.insert(t.deps.begin(), t.deps.end());
      if (referencing) refs.tuples.emplace_back(&rel, i);
    }
  }
  return refs;
}

// Rewrites, with `apply`, the ref cells `affected` selects in the tuples
// referencing the scope. Only tuples with such a cell are written, so a
// relation without one stays shared. Returns the count of cells.
template <typename Affected, typename Apply>
size_t RewriteCells(const TupleRefs& refs, Affected affected, Apply apply) {
  size_t n = 0;
  for (const auto& [rel, i] : refs.tuples) {
    const auto& cells = rel->tuple(i).cells;
    auto hit = [&](const Cell& c) { return c.is_ref() && affected(c); };
    if (std::none_of(cells.begin(), cells.end(), hit)) continue;
    for (Cell& cell : rel->mutable_tuple(i).cells) {
      if (!hit(cell)) continue;
      apply(&cell);
      ++n;
    }
  }
  return n;
}

// Drops the scope's components that no tuple references or is gated by.
// Every pass would leave them alone except GcSlots, which drops all their
// slots, so removing them first changes nothing but the work done.
size_t DropUnreachable(WsdDb* db, Scope* scope, const TupleRefs& refs,
                       NormalizeStats* stats) {
  size_t dropped = 0;
  for (ComponentId id : scope->components()) {
    if (refs.components.count(id)) continue;
    const Component& c = db->component(id);
    bool gating = false;
    for (const Slot& s : c.slots()) {
      if (refs.live_owners.count(s.owner)) {
        gating = true;
        break;
      }
    }
    if (gating) continue;
    stats->slots_dropped += c.NumSlots();
    db->RemoveComponent(id);
    ++dropped;
  }
  if (dropped > 0) scope->Settle();
  stats->components_dropped += dropped;
  stats->components_released += dropped;
  return dropped;
}

// Write access to one component, detached from the catalog version it is
// shared with only on the first write. Reads go through the const view,
// which a detach leaves intact (the shared original stays alive), so a
// pass reads one consistent version and pays for a copy only when it
// changes something.
class LazyMut {
 public:
  LazyMut(WsdDb* db, ComponentId id) : db_(db), id_(id) {}
  Component& operator()() {
    if (m_ == nullptr) m_ = &db_->mutable_component(id_);
    return *m_;
  }
  bool touched() const { return m_ != nullptr; }

 private:
  WsdDb* db_;
  ComponentId id_;
  Component* m_ = nullptr;
};

// Step 1: within each component row, a ⊥ on any slot of an owner spreads
// to all slots of that owner in the same row.
bool PropagateBottom(WsdDb* db, const Scope& scope) {
  bool changed = false;
  for (ComponentId id : scope.components()) {
    const Component& c = db->component(id);
    if (c.NumSlots() < 2) continue;
    LazyMut m(db, id);
    // owner -> slots in this component
    std::unordered_map<OwnerId, std::vector<uint32_t>> by_owner;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      by_owner[c.slot(s).owner].push_back(s);
    }
    for (size_t r = 0; r < c.NumRows(); ++r) {
      for (const auto& [o, slots] : by_owner) {
        if (slots.size() < 2) continue;
        bool any_bottom = false;
        for (uint32_t s : slots) {
          if (c.IsBottomAt(r, s)) {
            any_bottom = true;
            break;
          }
        }
        if (!any_bottom) continue;
        for (uint32_t s : slots) {
          if (!c.IsBottomAt(r, s)) {
            m().SetPacked(r, s, PackedValue::Bottom());
            changed = true;
          }
        }
      }
    }
  }
  return changed;
}

// Step 2: remove tuples with existence probability 0.
//
// P(exists) factorizes per component, so it is 0 iff in some component
// the rows where none of the tuple's dep-owned slots are ⊥ carry zero
// mass. Indexed for the common case: only owners with ⊥ somewhere can
// kill; single-owner-per-component deaths are precomputed, joint deaths
// (several dep owners sharing one component) are checked exactly but only
// for the rare tuples where that can occur. Only the scope's components
// are examined: outside it nothing changed, so nothing new died there.
// The removed tuples are added to `removed`.
size_t RemoveDeadTuples(WsdDb* db, const Scope& scope,
                        NormalizeScope* removed) {
  std::unordered_set<OwnerId> dead_owners;
  // owner -> components where the owner has a ⊥ slot (but is not
  // single-handedly dead there).
  std::unordered_map<OwnerId, std::vector<ComponentId>> bottom_comps;
  for (ComponentId id : scope.components()) {
    const Component& c = db->component(id);
    std::unordered_map<OwnerId, std::vector<uint32_t>> by_owner;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      by_owner[c.slot(s).owner].push_back(s);
    }
    for (const auto& [owner, slots] : by_owner) {
      bool has_bottom = false;
      double alive = 0.0;
      for (size_t r = 0; r < c.NumRows(); ++r) {
        bool ok = true;
        for (uint32_t s : slots) {
          if (c.IsBottomAt(r, s)) {
            ok = false;
            has_bottom = true;
            break;
          }
        }
        if (ok) alive += c.prob(r);
      }
      if (has_bottom) {
        if (alive <= 0.0) {
          dead_owners.insert(owner);
        } else {
          bottom_comps[owner].push_back(id);
        }
      }
    }
  }
  if (dead_owners.empty() && bottom_comps.empty()) return 0;

  auto is_dead = [&](const WsdTuple& t) {
    for (OwnerId o : t.deps) {
      if (dead_owners.count(o)) return true;
    }
    if (t.deps.size() < 2) return false;
    // Joint death: two or more dep owners with ⊥ in the same component
    // may leave no jointly-alive row even though each survives alone.
    std::unordered_map<ComponentId, size_t> comp_hits;
    for (OwnerId o : t.deps) {
      auto it = bottom_comps.find(o);
      if (it == bottom_comps.end()) continue;
      for (ComponentId cid : it->second) comp_hits[cid]++;
    }
    for (const auto& [cid, hits] : comp_hits) {
      if (hits < 2) continue;
      const Component& c = db->component(cid);
      double alive = 0.0;
      for (size_t r = 0; r < c.NumRows(); ++r) {
        bool ok = true;
        for (uint32_t s = 0; s < c.NumSlots(); ++s) {
          if (c.IsBottomAt(r, s) &&
              std::binary_search(t.deps.begin(), t.deps.end(),
                                 c.slot(s).owner)) {
            ok = false;
            break;
          }
        }
        if (ok) alive += c.prob(r);
      }
      if (alive <= 0.0) return true;
    }
    return false;
  };
  size_t total = 0;
  for (auto& [key, rel] : db->mutable_relations()) {
    const TupleSpan view = rel.tuples();
    if (std::none_of(view.begin(), view.end(), is_dead)) continue;
    auto& tuples = rel.mutable_tuples();
    size_t kept = 0;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (is_dead(tuples[i])) {
        removed->AddTuple(tuples[i]);
        ++total;
        continue;
      }
      if (kept != i) tuples[kept] = std::move(tuples[i]);
      ++kept;
    }
    tuples.resize(kept);
  }
  return total;
}

// Step 3: garbage-collect slots. Unreferenced slots that never carry ⊥ or
// whose owner gates no tuple are dropped (marginalized); unreferenced
// slots that do carry ⊥ for a live owner collapse into existence slots.
// Duplicate existence slots of the same owner within a component merge.
// All slot renumberings are applied to the templates in ONE final pass.
void GcSlots(WsdDb* db, const Scope& scope, const TupleRefs& refs,
             NormalizeStats* stats) {
  std::unordered_map<ComponentId, std::vector<uint32_t>> remaps;
  const PackedValue token = PackedExistsToken();
  for (ComponentId id : scope.components()) {
    const Component& c = db->component(id);
    LazyMut m(db, id);
    std::vector<uint32_t> to_drop;
    // owner -> first existence slot index seen
    std::unordered_map<OwnerId, uint32_t> exist_slot;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      if (refs.slots.count(SlotKey(id, s))) continue;
      OwnerId owner = c.slot(s).owner;
      bool has_bottom = false;
      for (const PackedValue& v : c.column(s)) {
        if (v.is_bottom()) {
          has_bottom = true;
          break;
        }
      }
      if (!refs.live_owners.count(owner) || !has_bottom) {
        to_drop.push_back(s);
        continue;
      }
      // Collapse to an existence slot.
      auto it = exist_slot.find(owner);
      if (it == exist_slot.end()) {
        exist_slot[owner] = s;
        bool was_data = false;
        for (size_t r = 0; r < c.NumRows(); ++r) {
          const PackedValue& v = c.packed(r, s);
          if (!v.is_bottom() && !(v == token)) {
            was_data = true;
            m().SetPacked(r, s, token);
          }
        }
        if (was_data) {
          m().mutable_slot(s).label = "\xE2\x88\x83" + std::to_string(owner);
          stats->slots_collapsed++;
        }
      } else {
        // AND into the canonical existence slot, then drop this one.
        for (size_t r = 0; r < c.NumRows(); ++r) {
          if (c.IsBottomAt(r, s) && !c.IsBottomAt(r, it->second)) {
            m().SetPacked(r, it->second, PackedValue::Bottom());
          }
        }
        to_drop.push_back(s);
      }
    }
    stats->slots_dropped += to_drop.size();
    if (to_drop.size() == c.NumSlots() && !m.touched()) {
      db->RemoveComponent(id);
      stats->components_dropped++;
      continue;
    }
    if (to_drop.empty()) continue;
    std::vector<uint32_t> remap(c.NumSlots());
    std::vector<bool> dropped(c.NumSlots(), false);
    for (uint32_t s : to_drop) dropped[s] = true;
    uint32_t next = 0;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      remap[s] = next;
      if (!dropped[s]) ++next;
    }
    m().DropSlots(to_drop);
    remaps.emplace(id, std::move(remap));
  }
  RewriteCells(
      refs, [&](const Cell& cell) { return remaps.count(cell.ref().cid) > 0; },
      [&](Cell* cell) {
        cell->mutable_ref().slot =
            remaps.at(cell->ref().cid)[cell->ref().slot];
      });
}

// Step 4: merge identical rows within each component.
size_t DedupRows(WsdDb* db, const Scope& scope) {
  size_t merged = 0;
  for (ComponentId id : scope.components()) {
    if (!db->IsLive(id) || !db->component(id).HasDuplicateRows()) continue;
    Component& c = db->mutable_component(id);
    size_t before = c.NumRows();
    c.DedupRows();
    merged += before - c.NumRows();
  }
  return merged;
}

// Step 5: inline slots whose value is the same (non-⊥) in every row.
// Constant-slot detection runs per component; the inlining itself is one
// pass over the referencing tuples.
size_t InlineCertain(WsdDb* db, const Scope& scope, const TupleRefs& refs,
                     NormalizeStats* stats) {
  // cid -> (constant flags, constant values)
  std::unordered_map<ComponentId,
                     std::pair<std::vector<bool>, std::vector<Value>>>
      constants;
  for (ComponentId id : scope.components()) {
    if (!db->IsLive(id)) continue;
    const Component& c = db->component(id);
    if (c.NumRows() == 0) continue;
    std::vector<bool> is_constant(c.NumSlots(), false);
    std::vector<Value> constant_of(c.NumSlots());
    bool any = false;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      const std::vector<PackedValue>& col = c.column(s);
      const PackedValue& first = col[0];
      if (first.is_bottom()) continue;
      bool constant = true;
      for (size_t r = 1; r < col.size(); ++r) {
        if (!(col[r] == first)) {
          constant = false;
          break;
        }
      }
      if (constant) {
        is_constant[s] = true;
        constant_of[s] = first.ToValue();
        any = true;
      }
    }
    if (any) {
      constants.emplace(
          id, std::make_pair(std::move(is_constant), std::move(constant_of)));
    }
  }
  if (constants.empty()) return 0;
  // Inline into referencing cells; unreferenced constant slots are
  // handled by GC in the next iteration.
  size_t inlined_cells = RewriteCells(
      refs,
      [&](const Cell& cell) {
        auto it = constants.find(cell.ref().cid);
        return it != constants.end() && it->second.first[cell.ref().slot];
      },
      [&](Cell* cell) {
        const auto& values = constants.at(cell->ref().cid).second;
        *cell = Cell::Certain(values[cell->ref().slot]);
      });
  stats->cells_inlined += inlined_cells;
  return inlined_cells;
}

Result<NormalizeStats> Run(WsdDb* db, Scope* scope, OwnerLocator* owners,
                           const NormalizeOptions& options) {
  NormalizeStats stats;
  bool changed = true;
  // Each iteration strictly shrinks the representation (slots, rows,
  // tuples, or refs), so this terminates; the cap is a safety net.
  constexpr size_t kMaxIterations = 64;
  while (changed && stats.iterations < kMaxIterations) {
    changed = false;
    ++stats.iterations;
    scope->Settle();
    TupleRefs refs = ScanTuples(db, *scope);
    if (options.gc_slots) DropUnreachable(db, scope, refs, &stats);
    stats.components_visited += scope->components().size();
    if (owners != nullptr) {
      for (ComponentId id : scope->components()) owners->Note(*db, id);
    }
    if (options.propagate_bottom) {
      changed |= PropagateBottom(db, *scope);
    }
    if (options.remove_dead_tuples) {
      NormalizeScope removed;
      size_t n = RemoveDeadTuples(db, *scope, &removed);
      stats.tuples_removed += n;
      if (n > 0) {
        changed = true;
        // What the dead tuples referenced or were gated by may now be
        // unreferenced: widen the scope, then look at the templates again.
        scope->Add(removed.components);
        scope->AddOwners(removed.owners, owners);
        refs = ScanTuples(db, *scope);
        if (options.gc_slots) DropUnreachable(db, scope, refs, &stats);
      }
    }
    if (options.gc_slots) {
      size_t before_drop = stats.slots_dropped + stats.components_dropped;
      GcSlots(db, *scope, refs, &stats);
      changed |=
          (stats.slots_dropped + stats.components_dropped) != before_drop;
    }
    if (options.dedup_rows) {
      size_t merged = DedupRows(db, *scope);
      stats.rows_merged += merged;
      changed |= merged > 0;
    }
    if (options.inline_certain) {
      changed |= InlineCertain(db, *scope, refs, &stats) > 0;
    }
  }
  if (stats.iterations >= kMaxIterations) {
    return Status::Internal("normalization did not reach fixpoint");
  }
  g_components_visited.fetch_add(stats.components_visited,
                                 std::memory_order_relaxed);
  g_components_released.fetch_add(stats.components_released,
                                   std::memory_order_relaxed);
  return stats;
}

}  // namespace

Result<NormalizeStats> Normalize(WsdDb* db, const NormalizeOptions& options) {
  Scope scope(db, /*all=*/true);
  return Run(db, &scope, nullptr, options);
}

Result<NormalizeStats> Normalize(WsdDb* db, const NormalizeScope& in,
                                 OwnerLocator* owners,
                                 const NormalizeOptions& options) {
  MAYBMS_CHECK(owners != nullptr);
  Scope scope(db, /*all=*/false);
  scope.Add(in.components);
  scope.AddOwners(in.owners, owners);
  if (scope.components().empty()) return NormalizeStats{};
  return Run(db, &scope, owners, options);
}

uint64_t NormalizeComponentsVisitedTotal() {
  return g_components_visited.load(std::memory_order_relaxed);
}

uint64_t NormalizeComponentsReleasedTotal() {
  return g_components_released.load(std::memory_order_relaxed);
}

}  // namespace maybms
