#include "core/wsd.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace maybms {

void WsdTuple::AddDep(OwnerId owner) {
  auto it = std::lower_bound(deps.begin(), deps.end(), owner);
  if (it == deps.end() || *it != owner) deps.insert(it, owner);
}

Status WsdDb::CreateRelation(std::string name, Schema schema) {
  std::string key = ToLower(name);
  if (relations_.count(key)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  relations_.emplace(std::move(key),
                     WsdRelation(std::move(name), std::move(schema)));
  return Status::OK();
}

bool WsdDb::HasRelation(const std::string& name) const {
  return relations_.count(ToLower(name)) > 0;
}

Result<const WsdRelation*> WsdDb::GetRelation(const std::string& name) const {
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("relation not found: " + name);
  }
  return &it->second;
}

Result<WsdRelation*> WsdDb::GetMutableRelation(const std::string& name) {
  DropRefIndexOutsideDelta();
  auto it = relations_.find(ToLower(name));
  if (it == relations_.end()) {
    return Status::NotFound("relation not found: " + name);
  }
  return &it->second;
}

Status WsdDb::DropRelation(const std::string& name) {
  DropRefIndexOutsideDelta();
  if (relations_.erase(ToLower(name)) == 0) {
    return Status::NotFound("relation not found: " + name);
  }
  return Status::OK();
}

std::vector<std::string> WsdDb::RelationNames() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [key, rel] : relations_) out.push_back(rel.name());
  return out;
}

ComponentId WsdDb::AddComponent(Component c) {
  // A fresh component is referenced by no template tuple yet, so the
  // cached shard partitions (ranges over *referenced* components) stay
  // valid — no invalidation here.
  DropRefIndexOutsideDelta();
  const auto id = static_cast<ComponentId>(component_slot_count());
  components_.push_back(std::make_shared<Component>(std::move(c)));
  if (delta_scope_ != nullptr) {
    // Created counts as dirty: the delta's caller has never seen it.
    delta_scope_->dirty.push_back(id);
    for (const Slot& s : components_.back()->slots()) {
      delta_scope_->touched_owners.push_back(s.owner);
    }
  }
  return id;
}

void WsdDb::PlaceComponent(ComponentId id, Component c) {
  MAYBMS_CHECK(id >= component_slot_count())
      << "component " << id << " placed below the allocation point";
  PadComponentSlots(id);
  AddComponent(std::move(c));
}

void WsdDb::PadComponentSlots(size_t n) {
  if (n <= component_slot_count()) return;
  if (components_.empty()) {
    first_id_ = static_cast<ComponentId>(n);
  } else {
    components_.resize(n - first_id_);
  }
}

void WsdDb::AdoptComponents(const WsdDb& other) {
  DropRefIndexOutsideDelta();
  for (size_t i = 0; i < other.components_.size(); ++i) {
    if (other.components_[i] == nullptr) continue;
    const size_t id = other.first_id_ + i;
    MAYBMS_CHECK(id >= component_slot_count())
        << "component " << id << " adopted below the allocation point";
    PadComponentSlots(id);
    components_.push_back(other.components_[i]);
  }
  PadComponentSlots(other.component_slot_count());
}

const Component& WsdDb::component(ComponentId id) const {
  MAYBMS_CHECK(IsLive(id)) << "dead component " << id;
  return *components_[id - first_id_];
}

Component& WsdDb::mutable_component(ComponentId id) {
  MAYBMS_CHECK(IsLive(id)) << "dead component " << id;
  if (delta_scope_ != nullptr) {
    // Inside ApplyDelta: record the dirty id; the delta epilogue
    // invalidates only the shard caches of relations that reference it.
    delta_scope_->dirty.push_back(id);
    for (const Slot& s : component(id).slots()) {
      delta_scope_->touched_owners.push_back(s.owner);
    }
  } else {
    InvalidateShardCaches();
    ref_index_.reset();
  }
  std::shared_ptr<Component>& p = components_[id - first_id_];
  // use_count() == 1 proves uniqueness: another thread can only bump the
  // count through a database copy that already shares this component,
  // which would make the count >= 2 to begin with.
  if (p.use_count() > 1) p = std::make_shared<Component>(*p);
  return *p;
}

void WsdDb::RemoveComponent(ComponentId id) {
  MAYBMS_CHECK(id < component_slot_count());
  const bool live = IsLive(id);
  if (delta_scope_ != nullptr) {
    delta_scope_->removed.push_back(id);
    if (live) {
      for (const Slot& s : component(id).slots()) {
        delta_scope_->touched_owners.push_back(s.owner);
      }
    }
  } else {
    InvalidateShardCaches();
    ref_index_.reset();
  }
  if (!live) return;
  components_[id - first_id_].reset();
  while (!components_.empty() && components_.front() == nullptr) {
    components_.pop_front();
    ++first_id_;
  }
}

void WsdDb::InvalidateShardCaches() {
  for (auto& [key, rel] : relations_) rel.set_cached_shards(nullptr);
}

void WsdDb::IndexComponent(RefIndex* index, ComponentId id) const {
  for (const Slot& s : component(id).slots()) {
    std::vector<ComponentId>& comps = index->slot_comps[s.owner];
    // Ids are indexed ascending, so a repeat owner within one component
    // shows as the last entry.
    if (comps.empty() || comps.back() != id) comps.push_back(id);
  }
}

void WsdDb::IndexTuple(RefIndex* index, const WsdTuple& t) {
  for (const Cell& c : t.cells) {
    if (c.is_ref()) ++index->cell_refs[c.ref().cid];
  }
  for (OwnerId o : t.deps) ++index->gated[o];
}

WsdDb::RefIndex WsdDb::BuildRefIndex() const {
  RefIndex index;
  for (ComponentId id : LiveComponents()) IndexComponent(&index, id);
  for (const auto& [key, rel] : relations_) {
    for (const WsdTuple& t : rel.tuples()) IndexTuple(&index, t);
  }
  return index;
}

WsdDb::RefIndex& WsdDb::MutableRefIndex() {
  if (ref_index_ == nullptr) {
    ref_index_ = std::make_shared<RefIndex>(BuildRefIndex());
  } else if (ref_index_.use_count() > 1) {
    // Same uniqueness argument as mutable_component.
    ref_index_ = std::make_shared<RefIndex>(*ref_index_);
  }
  return *ref_index_;
}

void WsdDb::IndexInsert(const std::string& relation, ComponentId first_new) {
  if (ref_index_ == nullptr) return;
  RefIndex& index = MutableRefIndex();
  for (ComponentId id = first_new; id < component_slot_count(); ++id) {
    if (IsLive(id)) IndexComponent(&index, id);
  }
  const WsdRelation& rel = relations_.at(ToLower(relation));
  IndexTuple(&index, rel.tuple(rel.NumTuples() - 1));
}

std::vector<ComponentId> WsdDb::LiveComponents() const {
  std::vector<ComponentId> out;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] != nullptr) {
      out.push_back(static_cast<ComponentId>(first_id_ + i));
    }
  }
  return out;
}

size_t WsdDb::NumLiveComponents() const {
  size_t n = 0;
  for (const auto& c : components_) {
    if (c != nullptr) ++n;
  }
  return n;
}

Result<ComponentId> WsdDb::MergeComponents(std::vector<ComponentId> ids,
                                           size_t max_rows) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<ComponentId> merged,
                          MergeComponentGroups({std::move(ids)}, max_rows));
  return merged[0];
}

Result<std::vector<ComponentId>> WsdDb::MergeComponentGroups(
    const std::vector<std::vector<ComponentId>>& groups, size_t max_rows) {
  std::vector<ComponentId> result(groups.size(), kInvalidComponent);
  // (old cid) -> (new cid, slot base); filled across all groups, applied
  // to the templates in one pass.
  std::unordered_map<ComponentId, std::pair<ComponentId, uint32_t>> remap;
  std::vector<ComponentId> to_remove;
  std::unordered_set<ComponentId> seen;  // overlap detection across groups
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<ComponentId> ids = groups[g];
    if (ids.empty()) {
      return Status::InvalidArgument("merge of zero components");
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (ComponentId id : ids) {
      if (!IsLive(id)) {
        return Status::Internal(StrFormat("merging dead component %u", id));
      }
      if (!seen.insert(id).second) {
        return Status::InvalidArgument(
            "component groups passed to MergeComponentGroups overlap");
      }
    }
    if (ids.size() == 1) {
      result[g] = ids[0];
      continue;
    }
    // Fold left-to-right; remember where each old component's slots land.
    Component merged = component(ids[0]);
    std::vector<std::pair<ComponentId, uint32_t>> bases;
    bases.emplace_back(ids[0], 0);
    for (size_t k = 1; k < ids.size(); ++k) {
      bases.emplace_back(ids[k], static_cast<uint32_t>(merged.NumSlots()));
      MAYBMS_ASSIGN_OR_RETURN(
          merged, Component::Product(merged, component(ids[k]), max_rows));
    }
    ComponentId new_id = AddComponent(std::move(merged));
    for (const auto& [old_id, base] : bases) {
      remap.emplace(old_id, std::make_pair(new_id, base));
      to_remove.push_back(old_id);
    }
    result[g] = new_id;
  }
  if (!remap.empty()) {
    ref_index_.reset();
    // Only the tuples that reference a merged component are rewritten, so
    // a relation that references none is not detached.
    for (auto& [key, rel] : relations_) {
      for (size_t i = 0; i < rel.NumTuples(); ++i) {
        bool touches = false;
        for (const Cell& cell : rel.tuple(i).cells) {
          if (cell.is_ref() && remap.count(cell.ref().cid)) {
            touches = true;
            break;
          }
        }
        if (!touches) continue;
        for (auto& cell : rel.mutable_tuple(i).cells) {
          if (!cell.is_ref()) continue;
          auto it = remap.find(cell.ref().cid);
          if (it != remap.end()) {
            cell.mutable_ref().slot += it->second.second;
            cell.mutable_ref().cid = it->second.first;
          }
        }
      }
    }
    for (ComponentId id : to_remove) RemoveComponent(id);
  }
  return result;
}

double WsdDb::Log2WorldCount() const {
  double log2 = 0.0;
  for (const auto& c : components_) {
    if (c != nullptr && c->NumRows() > 0) {
      log2 += std::log2(static_cast<double>(c->NumRows()));
    }
  }
  return log2;
}

std::optional<uint64_t> WsdDb::WorldCountIfSmall(uint64_t limit) const {
  uint64_t count = 1;
  for (const auto& c : components_) {
    if (c == nullptr) continue;
    uint64_t rows = c->NumRows();
    if (rows == 0) return 0;
    if (count > limit / rows) return std::nullopt;
    count *= rows;
  }
  return count;
}

uint64_t WsdDb::SerializedSize() const {
  uint64_t total = 0;
  for (const auto& [key, rel] : relations_) {
    for (const auto& t : rel.tuples()) {
      total += 4;  // row header
      for (const auto& cell : t.cells) {
        total += cell.is_certain() ? cell.value().SerializedSize() : 8;
      }
    }
  }
  for (const auto& c : components_) {
    if (c != nullptr) total += c->SerializedSize();
  }
  return total;
}

uint64_t WsdDb::InternedSize() const {
  uint64_t total = 0;
  std::unordered_set<std::string_view> strings;
  for (const auto& c : components_) {
    if (c == nullptr) continue;
    total += c->InternedSize();
    c->CollectStrings(&strings);
  }
  for (const auto& [key, rel] : relations_) {
    for (const auto& t : rel.tuples()) {
      total += 4;                                      // row header
      total += t.cells.size() * sizeof(PackedValue);   // packed cell model
      total += t.deps.size() * sizeof(OwnerId);
      for (const auto& cell : t.cells) {
        if (cell.is_certain() && cell.value().is_string()) {
          strings.insert(cell.value().as_string());
        }
      }
    }
  }
  // Each distinct string is stored once: payload + dictionary entry.
  constexpr uint64_t kPoolEntryOverhead = 24;
  for (std::string_view s : strings) total += s.size() + kPoolEntryOverhead;
  return total;
}

double WsdDb::GatedAliveMass(const Component& c,
                             const std::vector<OwnerId>& deps, bool* gates) {
  // Slots of this component owned by one of the (sorted) deps.
  uint32_t first_gate = 0;
  size_t n_gates = 0;
  const uint32_t nslots = static_cast<uint32_t>(c.NumSlots());
  for (uint32_t s = 0; s < nslots; ++s) {
    if (std::binary_search(deps.begin(), deps.end(), c.slot(s).owner)) {
      if (n_gates == 0) first_gate = s;
      ++n_gates;
    }
  }
  if (n_gates == 0) {
    *gates = false;
    return 1.0;
  }
  *gates = true;
  double alive = 0.0;
  if (n_gates == 1) {
    // Common case: one tight loop over a single packed column.
    const std::vector<PackedValue>& col = c.column(first_gate);
    const std::vector<double>& probs = c.probs();
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col[r].is_bottom()) alive += probs[r];
    }
  } else {
    for (size_t r = 0; r < c.NumRows(); ++r) {
      bool ok = true;
      for (uint32_t s = 0; s < nslots; ++s) {
        if (!std::binary_search(deps.begin(), deps.end(), c.slot(s).owner)) {
          continue;
        }
        if (c.IsBottomAt(r, s)) {
          ok = false;
          break;
        }
      }
      if (ok) alive += c.prob(r);
    }
  }
  return alive;
}

double WsdDb::ExistenceProbability(const WsdTuple& t) const {
  if (t.deps.empty()) return 1.0;
  double p = 1.0;
  for (const auto& c : components_) {
    if (c == nullptr) continue;
    bool gates = false;
    const double alive = GatedAliveMass(*c, t.deps, &gates);
    if (!gates) continue;
    p *= alive;
    if (p == 0.0) return 0.0;
  }
  return p;
}

Status WsdDb::CheckInvariants() const {
  constexpr double kEps = 1e-6;
  for (ComponentId id : LiveComponents()) {
    const Component& c = component(id);
    if (c.NumRows() == 0) {
      return Status::Internal(StrFormat("component %u has no rows", id));
    }
    double mass = c.TotalMass();
    if (std::abs(mass - 1.0) > kEps) {
      return Status::Internal(
          StrFormat("component %u mass %.9f != 1", id, mass));
    }
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      if (c.column(s).size() != c.NumRows()) {
        return Status::Internal(
            StrFormat("component %u column %u length %zu != %zu rows", id, s,
                      c.column(s).size(), c.NumRows()));
      }
    }
    for (size_t r = 0; r < c.NumRows(); ++r) {
      if (c.prob(r) < -kEps || c.prob(r) > 1.0 + kEps) {
        return Status::Internal(
            StrFormat("component %u row prob %g", id, c.prob(r)));
      }
    }
  }
  for (const auto& [key, rel] : relations_) {
    for (const auto& t : rel.tuples()) {
      if (t.cells.size() != rel.schema().size()) {
        return Status::Internal("tuple arity mismatch in " + rel.name());
      }
      if (!std::is_sorted(t.deps.begin(), t.deps.end())) {
        return Status::Internal("tuple deps not sorted in " + rel.name());
      }
      for (const auto& cell : t.cells) {
        if (cell.is_certain()) {
          if (cell.value().is_bottom()) {
            return Status::Internal("inline ⊥ cell in " + rel.name());
          }
        } else {
          const FieldRef& ref = cell.ref();
          if (!IsLive(ref.cid)) {
            return Status::Internal(
                StrFormat("cell references dead component %u", ref.cid));
          }
          if (ref.slot >= component(ref.cid).NumSlots()) {
            return Status::Internal(
                StrFormat("cell references slot %u of component %u (%zu "
                          "slots)",
                          ref.slot, ref.cid, component(ref.cid).NumSlots()));
          }
        }
      }
    }
  }
  if (ref_index_ != nullptr && !(*ref_index_ == BuildRefIndex())) {
    return Status::Internal(
        "maintained reference index disagrees with a rebuild");
  }
  return Status::OK();
}

std::string WsdDb::ToString() const {
  std::string out;
  for (const auto& [key, rel] : relations_) {
    out += rel.name() + " " + rel.schema().ToString() + "\n";
    for (size_t i = 0; i < rel.NumTuples(); ++i) {
      const WsdTuple& t = rel.tuple(i);
      out += StrFormat("  t%zu: (", i);
      for (size_t c = 0; c < t.cells.size(); ++c) {
        if (c) out += ", ";
        const Cell& cell = t.cells[c];
        if (cell.is_certain()) {
          out += cell.value().ToString();
        } else {
          out += StrFormat("@c%u.%u", cell.ref().cid, cell.ref().slot);
        }
      }
      out += ")";
      if (!t.deps.empty()) {
        out += " deps{";
        for (size_t d = 0; d < t.deps.size(); ++d) {
          if (d) out += ",";
          out += std::to_string(t.deps[d]);
        }
        out += "}";
      }
      out += "\n";
    }
  }
  bool first = true;
  for (ComponentId id : LiveComponents()) {
    out += first ? "components:\n" : "  ×\n";
    first = false;
    std::string body = component(id).ToString();
    // indent
    out += StrFormat("  [c%u]\n", id);
    size_t pos = 0;
    while (pos < body.size()) {
      size_t nl = body.find('\n', pos);
      if (nl == std::string::npos) nl = body.size();
      out += "  " + body.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  return out;
}

}  // namespace maybms
