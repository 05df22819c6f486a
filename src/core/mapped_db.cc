#include "core/mapped_db.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/delta.h"
#include "storage/value_pool.h"

namespace maybms {

namespace {

namespace sv3 = snapshotv3;

size_t ResolveResidentCap(size_t requested) {
  if (requested != 0) return requested;
  const char* env = std::getenv("MAYBMS_MAX_RESIDENT_BYTES");
  if (env == nullptr || *env == '\0') {
    return std::numeric_limits<size_t>::max();
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || v == 0) return std::numeric_limits<size_t>::max();
  return static_cast<size_t>(v);
}

Status CheckBlockBounds(std::string_view payload, uint64_t offset,
                        uint64_t length, const char* what) {
  if (offset % 8 != 0) {
    return Status::ParseError(
        StrFormat("snapshot %s block offset not 8-aligned", what));
  }
  if (offset > payload.size() || length > payload.size() - offset) {
    return Status::ParseError(
        StrFormat("snapshot %s block out of bounds", what));
  }
  return Status::OK();
}

Status VerifySection(const sv3::SectionView& s) {
  if (HashBytes(s.payload.data(), s.payload.size()) != s.checksum) {
    return Status::ParseError(
        StrFormat("snapshot section %s failed checksum verification",
                  SnapshotTagName(s.tag).c_str()));
  }
  return Status::OK();
}

/// Scans of one relation collected from a plan: each Select chain
/// directly above a Scan contributes one conjunctive bound set; a bare
/// Scan (or one under operators we do not analyze) keeps every shard.
struct ScanUse {
  bool keep_all = false;
  std::vector<std::vector<ColumnBound>> bound_sets;
};

void IntersectInto(std::vector<ColumnBound>* acc,
                   const std::vector<ColumnBound>& b) {
  for (size_t c = 0; c < acc->size(); ++c) {
    if (!b[c].active) continue;
    (*acc)[c].active = true;
    (*acc)[c].lo = std::max((*acc)[c].lo, b[c].lo);
    (*acc)[c].hi = std::min((*acc)[c].hi, b[c].hi);
  }
}

void CollectScans(const Plan& p, const WsdDb& skeleton,
                  std::map<std::string, ScanUse>* uses) {
  if (p.kind() == PlanKind::kScan) {
    (*uses)[p.relation()].keep_all = true;
    return;
  }
  if (p.kind() == PlanKind::kSelect) {
    // Follow the Select chain down; if it bottoms out at a Scan, the
    // conjunction of every predicate on the chain bounds that scan.
    std::vector<ExprPtr> preds;
    const Plan* n = &p;
    while (n->kind() == PlanKind::kSelect) {
      preds.push_back(n->predicate());
      n = n->input().get();
    }
    if (n->kind() == PlanKind::kScan) {
      ScanUse& u = (*uses)[n->relation()];
      Result<const WsdRelation*> rel = skeleton.GetRelation(n->relation());
      if (!rel.ok()) {
        // Unknown relation: nothing to materialize; the executor
        // reports the NotFound with full context.
        u.keep_all = true;
        return;
      }
      const Schema& schema = (*rel)->schema();
      std::vector<ColumnBound> acc(schema.size());
      for (const ExprPtr& pred : preds) {
        // Plans carry unbound predicates; bind a copy to resolve column
        // indexes. A predicate that fails to bind prunes nothing — the
        // executor surfaces the binding error on the scratch database.
        Result<ExprPtr> bound = pred->BindAgainst(schema);
        if (!bound.ok()) continue;
        IntersectInto(&acc, ExtractColumnBounds(**bound, schema.size()));
      }
      u.bound_sets.push_back(std::move(acc));
      return;
    }
    // Select over something else: analyze the subtree as usual.
  }
  for (const PlanPtr& c : p.children()) CollectScans(*c, skeleton, uses);
}

/// Appends the overlay's tuples (creating the relations made after the
/// load) to `db`, a database decoded from the snapshot, and adopts the
/// overlay's components and owner counter. Overlay tuples and components
/// never reference stored ones (an insert only creates), and their ids
/// lie above the snapshot's allocation point. Every overlay tuple joins,
/// scanned or not: the lifted executor then drops what a plan does not
/// read exactly as it does on the eager database.
Status AppendOverlay(const WsdDb& overlay, WsdDb* db) {
  for (const auto& [key, ov] : overlay.relations()) {
    if (!db->HasRelation(key)) {
      MAYBMS_RETURN_IF_ERROR(db->CreateRelation(ov.name(), ov.schema()));
    }
    if (ov.NumTuples() == 0) continue;
    WsdRelation* rel = db->GetMutableRelation(key).value();
    rel->Reserve(rel->NumTuples() + ov.NumTuples());
    for (const WsdTuple& t : ov.tuples()) rel->Add(t);
  }
  db->AdoptComponents(overlay);
  db->BumpOwner(overlay.owner_counter() - 1);
  return Status::OK();
}

}  // namespace

Result<MappedWsdDb> MappedWsdDb::Open(const std::string& path,
                                      MappedDbOptions options, Env* env) {
  if (env == nullptr) env = Env::Default();
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessImage> image,
                          env->MapFile(path));
  return Open(std::move(image), options);
}

Result<MappedWsdDb> MappedWsdDb::Open(std::unique_ptr<RandomAccessImage> image,
                                      MappedDbOptions options) {
  MappedWsdDb m;
  m.file_ = std::move(image);
  m.max_resident_bytes_ = ResolveResidentCap(options.max_resident_bytes);

  std::string_view bytes = m.file_->bytes();
  constexpr size_t kHeaderLen = sizeof(sv3::kHeaderV3) - 1;
  if (bytes.substr(0, kHeaderLen) != sv3::kHeaderV3) {
    if (bytes.substr(0, 10) == "MAYBMS-WSD") {
      return Status::Unsupported(
          "only \"MAYBMS-WSD 3\" snapshots support mapped loading; "
          "load v1/v2 files eagerly and re-save");
    }
    return Status::ParseError("not a MAYBMS-WSD snapshot: " + m.path());
  }

  MAYBMS_ASSIGN_OR_RETURN(std::vector<sv3::SectionView> sections,
                          sv3::WalkSnapshotSections(bytes.substr(kHeaderLen)));
  constexpr uint32_t kExpected[] = {sv3::kSecMeta,       sv3::kSecStrings,
                                    sv3::kSecShardDir,   sv3::kSecComponents,
                                    sv3::kSecRelations,  sv3::kSecEnd};
  if (sections.size() != 6) {
    return Status::ParseError("v3 snapshot must contain exactly 6 sections");
  }
  for (size_t i = 0; i < 6; ++i) {
    if (sections[i].tag != kExpected[i]) {
      return Status::ParseError(
          StrFormat("expected snapshot section %s, got %s",
                    SnapshotTagName(kExpected[i]).c_str(),
                    SnapshotTagName(sections[i].tag).c_str()));
    }
  }
  // The eager head (META, STRS, SDIR, END) is checksum-verified now;
  // COMP/RELS blocks verify individually on first materialization, and
  // their whole sections only when every block is materialized.
  for (size_t i : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
    MAYBMS_RETURN_IF_ERROR(VerifySection(sections[i]));
  }
  if (!sections[5].payload.empty()) {
    return Status::ParseError("snapshot END section carries payload");
  }

  MAYBMS_ASSIGN_OR_RETURN(m.meta_, sv3::ParseMetaV3(sections[0].payload));
  MAYBMS_ASSIGN_OR_RETURN(m.local_to_global_,
                          SnapshotStringTable::Restore(sections[1].payload));
  MAYBMS_ASSIGN_OR_RETURN(m.dir_, sv3::ParseDirectory(sections[2].payload));
  if (m.meta_.component_counter > 0) {
    // Validate the allocation counter against the directory once, so
    // Materialize can pad slot vectors without re-checking per call.
    const std::vector<sv3::DirComponent>& comps = m.dir_.components;
    const uint64_t min_counter = comps.empty() ? 0 : comps.back().id + 1;
    if (m.meta_.component_counter < min_counter) {
      return Status::ParseError(
          StrFormat("snapshot component counter %llu out of range",
                    static_cast<unsigned long long>(m.meta_.component_counter)));
    }
    if (!comps.empty()) {
      MAYBMS_RETURN_IF_ERROR(sv3::CheckIdGaps(
          comps.front().id, static_cast<size_t>(m.meta_.component_counter),
          comps.size()));
    }
  }
  m.comp_ = sections[3];
  m.rels_ = sections[4];

  // Directory offsets are validated against the mapped payload sizes
  // here, so materialization never slices out of bounds.
  for (const sv3::DirComponent& dc : m.dir_.components) {
    MAYBMS_RETURN_IF_ERROR(
        CheckBlockBounds(m.comp_.payload, dc.offset, dc.length, "component"));
  }
  for (const sv3::DirRelation& dr : m.dir_.relations) {
    for (const sv3::DirShard& ds : dr.shards) {
      MAYBMS_RETURN_IF_ERROR(
          CheckBlockBounds(m.rels_.payload, ds.offset, ds.length, "shard"));
      for (ComponentId id : ds.ref_components) {
        if (m.ComponentIndex(id) == m.dir_.components.size()) {
          return Status::ParseError(
              StrFormat("snapshot shard references unknown component %u", id));
        }
      }
    }
  }

  {
    ValuePool& pool = ValuePool::Global();
    m.local_strings_.reserve(m.local_to_global_.size());
    for (uint32_t gid : m.local_to_global_) {
      m.local_strings_.push_back(&pool.Get(gid));
    }
  }

  // The per-shard ranges and referenced components move from the
  // directory into the partitions; dir_ keeps the block locations.
  m.partitions_.reserve(m.dir_.relations.size());
  for (sv3::DirRelation& dr : m.dir_.relations) {
    auto part = std::make_shared<ShardPartition>();
    part->rows_per_shard =
        m.meta_.rows_per_shard == 0
            ? std::max<size_t>(static_cast<size_t>(dr.n_tuples), 1)
            : static_cast<size_t>(m.meta_.rows_per_shard);
    part->shards.reserve(dr.shards.size());
    for (sv3::DirShard& ds : dr.shards) {
      ShardInfo info;
      info.row_begin = static_cast<size_t>(ds.row_begin);
      info.row_end = static_cast<size_t>(ds.row_end);
      info.ranges = std::move(ds.ranges);
      info.ref_components = std::move(ds.ref_components);
      part->shards.push_back(std::move(info));
    }
    m.partitions_.push_back(std::move(part));
  }

  m.skeleton_.mutable_options().max_component_rows =
      static_cast<size_t>(m.meta_.max_component_rows);
  m.skeleton_.mutable_options().rows_per_shard =
      static_cast<size_t>(m.meta_.rows_per_shard);
  for (const sv3::DirRelation& dr : m.dir_.relations) {
    MAYBMS_RETURN_IF_ERROR(m.skeleton_.CreateRelation(dr.name, dr.schema));
    WsdRelation* rel = m.skeleton_.GetMutableRelation(dr.name).value();
    rel->set_display_name(dr.display);
    rel->set_base_rows(static_cast<size_t>(dr.n_tuples));
  }
  if (m.meta_.owner_counter > 0) {
    m.skeleton_.BumpOwner(static_cast<OwnerId>(m.meta_.owner_counter - 1));
  }
  m.skeleton_.PadComponentSlots(static_cast<size_t>(m.meta_.component_counter));
  return m;
}

size_t MappedWsdDb::ComponentIndex(ComponentId id) const {
  const std::vector<sv3::DirComponent>& comps = dir_.components;
  auto it = std::lower_bound(
      comps.begin(), comps.end(), id,
      [](const sv3::DirComponent& c, ComponentId v) { return c.id < v; });
  if (it == comps.end() || it->id != id) return comps.size();
  return static_cast<size_t>(it - comps.begin());
}

// Requires mu_ held.
void MappedWsdDb::Account(size_t bytes) {
  resident_bytes_ += bytes;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
}

// Requires mu_ held. Dropping an entry only releases the cache's
// reference; a concurrent materialization holding the shared_ptr keeps
// using the block safely.
void MappedWsdDb::EvictToCap() {
  while (resident_bytes_ > max_resident_bytes_ &&
         (!comp_cache_.empty() || !shard_cache_.empty())) {
    // Linear LRU scan: entry counts are one per touched shard/component,
    // small next to the decode work that created them.
    uint64_t best_use = std::numeric_limits<uint64_t>::max();
    uint64_t best_key = 0;
    bool best_is_comp = false;
    for (const auto& [key, e] : comp_cache_) {
      if (e.last_use < best_use) {
        best_use = e.last_use;
        best_key = key;
        best_is_comp = true;
      }
    }
    for (const auto& [key, e] : shard_cache_) {
      if (e.last_use < best_use) {
        best_use = e.last_use;
        best_key = key;
        best_is_comp = false;
      }
    }
    if (best_is_comp) {
      resident_bytes_ -= comp_cache_[best_key].bytes;
      comp_cache_.erase(best_key);
    } else {
      resident_bytes_ -= shard_cache_[best_key].bytes;
      shard_cache_.erase(best_key);
    }
  }
}

Result<Component> MappedWsdDb::DecodeComponentBlock(size_t k) const {
  const sv3::DirComponent& dc = dir_.components[k];
  MAYBMS_ASSIGN_OR_RETURN(
      std::string_view block,
      sv3::SliceBlock(comp_.payload, dc.offset, dc.length, dc.checksum,
                      "component"));
  SnapshotCursor cur(block);
  MAYBMS_ASSIGN_OR_RETURN(auto decoded,
                          sv3::DecodeComponentRecord(&cur, local_to_global_));
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot component block");
  }
  if (decoded.first != dc.id || decoded.second.NumSlots() != dc.n_slots ||
      decoded.second.NumRows() != dc.n_rows) {
    return Status::ParseError(
        "snapshot component block disagrees with its directory entry");
  }
  return std::move(decoded.second);
}

Status MappedWsdDb::DecodeShardBlock(size_t r, size_t s, WsdTuple* out) const {
  const sv3::DirRelation& dr = dir_.relations[r];
  const sv3::DirShard& ds = dr.shards[s];
  MAYBMS_ASSIGN_OR_RETURN(
      std::string_view block,
      sv3::SliceBlock(rels_.payload, ds.offset, ds.length, ds.checksum,
                      "shard"));
  return sv3::DecodeShardRecord(
      block, static_cast<uint32_t>(dr.schema.size()),
      static_cast<size_t>(ds.row_end - ds.row_begin), local_strings_, out);
}

Result<std::shared_ptr<const Component>> MappedWsdDb::LoadComponent(
    size_t k, MaterializeStats* stats) {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    auto it = comp_cache_.find(k);
    if (it != comp_cache_.end()) {
      it->second.last_use = ++use_clock_;
      return it->second.comp;
    }
  }
  // Decode outside the lock: the mapped payload is immutable, and the
  // checksum + parse work dominates. Two threads racing on a cold block
  // both decode; the second install below adopts the first one's copy.
  MAYBMS_ASSIGN_OR_RETURN(Component decoded, DecodeComponentBlock(k));
  const size_t bytes = static_cast<size_t>(dir_.components[k].length);
  stats->components_loaded++;
  stats->bytes_decoded += bytes;
  auto comp = std::make_shared<const Component>(std::move(decoded));
  std::lock_guard<std::mutex> lock(*mu_);
  CachedComponent& slot = comp_cache_[k];
  if (slot.comp == nullptr) {
    slot.comp = std::move(comp);
    slot.bytes = bytes;
    Account(slot.bytes);
  }
  slot.last_use = ++use_clock_;
  return slot.comp;
}

Result<std::shared_ptr<const std::vector<WsdTuple>>> MappedWsdDb::LoadShard(
    size_t r, size_t s, MaterializeStats* stats) {
  const uint64_t key = (static_cast<uint64_t>(r) << 32) | s;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    auto it = shard_cache_.find(key);
    if (it != shard_cache_.end()) {
      it->second.last_use = ++use_clock_;
      return it->second.tuples;
    }
  }
  const sv3::DirShard& ds = dir_.relations[r].shards[s];
  std::vector<WsdTuple> tuples(static_cast<size_t>(ds.row_end - ds.row_begin));
  MAYBMS_RETURN_IF_ERROR(DecodeShardBlock(r, s, tuples.data()));
  const size_t bytes = static_cast<size_t>(ds.length);
  stats->bytes_decoded += bytes;
  auto decoded =
      std::make_shared<const std::vector<WsdTuple>>(std::move(tuples));
  std::lock_guard<std::mutex> lock(*mu_);
  CachedShard& slot = shard_cache_[key];
  if (slot.tuples == nullptr) {
    slot.tuples = std::move(decoded);
    slot.bytes = bytes;
    Account(slot.bytes);
  }
  slot.last_use = ++use_clock_;
  return slot.tuples;
}

Result<WsdDb> MappedWsdDb::Materialize(std::vector<std::vector<char>> keep,
                                       bool full, const WsdDb& overlay) {
  if (full) {
    // Every block is read anyway, so the whole-section checksums are
    // verified too: they also cover the padding between blocks, which
    // no block checksum does.
    MAYBMS_RETURN_IF_ERROR(VerifySection(comp_));
    MAYBMS_RETURN_IF_ERROR(VerifySection(rels_));
  }
  // Per dir relation, the oldest rows the overlay has evicted. A read
  // skips the shards they fill; the rest are decoded and evicted below.
  std::vector<const WsdRelation*> written(dir_.relations.size());
  std::vector<size_t> retired(dir_.relations.size());
  for (size_t r = 0; r < dir_.relations.size(); ++r) {
    const sv3::DirRelation& dr = dir_.relations[r];
    MAYBMS_ASSIGN_OR_RETURN(written[r], overlay.GetRelation(dr.name));
    const size_t n = static_cast<size_t>(dr.n_tuples);
    retired[r] = n - std::min(written[r]->base_rows(), n);
    for (size_t s = 0; s < dr.shards.size() && !full; ++s) {
      if (dr.shards[s].row_end <= retired[r]) keep[r][s] = 0;
    }
  }
  MaterializeStats stats;
  // A full materialization keeps every component, referenced or not, so
  // it reproduces the stored database exactly.
  std::vector<char> comp_needed(dir_.components.size(), full ? 1 : 0);
  for (size_t r = 0; r < dir_.relations.size(); ++r) {
    stats.shards_total += dir_.relations[r].shards.size();
    for (size_t s = 0; s < dir_.relations[r].shards.size(); ++s) {
      if (!keep[r][s]) continue;
      stats.shards_kept++;
      for (ComponentId id : partitions_[r]->shards[s].ref_components) {
        comp_needed[ComponentIndex(id)] = 1;
      }
    }
  }

  WsdDb db;
  db.mutable_options().max_component_rows =
      static_cast<size_t>(meta_.max_component_rows);
  db.mutable_options().rows_per_shard =
      static_cast<size_t>(meta_.rows_per_shard);
  // Components place at their original ids (kept tuples reference them);
  // skipped ids are dead, and the holes between placed ones stay within
  // the gap budget the directory was validated against.
  for (size_t k = 0; k < dir_.components.size(); ++k) {
    if (!comp_needed[k]) continue;
    Component c;
    if (full) {
      MAYBMS_ASSIGN_OR_RETURN(c, DecodeComponentBlock(k));
      stats.components_loaded++;
      stats.bytes_decoded += static_cast<size_t>(dir_.components[k].length);
    } else {
      MAYBMS_ASSIGN_OR_RETURN(std::shared_ptr<const Component> cached,
                              LoadComponent(k, &stats));
      c = *cached;
    }
    MAYBMS_RETURN_IF_ERROR(
        sv3::PlaceComponentAt(&db, dir_.components[k].id, k, std::move(c)));
  }
  DeltaBatch evict;
  for (size_t r = 0; r < dir_.relations.size(); ++r) {
    const sv3::DirRelation& dr = dir_.relations[r];
    MAYBMS_RETURN_IF_ERROR(db.CreateRelation(dr.name, dr.schema));
    WsdRelation* rel = db.GetMutableRelation(dr.name).value();
    rel->set_display_name(dr.display);
    std::vector<WsdTuple>& tuples = rel->mutable_tuples();
    const size_t n_shards = dr.shards.size();
    size_t retired_kept = 0;  // retired rows among the decoded ones
    for (size_t s = 0; s < n_shards; ++s) {
      if (keep[r][s] && dr.shards[s].row_begin < retired[r]) {
        retired_kept += std::min<size_t>(dr.shards[s].row_end, retired[r]) -
                        static_cast<size_t>(dr.shards[s].row_begin);
      }
    }
    if (retired_kept > 0) evict.EvictOldest(dr.name, retired_kept);
    if (full) {
      // Shards are random-access and self-contained: decode them over
      // the pool, each straight into its rows of the relation.
      tuples.resize(static_cast<size_t>(dr.n_tuples));
      std::vector<Status> shard_status(n_shards);
      ParallelFor(n_shards <= 1 ? 1 : 0, n_shards, [&](size_t s) {
        shard_status[s] = DecodeShardBlock(
            r, s, tuples.data() + static_cast<size_t>(dr.shards[s].row_begin));
      });
      for (size_t s = 0; s < n_shards; ++s) {
        MAYBMS_RETURN_IF_ERROR(shard_status[s]);
        stats.bytes_decoded += static_cast<size_t>(dr.shards[s].length);
      }
    } else {
      size_t rows = 0;
      for (size_t s = 0; s < n_shards; ++s) {
        if (keep[r][s]) {
          rows += static_cast<size_t>(dr.shards[s].row_end -
                                      dr.shards[s].row_begin);
        }
      }
      tuples.reserve(rows);
      for (size_t s = 0; s < n_shards; ++s) {
        if (!keep[r][s]) continue;
        MAYBMS_ASSIGN_OR_RETURN(std::shared_ptr<const std::vector<WsdTuple>> sh,
                                LoadShard(r, s, &stats));
        tuples.insert(tuples.end(), sh->begin(), sh->end());
      }
    }
    // A relation with every shard kept and no write over it is the
    // stored one, so the directory's partition is its shard partition.
    if (retired[r] == 0 && written[r]->NumTuples() == 0 &&
        std::all_of(keep[r].begin(), keep[r].end(),
                    [](char k) { return k != 0; })) {
      rel->set_cached_shards(partitions_[r]);
    }
  }
  if (meta_.owner_counter > 0) {
    db.BumpOwner(static_cast<OwnerId>(meta_.owner_counter - 1));
  }
  // Restore the component-id allocation point (validated in Open), so a
  // full materialization allocates ids where the saved database did and
  // a replayed WAL reproduces them.
  db.PadComponentSlots(static_cast<size_t>(meta_.component_counter));
  if (!evict.empty()) {
    // The retired rows leave under the eviction rule, collecting the
    // components only they used — what the eager database did.
    MAYBMS_RETURN_IF_ERROR(db.ApplyDelta(evict).status());
  }
  MAYBMS_RETURN_IF_ERROR(AppendOverlay(overlay, &db));
  MAYBMS_RETURN_IF_ERROR(db.CheckInvariants());
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (!full) EvictToCap();
    last_stats_ = stats;
  }
  return db;
}

Result<WsdDb> MappedWsdDb::MaterializeForPlan(const Plan& plan,
                                              const WsdDb& overlay) {
  std::map<std::string, ScanUse> uses;
  CollectScans(plan, overlay, &uses);
  std::vector<std::vector<char>> keep(dir_.relations.size());
  for (size_t r = 0; r < dir_.relations.size(); ++r) {
    const size_t n_shards = dir_.relations[r].shards.size();
    auto it = uses.find(dir_.relations[r].name);
    if (it == uses.end()) {
      keep[r].assign(n_shards, 0);  // never scanned: stays empty
      continue;
    }
    const ScanUse& u = it->second;
    if (u.keep_all) {
      keep[r].assign(n_shards, 1);
      continue;
    }
    keep[r].assign(n_shards, 0);
    for (const std::vector<ColumnBound>& bounds : u.bound_sets) {
      std::vector<char> mask = PruneShards(*partitions_[r], bounds);
      for (size_t s = 0; s < n_shards; ++s) keep[r][s] |= mask[s];
    }
  }
  return Materialize(std::move(keep), /*full=*/false, overlay);
}

Result<WsdDb> MappedWsdDb::MaterializeAll(const WsdDb& overlay) {
  std::vector<std::vector<char>> keep(dir_.relations.size());
  for (size_t r = 0; r < dir_.relations.size(); ++r) {
    keep[r].assign(dir_.relations[r].shards.size(), 1);
  }
  return Materialize(std::move(keep), /*full=*/true, overlay);
}

}  // namespace maybms
