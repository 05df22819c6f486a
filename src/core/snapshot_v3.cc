#include "core/snapshot_v3.h"

#include <algorithm>
#include <ostream>

#include "common/hash.h"
#include "common/string_util.h"
#include "core/serialize.h"

namespace maybms {
namespace snapshotv3 {

std::pair<uint8_t, uint64_t> PackedToWire(const PackedValue& v,
                                          SnapshotStringTable* strings) {
  switch (v.tag()) {
    case PackedTag::kNull:
    case PackedTag::kBottom:
      return {static_cast<uint8_t>(v.tag()), 0};
    case PackedTag::kBool:
      return {static_cast<uint8_t>(v.tag()), v.as_bool() ? 1u : 0u};
    case PackedTag::kInt:
      return {static_cast<uint8_t>(v.tag()),
              static_cast<uint64_t>(v.as_int())};
    case PackedTag::kDouble:
      return {static_cast<uint8_t>(v.tag()), DoubleBits(v.as_double())};
    case PackedTag::kString:
      return {static_cast<uint8_t>(v.tag()),
              strings->IdForGlobal(v.string_id())};
  }
  return {0, 0};
}

Status CheckIdGaps(size_t first, size_t end, size_t live) {
  if (end - first > live + kMaxComponentIdGaps) {
    return Status::ParseError(
        StrFormat("component id %zu implies more than %zu dead-id gaps "
                  "above id %zu",
                  end, kMaxComponentIdGaps, first));
  }
  return Status::OK();
}

Status PlaceComponentAt(WsdDb* db, size_t id, size_t placed, Component c) {
  if (id >= kInvalidComponent) {
    return Status::ParseError(StrFormat("component id %zu out of range", id));
  }
  if (id < db->component_slot_count()) {
    return Status::ParseError("component ids out of order");
  }
  if (db->component_span() > 0) {
    MAYBMS_RETURN_IF_ERROR(CheckIdGaps(
        db->component_slot_count() - db->component_span(), id, placed));
  }
  db->PlaceComponent(static_cast<ComponentId>(id), std::move(c));
  return Status::OK();
}

void AppendComponentRecord(const WsdDb& db, ComponentId id,
                           SnapshotStringTable* strings, std::string* out) {
  const Component& c = db.component(id);
  const size_t n_rows = c.NumRows();
  PutPod(out, static_cast<uint32_t>(id));
  PutPod(out, static_cast<uint32_t>(c.NumSlots()));
  PutPod(out, static_cast<uint64_t>(n_rows));
  for (const Slot& s : c.slots()) {
    PutPod(out, static_cast<uint64_t>(s.owner));
    PutLenString(out, s.label);
  }
  PutArray(out, c.probs());
  std::vector<uint8_t> tags;
  std::vector<uint64_t> payloads;
  for (size_t s = 0; s < c.NumSlots(); ++s) {
    const std::vector<PackedValue>& col = c.column(s);
    tags.resize(n_rows);
    payloads.resize(n_rows);
    for (size_t r = 0; r < n_rows; ++r) {
      std::tie(tags[r], payloads[r]) = PackedToWire(col[r], strings);
    }
    PutArray(out, tags);
    PutArray(out, payloads);
  }
}

Result<std::pair<uint32_t, Component>> DecodeComponentRecord(
    SnapshotCursor* cur, const std::vector<uint32_t>& local_to_global) {
  MAYBMS_ASSIGN_OR_RETURN(uint32_t id, cur->Read<uint32_t>());
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_slots, cur->Read<uint32_t>());
  MAYBMS_ASSIGN_OR_RETURN(uint64_t n_rows64, cur->Read<uint64_t>());
  const size_t n_rows = static_cast<size_t>(n_rows64);
  // Every slot record occupies at least 12 payload bytes (owner + label
  // length), so a slot count beyond that bound is corrupt; checking
  // before the reserve keeps a crafted count from forcing a huge
  // allocation.
  if (n_slots > cur->remaining() / 12) {
    return Status::ParseError("snapshot slot count exceeds payload");
  }
  std::vector<Slot> slots;
  slots.reserve(n_slots);
  for (uint32_t s = 0; s < n_slots; ++s) {
    MAYBMS_ASSIGN_OR_RETURN(uint64_t owner, cur->Read<uint64_t>());
    MAYBMS_ASSIGN_OR_RETURN(std::string label, cur->ReadLenString());
    slots.push_back({static_cast<OwnerId>(owner), std::move(label)});
  }
  std::vector<double> probs;
  MAYBMS_RETURN_IF_ERROR(cur->ReadArray(n_rows, &probs));
  std::vector<uint8_t> tags;
  std::vector<uint64_t> payloads;
  std::vector<std::vector<PackedValue>> cols(n_slots);
  for (uint32_t s = 0; s < n_slots; ++s) {
    MAYBMS_RETURN_IF_ERROR(cur->ReadArray(n_rows, &tags));
    MAYBMS_RETURN_IF_ERROR(cur->ReadArray(n_rows, &payloads));
    std::vector<PackedValue>& col = cols[s];
    col.resize(n_rows);
    // The hot loop of a load: one direct switch per packed cell, no
    // temporaries — a column deserializes at near-memcpy speed.
    for (size_t r = 0; r < n_rows; ++r) {
      const uint64_t payload = payloads[r];
      switch (tags[r]) {
        case static_cast<uint8_t>(PackedTag::kNull):
          col[r] = PackedValue::Null();
          break;
        case static_cast<uint8_t>(PackedTag::kBottom):
          col[r] = PackedValue::Bottom();
          break;
        case static_cast<uint8_t>(PackedTag::kBool):
          col[r] = PackedValue::Bool(payload != 0);
          break;
        case static_cast<uint8_t>(PackedTag::kInt):
          col[r] = PackedValue::Int(static_cast<int64_t>(payload));
          break;
        case static_cast<uint8_t>(PackedTag::kDouble):
          col[r] = PackedValue::Double(BitsToDouble(payload));
          break;
        case static_cast<uint8_t>(PackedTag::kString):
          if (payload >= local_to_global.size()) {
            return Status::ParseError("snapshot string id out of range");
          }
          col[r] = PackedValue::StringId(
              local_to_global[static_cast<size_t>(payload)]);
          break;
        default:
          return Status::ParseError(
              "component cell tag out of range in snapshot");
      }
    }
  }
  MAYBMS_ASSIGN_OR_RETURN(
      Component c, Component::FromColumns(std::move(slots), std::move(cols),
                                          std::move(probs)));
  return std::make_pair(id, std::move(c));
}

Status BuildTupleRange(WsdTuple* tuples, size_t begin, size_t end,
                       uint32_t n_cols, const std::vector<uint32_t>& dep_counts,
                       const std::vector<uint64_t>& dep_offsets,
                       const std::vector<uint64_t>& deps_flat,
                       const std::vector<uint8_t>& tags,
                       const std::vector<uint64_t>& payloads,
                       const std::vector<const std::string*>& local_strings) {
  for (size_t t_i = begin; t_i < end; ++t_i) {
    WsdTuple& t = tuples[t_i];
    size_t dep_pos = static_cast<size_t>(dep_offsets[t_i]);
    t.deps.reserve(dep_counts[t_i]);
    for (uint32_t d = 0; d < dep_counts[t_i]; ++d) {
      // Written sorted and unique; CheckInvariants re-verifies after the
      // load, so a corrupted snapshot cannot smuggle unsorted deps in.
      t.deps.push_back(static_cast<OwnerId>(deps_flat[dep_pos + d]));
    }
    t.cells.reserve(n_cols);
    size_t i = static_cast<size_t>(t_i) * n_cols;
    for (uint32_t c = 0; c < n_cols; ++c, ++i) {
      const uint64_t payload = payloads[i];
      switch (tags[i]) {
        case kCellRef:
          t.cells.push_back(
              Cell::Ref({static_cast<ComponentId>(payload & 0xffffffffu),
                         static_cast<uint32_t>(payload >> 32)}));
          break;
        case static_cast<uint8_t>(PackedTag::kNull):
          t.cells.push_back(Cell::Certain(Value::Null()));
          break;
        case static_cast<uint8_t>(PackedTag::kBottom):
          // Invalid as an inline cell; constructed anyway so the final
          // CheckInvariants reports it as the structured error it is.
          t.cells.push_back(Cell::Certain(Value::Bottom()));
          break;
        case static_cast<uint8_t>(PackedTag::kBool):
          t.cells.push_back(Cell::Certain(Value::Bool(payload != 0)));
          break;
        case static_cast<uint8_t>(PackedTag::kInt):
          t.cells.push_back(
              Cell::Certain(Value::Int(static_cast<int64_t>(payload))));
          break;
        case static_cast<uint8_t>(PackedTag::kDouble):
          t.cells.push_back(Cell::Certain(Value::Double(
              BitsToDouble(payload))));
          break;
        case static_cast<uint8_t>(PackedTag::kString): {
          if (payload >= local_strings.size()) {
            return Status::ParseError("snapshot string id out of range");
          }
          t.cells.push_back(Cell::Certain(
              Value::String(*local_strings[static_cast<size_t>(payload)])));
          break;
        }
        default:
          return Status::ParseError(
              StrFormat("unknown snapshot cell tag %u", tags[i]));
      }
    }
  }
  return Status::OK();
}

void AppendShardRecord(const WsdRelation& rel, size_t row_begin,
                       size_t row_end, SnapshotStringTable* strings,
                       std::string* out) {
  const size_t n_cols = rel.schema().size();
  const size_t n = row_end - row_begin;
  std::vector<uint32_t> dep_counts;
  std::vector<uint64_t> deps_flat;
  dep_counts.reserve(n);
  for (size_t i = row_begin; i < row_end; ++i) {
    const WsdTuple& t = rel.tuple(i);
    dep_counts.push_back(static_cast<uint32_t>(t.deps.size()));
    for (OwnerId o : t.deps) deps_flat.push_back(static_cast<uint64_t>(o));
  }
  PutArray(out, dep_counts);
  PutPod(out, static_cast<uint64_t>(deps_flat.size()));
  PutArray(out, deps_flat);
  std::vector<uint8_t> tags(n * n_cols);
  std::vector<uint64_t> payloads(n * n_cols);
  size_t i = 0;
  for (size_t r = row_begin; r < row_end; ++r) {
    for (const Cell& cell : rel.tuple(r).cells) {
      if (cell.is_ref()) {
        tags[i] = kCellRef;
        payloads[i] = static_cast<uint64_t>(cell.ref().cid) |
                      (static_cast<uint64_t>(cell.ref().slot) << 32);
      } else {
        const Value& v = cell.value();
        if (v.is_string()) {
          // Certain cells hold inline Values; key the table by content
          // so they share entries with pooled component strings.
          tags[i] = static_cast<uint8_t>(PackedTag::kString);
          payloads[i] = strings->IdForContent(v.as_string());
        } else {
          std::tie(tags[i], payloads[i]) =
              PackedToWire(PackedValue::FromValue(v), strings);
        }
      }
      ++i;
    }
  }
  PutArray(out, tags);
  PutArray(out, payloads);
}

Status DecodeShardRecord(std::string_view block, uint32_t n_cols, size_t n,
                         const std::vector<const std::string*>& local_strings,
                         WsdTuple* out) {
  SnapshotCursor cur(block);
  std::vector<uint32_t> dep_counts;
  MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n, &dep_counts));
  MAYBMS_ASSIGN_OR_RETURN(uint64_t n_deps, cur.Read<uint64_t>());
  std::vector<uint64_t> deps_flat;
  MAYBMS_RETURN_IF_ERROR(
      cur.ReadArray(static_cast<size_t>(n_deps), &deps_flat));
  std::vector<uint64_t> dep_offsets(n);
  uint64_t dep_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    dep_offsets[i] = dep_pos;
    dep_pos += dep_counts[i];
  }
  if (dep_pos != deps_flat.size()) {
    return Status::ParseError("snapshot shard dependency list inconsistent");
  }
  if (n_cols != 0 && n > cur.remaining() / n_cols) {
    return Status::ParseError("snapshot shard cell array exceeds payload");
  }
  std::vector<uint8_t> tags;
  std::vector<uint64_t> payloads;
  MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n * n_cols, &tags));
  MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n * n_cols, &payloads));
  // Blocks are self-contained; trailing bytes other than the writer's
  // 8-alignment padding would mean a framing bug.
  if (cur.remaining() >= 8) {
    return Status::ParseError("trailing bytes in snapshot shard block");
  }
  return BuildTupleRange(out, 0, n, n_cols, dep_counts, dep_offsets,
                         deps_flat, tags, payloads, local_strings);
}

// --- shard directory -------------------------------------------------------

std::string SerializeDirectory(const SnapshotDirectory& dir) {
  std::string out;
  PutPod(&out, static_cast<uint32_t>(dir.components.size()));
  for (const DirComponent& c : dir.components) {
    PutPod(&out, c.id);
    PutPod(&out, c.n_slots);
    PutPod(&out, c.n_rows);
    PutPod(&out, c.offset);
    PutPod(&out, c.length);
    PutPod(&out, c.checksum);
  }
  PutPod(&out, static_cast<uint32_t>(dir.relations.size()));
  for (const DirRelation& r : dir.relations) {
    PutLenString(&out, r.name);
    PutLenString(&out, r.display);
    PutPod(&out, static_cast<uint32_t>(r.schema.size()));
    for (size_t c = 0; c < r.schema.size(); ++c) {
      PutLenString(&out, r.schema.attr(c).name);
      PutPod(&out, static_cast<uint8_t>(r.schema.attr(c).type));
    }
    PutPod(&out, r.n_tuples);
    PutPod(&out, static_cast<uint32_t>(r.shards.size()));
    for (const DirShard& s : r.shards) {
      PutPod(&out, s.row_begin);
      PutPod(&out, s.row_end);
      PutPod(&out, s.offset);
      PutPod(&out, s.length);
      PutPod(&out, s.checksum);
      PutPod(&out, static_cast<uint32_t>(s.ref_components.size()));
      PutArray(&out, s.ref_components);
      for (const ShardColumnRange& range : s.ranges) {
        PutPod(&out, static_cast<uint8_t>(range.valid ? 1 : 0));
        PutPod(&out, DoubleBits(range.lo));
        PutPod(&out, DoubleBits(range.hi));
      }
    }
  }
  return out;
}

Result<SnapshotDirectory> ParseDirectory(std::string_view payload) {
  SnapshotDirectory dir;
  SnapshotCursor cur(payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_comps, cur.Read<uint32_t>());
  if (n_comps > cur.remaining() / 40) {  // 40 = fixed entry size
    return Status::ParseError("snapshot directory component count exceeds payload");
  }
  dir.components.reserve(n_comps);
  for (uint32_t k = 0; k < n_comps; ++k) {
    DirComponent c;
    MAYBMS_ASSIGN_OR_RETURN(c.id, cur.Read<uint32_t>());
    MAYBMS_ASSIGN_OR_RETURN(c.n_slots, cur.Read<uint32_t>());
    MAYBMS_ASSIGN_OR_RETURN(c.n_rows, cur.Read<uint64_t>());
    MAYBMS_ASSIGN_OR_RETURN(c.offset, cur.Read<uint64_t>());
    MAYBMS_ASSIGN_OR_RETURN(c.length, cur.Read<uint64_t>());
    MAYBMS_ASSIGN_OR_RETURN(c.checksum, cur.Read<uint64_t>());
    if (k > 0 && c.id <= dir.components.back().id) {
      return Status::ParseError("snapshot directory component ids not ascending");
    }
    if (k > 0) {
      MAYBMS_RETURN_IF_ERROR(CheckIdGaps(dir.components[0].id, c.id, k));
    }
    dir.components.push_back(c);
  }
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_rels, cur.Read<uint32_t>());
  dir.relations.reserve(std::min<size_t>(n_rels, cur.remaining()));
  for (uint32_t k = 0; k < n_rels; ++k) {
    DirRelation r;
    MAYBMS_ASSIGN_OR_RETURN(r.name, cur.ReadLenString());
    MAYBMS_ASSIGN_OR_RETURN(r.display, cur.ReadLenString());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t n_cols, cur.Read<uint32_t>());
    for (uint32_t c = 0; c < n_cols; ++c) {
      MAYBMS_ASSIGN_OR_RETURN(std::string col, cur.ReadLenString());
      MAYBMS_ASSIGN_OR_RETURN(uint8_t type, cur.Read<uint8_t>());
      if (type > static_cast<uint8_t>(ValueType::kString)) {
        return Status::ParseError("attribute type out of range in snapshot");
      }
      MAYBMS_RETURN_IF_ERROR(
          r.schema.Add({std::move(col), static_cast<ValueType>(type)}));
    }
    MAYBMS_ASSIGN_OR_RETURN(r.n_tuples, cur.Read<uint64_t>());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t n_shards, cur.Read<uint32_t>());
    if (n_shards > cur.remaining() / 40) {
      return Status::ParseError("snapshot directory shard count exceeds payload");
    }
    r.shards.reserve(n_shards);
    uint64_t expect_row = 0;
    for (uint32_t s = 0; s < n_shards; ++s) {
      DirShard sh;
      MAYBMS_ASSIGN_OR_RETURN(sh.row_begin, cur.Read<uint64_t>());
      MAYBMS_ASSIGN_OR_RETURN(sh.row_end, cur.Read<uint64_t>());
      MAYBMS_ASSIGN_OR_RETURN(sh.offset, cur.Read<uint64_t>());
      MAYBMS_ASSIGN_OR_RETURN(sh.length, cur.Read<uint64_t>());
      MAYBMS_ASSIGN_OR_RETURN(sh.checksum, cur.Read<uint64_t>());
      if (sh.row_begin != expect_row || sh.row_end <= sh.row_begin ||
          sh.row_end > r.n_tuples) {
        return Status::ParseError("snapshot shard row ranges not contiguous");
      }
      expect_row = sh.row_end;
      MAYBMS_ASSIGN_OR_RETURN(uint32_t n_refs, cur.Read<uint32_t>());
      MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n_refs, &sh.ref_components));
      sh.ranges.resize(n_cols);
      for (uint32_t c = 0; c < n_cols; ++c) {
        MAYBMS_ASSIGN_OR_RETURN(uint8_t valid, cur.Read<uint8_t>());
        MAYBMS_ASSIGN_OR_RETURN(uint64_t lo, cur.Read<uint64_t>());
        MAYBMS_ASSIGN_OR_RETURN(uint64_t hi, cur.Read<uint64_t>());
        sh.ranges[c].valid = valid != 0;
        sh.ranges[c].lo = BitsToDouble(lo);
        sh.ranges[c].hi = BitsToDouble(hi);
      }
      r.shards.push_back(std::move(sh));
    }
    if (expect_row != r.n_tuples) {
      return Status::ParseError("snapshot shards do not cover the relation");
    }
    dir.relations.push_back(std::move(r));
  }
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot SDIR section");
  }
  return dir;
}

std::string BuildMetaPayloadV3(const WsdDb& db) {
  std::string meta;
  PutPod(&meta, kEndianMark);
  PutPod(&meta, static_cast<uint64_t>(db.options().max_component_rows));
  PutPod(&meta, static_cast<uint64_t>(db.owner_counter()));
  PutPod(&meta, static_cast<uint64_t>(db.options().rows_per_shard));
  PutPod(&meta, static_cast<uint64_t>(db.component_slot_count()));
  return meta;
}

Result<MetaV3> ParseMetaV3(std::string_view payload) {
  SnapshotCursor cur(payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t endian, cur.Read<uint32_t>());
  if (endian != kEndianMark) {
    return Status::Unsupported(
        "snapshot was written on a machine with a different byte order");
  }
  MetaV3 meta;
  MAYBMS_ASSIGN_OR_RETURN(meta.max_component_rows, cur.Read<uint64_t>());
  MAYBMS_ASSIGN_OR_RETURN(meta.owner_counter, cur.Read<uint64_t>());
  MAYBMS_ASSIGN_OR_RETURN(meta.rows_per_shard, cur.Read<uint64_t>());
  if (!cur.AtEnd()) {
    // Optional trailing field (snapshots written since the WAL landed).
    MAYBMS_ASSIGN_OR_RETURN(meta.component_counter, cur.Read<uint64_t>());
  }
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot META section");
  }
  return meta;
}

Result<std::string_view> SliceBlock(std::string_view payload,
                                    uint64_t offset, uint64_t length,
                                    uint64_t checksum, const char* what) {
  if (offset % 8 != 0) {
    return Status::ParseError(
        StrFormat("snapshot %s block offset not 8-aligned", what));
  }
  if (offset > payload.size() || length > payload.size() - offset) {
    return Status::ParseError(
        StrFormat("snapshot %s block out of bounds", what));
  }
  std::string_view block = payload.substr(static_cast<size_t>(offset),
                                          static_cast<size_t>(length));
  if (HashBytes(block.data(), block.size()) != checksum) {
    return Status::ParseError(
        StrFormat("snapshot %s block failed checksum verification", what));
  }
  return block;
}

Result<std::vector<SectionView>> WalkSnapshotSections(std::string_view body) {
  std::vector<SectionView> out;
  size_t pos = 0;
  while (pos < body.size()) {
    if (body.size() - pos < 20) {
      return Status::ParseError("truncated snapshot section header");
    }
    SectionView s;
    uint64_t len = 0;
    std::memcpy(&s.tag, body.data() + pos, 4);
    std::memcpy(&len, body.data() + pos + 4, 8);
    std::memcpy(&s.checksum, body.data() + pos + 12, 8);
    pos += 20;
    if (len > body.size() - pos) {
      return Status::ParseError(StrFormat(
          "truncated snapshot section %s: expected %llu payload bytes",
          SnapshotTagName(s.tag).c_str(),
          static_cast<unsigned long long>(len)));
    }
    s.payload = body.substr(pos, static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
    out.push_back(s);
    if (s.tag == kSecEnd) break;
  }
  return out;
}

namespace {

void PadTo8(std::string* s) {
  while (s->size() % 8 != 0) s->push_back('\0');
}

}  // namespace

}  // namespace snapshotv3

Status WriteWsdDbBinaryV3(const WsdDb& db, std::ostream& out) {
  namespace sv3 = snapshotv3;
  out << sv3::kHeaderV3;
  SnapshotStringTable strings;
  sv3::SnapshotDirectory dir;

  std::string comp;
  for (ComponentId id : db.LiveComponents()) {
    sv3::PadTo8(&comp);
    sv3::DirComponent dc;
    const Component& c = db.component(id);
    dc.id = id;
    dc.n_slots = static_cast<uint32_t>(c.NumSlots());
    dc.n_rows = c.NumRows();
    dc.offset = comp.size();
    sv3::AppendComponentRecord(db, id, &strings, &comp);
    dc.length = comp.size() - dc.offset;
    dc.checksum = HashBytes(comp.data() + dc.offset,
                            static_cast<size_t>(dc.length));
    dir.components.push_back(dc);
  }

  std::string rels;
  for (const auto& [key, rel] : db.relations()) {
    ShardPartition part =
        ComputeShardPartition(db, rel, db.options().rows_per_shard);
    sv3::DirRelation dr;
    dr.name = rel.name();
    dr.display = rel.display_name();
    dr.schema = rel.schema();
    dr.n_tuples = rel.NumTuples();
    for (const ShardInfo& s : part.shards) {
      sv3::PadTo8(&rels);
      sv3::DirShard ds;
      ds.row_begin = s.row_begin;
      ds.row_end = s.row_end;
      ds.offset = rels.size();
      sv3::AppendShardRecord(rel, s.row_begin, s.row_end, &strings, &rels);
      ds.length = rels.size() - ds.offset;
      ds.checksum = HashBytes(rels.data() + ds.offset,
                              static_cast<size_t>(ds.length));
      ds.ref_components = s.ref_components;
      ds.ranges = s.ranges;
      dr.shards.push_back(std::move(ds));
    }
    dir.relations.push_back(std::move(dr));
  }

  MAYBMS_RETURN_IF_ERROR(
      WriteSnapshotSection(out, sv3::kSecMeta, sv3::BuildMetaPayloadV3(db)));
  MAYBMS_RETURN_IF_ERROR(
      WriteSnapshotSection(out, sv3::kSecStrings, strings.Serialize()));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, sv3::kSecShardDir,
                                              sv3::SerializeDirectory(dir)));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, sv3::kSecComponents, comp));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, sv3::kSecRelations, rels));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, sv3::kSecEnd, ""));
  if (!out.good()) return Status::Internal("stream write failure");
  return Status::OK();
}

}  // namespace maybms
