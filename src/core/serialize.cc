#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/parallel.h"
#include "common/string_util.h"
#include "core/mapped_db.h"
#include "core/snapshot_v3.h"
#include "storage/snapshot_io.h"
#include "storage/wal.h"

namespace maybms {

namespace {

constexpr const char* kMagic = "MAYBMS-WSD";
constexpr int kTextVersion = 1;
constexpr int kBinaryVersion = 2;
constexpr int kBinaryVersionV3 = 3;

// The wire codecs shared with the v3 sharded format (constants, cell
// encode/decode, component/tuple record layouts) live in
// core/snapshot_v3.h; the v2 reader/writer below delegates to them, so
// both versions stay byte-compatible at the record level by
// construction.
using snapshotv3::kCellRef;
using snapshotv3::kEndianMark;
using snapshotv3::kHeaderV3;
using snapshotv3::kSecComponents;
using snapshotv3::kSecEnd;
using snapshotv3::kSecMeta;
using snapshotv3::kSecRelations;
using snapshotv3::kSecStrings;

// --- text writing ----------------------------------------------------------

void WriteString(std::ostream& out, const std::string& s) {
  out << "s" << s.size() << ":" << s;
}

void WriteValue(std::ostream& out, const Value& v) {
  if (v.is_null()) {
    out << "N";
  } else if (v.is_bottom()) {
    out << "B";
  } else if (v.is_bool()) {
    out << (v.as_bool() ? "T" : "F");
  } else if (v.is_int()) {
    out << "i" << v.as_int();
  } else if (v.is_double()) {
    out << "d" << StrFormat("%.17g", v.as_double());
  } else {
    WriteString(out, v.as_string());
  }
}

const char* TypeTag(ValueType t) {
  switch (t) {
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

// --- text reading ----------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  Status Expect(const std::string& token) {
    std::string t;
    if (!(in_ >> t) || t != token) {
      return Status::ParseError("expected token '" + token + "', got '" + t +
                                "'");
    }
    return Status::OK();
  }

  Result<std::string> ReadToken() {
    std::string t;
    if (!(in_ >> t)) return Status::ParseError("unexpected end of input");
    return t;
  }

  Result<int64_t> ReadInt() {
    int64_t v;
    if (!(in_ >> v)) return Status::ParseError("expected integer");
    return v;
  }

  Result<size_t> ReadSize() {
    MAYBMS_ASSIGN_OR_RETURN(int64_t v, ReadInt());
    if (v < 0) return Status::ParseError("expected non-negative integer");
    return static_cast<size_t>(v);
  }

  Result<double> ReadDouble() {
    double v;
    if (!(in_ >> v)) return Status::ParseError("expected double");
    return v;
  }

  Result<std::string> ReadString() {
    // Format: s<len>:<bytes> — the 's' may already be consumed by the
    // caller's token peek, so handle both.
    int c = SkipWs();
    if (c != 's') return Status::ParseError("expected string tag 's'");
    in_.get();
    size_t len = 0;
    MAYBMS_RETURN_IF_ERROR(ReadLenColon(&len));
    std::string s(len, '\0');
    in_.read(s.data(), static_cast<std::streamsize>(len));
    if (in_.gcount() != static_cast<std::streamsize>(len)) {
      return Status::ParseError("truncated string payload");
    }
    return s;
  }

  Result<Value> ReadValue() {
    int c = SkipWs();
    if (c == EOF) return Status::ParseError("unexpected end of input");
    switch (c) {
      case 'N':
        in_.get();
        return Value::Null();
      case 'B':
        in_.get();
        return Value::Bottom();
      case 'T':
        in_.get();
        return Value::Bool(true);
      case 'F':
        in_.get();
        return Value::Bool(false);
      case 'i': {
        in_.get();
        MAYBMS_ASSIGN_OR_RETURN(int64_t v, ReadInt());
        return Value::Int(v);
      }
      case 'd': {
        in_.get();
        MAYBMS_ASSIGN_OR_RETURN(double v, ReadDouble());
        return Value::Double(v);
      }
      case 's': {
        MAYBMS_ASSIGN_OR_RETURN(std::string s, ReadString());
        return Value::String(std::move(s));
      }
      default:
        return Status::ParseError(
            StrFormat("unknown value tag '%c'", static_cast<char>(c)));
    }
  }

 private:
  int SkipWs() {
    int c = in_.peek();
    while (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
      in_.get();
      c = in_.peek();
    }
    return c;
  }

  Status ReadLenColon(size_t* len) {
    *len = 0;
    int c = in_.peek();
    if (!isdigit(c)) return Status::ParseError("expected string length");
    while (isdigit(in_.peek())) {
      *len = *len * 10 + static_cast<size_t>(in_.get() - '0');
    }
    if (in_.get() != ':') return Status::ParseError("expected ':'");
    return Status::OK();
  }

  std::istream& in_;
};

Result<ValueType> ParseType(const std::string& tag) {
  if (tag == "bool") return ValueType::kBool;
  if (tag == "int") return ValueType::kInt;
  if (tag == "double") return ValueType::kDouble;
  if (tag == "string") return ValueType::kString;
  return Status::ParseError("unknown type tag " + tag);
}

// Reads the text body (everything after "MAYBMS-WSD 1").
Result<WsdDb> ReadWsdDbText(std::istream& in) {
  Reader r(in);
  WsdDb db;
  MAYBMS_RETURN_IF_ERROR(r.Expect("OPTIONS"));
  MAYBMS_ASSIGN_OR_RETURN(size_t max_rows, r.ReadSize());
  db.mutable_options().max_component_rows = max_rows;

  MAYBMS_RETURN_IF_ERROR(r.Expect("COMPONENTS"));
  MAYBMS_ASSIGN_OR_RETURN(size_t n_comps, r.ReadSize());
  OwnerId max_owner = 0;
  for (size_t k = 0; k < n_comps; ++k) {
    MAYBMS_RETURN_IF_ERROR(r.Expect("COMPONENT"));
    MAYBMS_ASSIGN_OR_RETURN(size_t id, r.ReadSize());
    MAYBMS_ASSIGN_OR_RETURN(size_t n_slots, r.ReadSize());
    MAYBMS_ASSIGN_OR_RETURN(size_t n_rows, r.ReadSize());
    Component c;
    for (size_t s = 0; s < n_slots; ++s) {
      MAYBMS_RETURN_IF_ERROR(r.Expect("SLOT"));
      MAYBMS_ASSIGN_OR_RETURN(int64_t owner, r.ReadInt());
      MAYBMS_ASSIGN_OR_RETURN(std::string label, r.ReadString());
      c.AddSlot({static_cast<OwnerId>(owner), std::move(label)},
                Value::Null());
      max_owner = std::max(max_owner, static_cast<OwnerId>(owner));
    }
    // AddSlot added no rows (component empty); now read the rows.
    for (size_t row_i = 0; row_i < n_rows; ++row_i) {
      MAYBMS_RETURN_IF_ERROR(r.Expect("ROW"));
      ComponentRow row;
      MAYBMS_ASSIGN_OR_RETURN(row.prob, r.ReadDouble());
      row.values.reserve(n_slots);
      for (size_t s = 0; s < n_slots; ++s) {
        MAYBMS_ASSIGN_OR_RETURN(Value v, r.ReadValue());
        row.values.push_back(std::move(v));
      }
      MAYBMS_RETURN_IF_ERROR(c.AddRow(std::move(row)));
    }
    MAYBMS_RETURN_IF_ERROR(
        snapshotv3::PlaceComponentAt(&db, id, k, std::move(c)));
  }

  MAYBMS_RETURN_IF_ERROR(r.Expect("RELATIONS"));
  MAYBMS_ASSIGN_OR_RETURN(size_t n_rels, r.ReadSize());
  for (size_t k = 0; k < n_rels; ++k) {
    MAYBMS_RETURN_IF_ERROR(r.Expect("RELATION"));
    MAYBMS_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    MAYBMS_ASSIGN_OR_RETURN(std::string display, r.ReadString());
    MAYBMS_ASSIGN_OR_RETURN(size_t n_cols, r.ReadSize());
    MAYBMS_ASSIGN_OR_RETURN(size_t n_tuples, r.ReadSize());
    Schema schema;
    for (size_t c = 0; c < n_cols; ++c) {
      MAYBMS_RETURN_IF_ERROR(r.Expect("COL"));
      MAYBMS_ASSIGN_OR_RETURN(std::string col, r.ReadString());
      MAYBMS_ASSIGN_OR_RETURN(std::string tag, r.ReadToken());
      MAYBMS_ASSIGN_OR_RETURN(ValueType type, ParseType(tag));
      MAYBMS_RETURN_IF_ERROR(schema.Add({std::move(col), type}));
    }
    MAYBMS_RETURN_IF_ERROR(db.CreateRelation(name, schema));
    WsdRelation* rel = db.GetMutableRelation(name).value();
    rel->set_display_name(display);
    rel->Reserve(n_tuples);
    for (size_t i = 0; i < n_tuples; ++i) {
      MAYBMS_RETURN_IF_ERROR(r.Expect("TUPLE"));
      MAYBMS_ASSIGN_OR_RETURN(size_t n_deps, r.ReadSize());
      WsdTuple t;
      for (size_t d = 0; d < n_deps; ++d) {
        MAYBMS_ASSIGN_OR_RETURN(int64_t o, r.ReadInt());
        t.AddDep(static_cast<OwnerId>(o));
        max_owner = std::max(max_owner, static_cast<OwnerId>(o));
      }
      MAYBMS_RETURN_IF_ERROR(r.Expect("|"));
      t.cells.reserve(n_cols);
      for (size_t c = 0; c < n_cols; ++c) {
        MAYBMS_ASSIGN_OR_RETURN(std::string tag, r.ReadToken());
        if (tag == "C") {
          MAYBMS_ASSIGN_OR_RETURN(Value v, r.ReadValue());
          t.cells.push_back(Cell::Certain(std::move(v)));
        } else if (tag == "R") {
          MAYBMS_ASSIGN_OR_RETURN(size_t cid, r.ReadSize());
          MAYBMS_ASSIGN_OR_RETURN(size_t slot, r.ReadSize());
          t.cells.push_back(Cell::Ref({static_cast<ComponentId>(cid),
                                       static_cast<uint32_t>(slot)}));
        } else {
          return Status::ParseError("expected cell tag C or R, got " + tag);
        }
      }
      rel->Add(std::move(t));
    }
  }
  MAYBMS_RETURN_IF_ERROR(r.Expect("END"));
  db.BumpOwner(max_owner);
  MAYBMS_RETURN_IF_ERROR(db.CheckInvariants());
  return db;
}

// --- binary format ---------------------------------------------------------
//
// Layout after the "MAYBMS-WSD 2\n" header line (see
// docs/SNAPSHOT_FORMAT.md for the full spec): a fixed sequence of
// checksummed sections META, STRS, COMP, RELS, END. All cell data is
// written as raw tag/payload arrays; string payloads are snapshot-local
// ids into the STRS table, remapped to the process ValuePool on load.

std::string BuildMetaPayload(const WsdDb& db) {
  std::string meta;
  PutPod(&meta, kEndianMark);
  PutPod(&meta, static_cast<uint64_t>(db.options().max_component_rows));
  PutPod(&meta, static_cast<uint64_t>(db.owner_counter()));
  return meta;
}

std::string BuildComponentsPayload(const WsdDb& db,
                                   SnapshotStringTable* strings) {
  std::string comp;
  auto live = db.LiveComponents();
  PutPod(&comp, static_cast<uint32_t>(live.size()));
  for (ComponentId id : live) {
    snapshotv3::AppendComponentRecord(db, id, strings, &comp);
  }
  return comp;
}

std::string BuildRelationsPayload(const WsdDb& db,
                                  SnapshotStringTable* strings) {
  std::string rels;
  PutPod(&rels, static_cast<uint32_t>(db.relations().size()));
  for (const auto& [key, rel] : db.relations()) {
    const size_t n_cols = rel.schema().size();
    const size_t n_tuples = rel.NumTuples();
    PutLenString(&rels, rel.name());
    PutLenString(&rels, rel.display_name());
    PutPod(&rels, static_cast<uint32_t>(n_cols));
    PutPod(&rels, static_cast<uint64_t>(n_tuples));
    for (size_t c = 0; c < n_cols; ++c) {
      PutLenString(&rels, rel.schema().attr(c).name);
      PutPod(&rels, static_cast<uint8_t>(rel.schema().attr(c).type));
    }
    // A v2 relation body is exactly one shard record spanning every
    // tuple; v3 splits the same record layout into multiple blocks.
    snapshotv3::AppendShardRecord(rel, 0, n_tuples, strings, &rels);
  }
  return rels;
}

Result<SnapshotSection> ReadSectionExpecting(std::istream& in, uint32_t tag) {
  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection s, ReadSnapshotSection(in));
  if (s.tag != tag) {
    return Status::ParseError(
        StrFormat("expected snapshot section %s, got %s",
                  SnapshotTagName(tag).c_str(),
                  SnapshotTagName(s.tag).c_str()));
  }
  return s;
}

Status ParseComponentsSection(const SnapshotSection& section,
                              const std::vector<uint32_t>& local_to_global,
                              WsdDb* db) {
  SnapshotCursor cur(section.payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_comps, cur.Read<uint32_t>());
  for (uint32_t k = 0; k < n_comps; ++k) {
    MAYBMS_ASSIGN_OR_RETURN(
        auto decoded, snapshotv3::DecodeComponentRecord(&cur, local_to_global));
    MAYBMS_RETURN_IF_ERROR(snapshotv3::PlaceComponentAt(
        db, decoded.first, k, std::move(decoded.second)));
  }
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot COMP section");
  }
  return Status::OK();
}

Status ParseRelationsSection(const SnapshotSection& section,
                             const std::vector<uint32_t>& local_to_global,
                             WsdDb* db) {
  SnapshotCursor cur(section.payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_rels, cur.Read<uint32_t>());
  // Materialize pool references once per distinct string: tuple builders
  // then read them without touching the pool's mutex per cell.
  std::vector<const std::string*> local_strings;
  local_strings.reserve(local_to_global.size());
  {
    ValuePool& pool = ValuePool::Global();
    for (uint32_t gid : local_to_global) local_strings.push_back(&pool.Get(gid));
  }
  for (uint32_t k = 0; k < n_rels; ++k) {
    MAYBMS_ASSIGN_OR_RETURN(std::string name, cur.ReadLenString());
    MAYBMS_ASSIGN_OR_RETURN(std::string display, cur.ReadLenString());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t n_cols, cur.Read<uint32_t>());
    MAYBMS_ASSIGN_OR_RETURN(uint64_t n_tuples64, cur.Read<uint64_t>());
    const size_t n_tuples = static_cast<size_t>(n_tuples64);
    Schema schema;
    for (uint32_t c = 0; c < n_cols; ++c) {
      MAYBMS_ASSIGN_OR_RETURN(std::string col, cur.ReadLenString());
      MAYBMS_ASSIGN_OR_RETURN(uint8_t type, cur.Read<uint8_t>());
      if (type > static_cast<uint8_t>(ValueType::kString)) {
        return Status::ParseError("attribute type out of range in snapshot");
      }
      MAYBMS_RETURN_IF_ERROR(
          schema.Add({std::move(col), static_cast<ValueType>(type)}));
    }
    MAYBMS_RETURN_IF_ERROR(db->CreateRelation(name, schema));
    WsdRelation* rel = db->GetMutableRelation(name).value();
    rel->set_display_name(display);
    std::vector<uint32_t> dep_counts;
    MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n_tuples, &dep_counts));
    MAYBMS_ASSIGN_OR_RETURN(uint64_t n_deps, cur.Read<uint64_t>());
    std::vector<uint64_t> deps_flat;
    MAYBMS_RETURN_IF_ERROR(cur.ReadArray(static_cast<size_t>(n_deps),
                                         &deps_flat));
    std::vector<uint64_t> dep_offsets(n_tuples);
    uint64_t dep_pos = 0;
    for (size_t t_i = 0; t_i < n_tuples; ++t_i) {
      dep_offsets[t_i] = dep_pos;
      dep_pos += dep_counts[t_i];
    }
    if (dep_pos != deps_flat.size()) {
      return Status::ParseError("snapshot dependency list inconsistent");
    }
    if (n_cols != 0 && n_tuples > cur.remaining() / n_cols) {
      return Status::ParseError("snapshot cell array exceeds payload");
    }
    std::vector<uint8_t> tags;
    std::vector<uint64_t> payloads;
    MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n_tuples * n_cols, &tags));
    MAYBMS_RETURN_IF_ERROR(cur.ReadArray(n_tuples * n_cols, &payloads));
    // Tuple construction dominates large loads, and unlike the token
    // stream of the text format the bulk arrays are random-access —
    // shard it over the pool. Each chunk owns a disjoint tuple range.
    std::vector<WsdTuple>& tuples = rel->mutable_tuples();
    tuples.resize(n_tuples);
    constexpr size_t kTuplesPerChunk = 4096;
    const size_t n_chunks =
        n_tuples == 0 ? 0 : (n_tuples + kTuplesPerChunk - 1) / kTuplesPerChunk;
    std::vector<Status> chunk_status(n_chunks);
    ParallelFor(n_chunks <= 1 ? 1 : 0, n_chunks, [&](size_t chunk) {
      size_t begin = chunk * kTuplesPerChunk;
      size_t end = std::min(begin + kTuplesPerChunk, n_tuples);
      chunk_status[chunk] =
          snapshotv3::BuildTupleRange(tuples.data(), begin, end, n_cols,
                                      dep_counts, dep_offsets, deps_flat, tags,
                                      payloads, local_strings);
    });
    for (const Status& st : chunk_status) MAYBMS_RETURN_IF_ERROR(st);
  }
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot RELS section");
  }
  return Status::OK();
}

// Reads the binary body (everything after "MAYBMS-WSD 2").
Result<WsdDb> ReadWsdDbBinaryBody(std::istream& in) {
  if (in.get() != '\n') {
    return Status::ParseError("expected newline after binary snapshot header");
  }
  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection meta,
                          ReadSectionExpecting(in, kSecMeta));
  SnapshotCursor mc(meta.payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t endian, mc.Read<uint32_t>());
  if (endian != kEndianMark) {
    return Status::Unsupported(
        "snapshot was written on a machine with a different byte order");
  }
  MAYBMS_ASSIGN_OR_RETURN(uint64_t max_rows, mc.Read<uint64_t>());
  MAYBMS_ASSIGN_OR_RETURN(uint64_t owner_counter, mc.Read<uint64_t>());
  if (!mc.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot META section");
  }

  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection strs,
                          ReadSectionExpecting(in, kSecStrings));
  MAYBMS_ASSIGN_OR_RETURN(std::vector<uint32_t> local_to_global,
                          SnapshotStringTable::Restore(strs.payload));

  WsdDb db;
  db.mutable_options().max_component_rows = static_cast<size_t>(max_rows);
  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection comp,
                          ReadSectionExpecting(in, kSecComponents));
  MAYBMS_RETURN_IF_ERROR(ParseComponentsSection(comp, local_to_global, &db));
  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection rels,
                          ReadSectionExpecting(in, kSecRelations));
  MAYBMS_RETURN_IF_ERROR(ParseRelationsSection(rels, local_to_global, &db));
  MAYBMS_ASSIGN_OR_RETURN(SnapshotSection end,
                          ReadSectionExpecting(in, kSecEnd));
  if (!end.payload.empty()) {
    return Status::ParseError("snapshot END section carries payload");
  }
  if (owner_counter > 0) db.BumpOwner(static_cast<OwnerId>(owner_counter - 1));
  MAYBMS_RETURN_IF_ERROR(db.CheckInvariants());
  return db;
}

// Decodes a v3 image through the one v3 reader; the image is released
// when the materialized database returns.
Result<WsdDb> ReadV3Image(std::unique_ptr<RandomAccessImage> image) {
  MAYBMS_ASSIGN_OR_RETURN(MappedWsdDb mapped,
                          MappedWsdDb::Open(std::move(image)));
  return mapped.MaterializeAll();
}

// Both formats share the "MAYBMS-WSD <version>" header line; the body
// reader is negotiated from the version number, which also names the
// format the bytes hold.
Result<WsdDb> ReadWsdDbStream(std::istream& in, SnapshotFormat* format) {
  std::string magic;
  if (!(in >> magic) || magic != kMagic) {
    return Status::ParseError("expected token '" + std::string(kMagic) +
                              "', got '" + magic + "'");
  }
  long long version;
  if (!(in >> version)) {
    return Status::ParseError("expected snapshot version number");
  }
  SnapshotFormat ignored;
  if (format == nullptr) format = &ignored;
  if (version == kTextVersion) {
    *format = SnapshotFormat::kText;
    return ReadWsdDbText(in);
  }
  if (version == kBinaryVersion) {
    *format = SnapshotFormat::kBinaryV2;
    return ReadWsdDbBinaryBody(in);
  }
  if (version == kBinaryVersionV3) {
    *format = SnapshotFormat::kBinary;
    if (in.get() != '\n') {
      return Status::ParseError(
          "expected newline after binary snapshot header");
    }
    // The rest of the stream becomes an in-memory image.
    std::string bytes = kHeaderV3;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)), in.gcount() > 0) {
      bytes.append(buf, static_cast<size_t>(in.gcount()));
    }
    if (in.bad()) return Status::IOError("read failure in snapshot stream");
    return ReadV3Image(NewStringImage(std::move(bytes), "<stream>"));
  }
  return Status::Unsupported(
      StrFormat("unsupported WSD format version %lld", version));
}

}  // namespace

Status WriteWsdDb(const WsdDb& db, std::ostream& out) {
  out << kMagic << " " << kTextVersion << "\n";
  out << "OPTIONS " << db.options().max_component_rows << "\n";

  auto live = db.LiveComponents();
  out << "COMPONENTS " << live.size() << "\n";
  for (ComponentId id : live) {
    const Component& c = db.component(id);
    out << "COMPONENT " << id << " " << c.NumSlots() << " " << c.NumRows()
        << "\n";
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      out << "SLOT " << c.slot(s).owner << " ";
      WriteString(out, c.slot(s).label);
      out << "\n";
    }
    for (size_t r = 0; r < c.NumRows(); ++r) {
      out << "ROW " << StrFormat("%.17g", c.prob(r));
      for (uint32_t s = 0; s < c.NumSlots(); ++s) {
        out << " ";
        WriteValue(out, c.ValueAt(r, s));
      }
      out << "\n";
    }
  }

  out << "RELATIONS " << db.relations().size() << "\n";
  for (const auto& [key, rel] : db.relations()) {
    out << "RELATION ";
    WriteString(out, rel.name());
    out << " ";
    WriteString(out, rel.display_name());
    out << " " << rel.schema().size() << " " << rel.NumTuples() << "\n";
    for (size_t c = 0; c < rel.schema().size(); ++c) {
      out << "COL ";
      WriteString(out, rel.schema().attr(c).name);
      out << " " << TypeTag(rel.schema().attr(c).type) << "\n";
    }
    for (const auto& t : rel.tuples()) {
      out << "TUPLE " << t.deps.size();
      for (OwnerId o : t.deps) out << " " << o;
      out << " |";
      for (const auto& cell : t.cells) {
        if (cell.is_certain()) {
          out << " C ";
          WriteValue(out, cell.value());
        } else {
          out << " R " << cell.ref().cid << " " << cell.ref().slot;
        }
      }
      out << "\n";
    }
  }
  out << "END\n";
  if (!out.good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Status WriteWsdDbBinary(const WsdDb& db, std::ostream& out) {
  out << kMagic << " " << kBinaryVersion << "\n";
  // COMP and RELS are built first so they populate the string table; the
  // sections are then emitted in reader order with STRS ahead of both.
  SnapshotStringTable strings;
  std::string comp = BuildComponentsPayload(db, &strings);
  std::string rels = BuildRelationsPayload(db, &strings);
  MAYBMS_RETURN_IF_ERROR(
      WriteSnapshotSection(out, kSecMeta, BuildMetaPayload(db)));
  MAYBMS_RETURN_IF_ERROR(
      WriteSnapshotSection(out, kSecStrings, strings.Serialize()));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, kSecComponents, comp));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, kSecRelations, rels));
  MAYBMS_RETURN_IF_ERROR(WriteSnapshotSection(out, kSecEnd, ""));
  if (!out.good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Result<std::string> SerializeWsdDb(const WsdDb& db, SnapshotFormat format) {
  // A snapshot no loader would accept is refused here, so a failed save
  // or checkpoint keeps the last loadable snapshot and its log.
  if (db.component_span() > 0) {
    const Status loadable = snapshotv3::CheckIdGaps(
        db.component_slot_count() - db.component_span(),
        db.component_slot_count(), db.NumLiveComponents());
    if (!loadable.ok()) {
      return Status::ResourceExhausted("snapshot would not load: " +
                                       loadable.message());
    }
  }
  std::ostringstream out;
  Status st;
  switch (format) {
    case SnapshotFormat::kBinary:
      st = WriteWsdDbBinaryV3(db, out);
      break;
    case SnapshotFormat::kBinaryV2:
      st = WriteWsdDbBinary(db, out);
      break;
    case SnapshotFormat::kText:
      st = WriteWsdDb(db, out);
      break;
  }
  MAYBMS_RETURN_IF_ERROR(st);
  return std::move(out).str();
}

namespace {

// A freshly written snapshot starts a new log generation: any sibling
// `.wal` belongs to the previous snapshot and must not survive, even
// when the new bytes happen to coincide with the old ones (re-saving an
// unchanged database must not revalidate the old log's statements —
// the fingerprint alone cannot tell those generations apart). Runs
// after the snapshot rename: a crash before the removal leaves
// new-snapshot + old-log, which the fingerprint check resolves.
Status DropStaleWal(Env* env, const std::string& path) {
  Status rm = WithRetry(
      env, 4, [&]() -> Status { return env->RemoveFile(wal::WalPathFor(path)); });
  if (rm.code() == StatusCode::kNotFound) return Status::OK();
  return rm;
}

}  // namespace

Status SaveWsdDb(const WsdDb& db, const std::string& path,
                 SnapshotFormat format, const SaveFileOptions& opts) {
  MAYBMS_ASSIGN_OR_RETURN(std::string bytes, SerializeWsdDb(db, format));
  Env* env = opts.env ? opts.env : Env::Default();
  if (opts.sync) {
    MAYBMS_RETURN_IF_ERROR(AtomicWriteFile(env, path, bytes));
    return DropStaleWal(env, path);
  }
  // No-sync path still goes through a temp + rename, so readers (and a
  // plain process crash) never observe a half-written snapshot; it only
  // skips the fsyncs that defend against power loss.
  const std::string tmp = path + ".tmp";
  MAYBMS_RETURN_IF_ERROR(WithRetry(env, 4, [&]() -> Status {
    MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                            env->NewWritableFile(tmp, /*truncate=*/true));
    MAYBMS_RETURN_IF_ERROR(file->Append(bytes));
    MAYBMS_RETURN_IF_ERROR(file->Close());
    return env->RenameFile(tmp, path);
  }));
  return DropStaleWal(env, path);
}

Result<WsdDb> ReadWsdDb(std::istream& in) {
  return ReadWsdDbStream(in, nullptr);
}

Result<WsdDb> ReadWsdDbImage(std::unique_ptr<RandomAccessImage> image,
                             SnapshotFormat* format) {
  const std::string_view bytes = image->bytes();
  if (bytes.substr(0, sizeof(kHeaderV3) - 1) == kHeaderV3) {
    if (format != nullptr) *format = SnapshotFormat::kBinary;
    return ReadV3Image(std::move(image));
  }
  std::istringstream in{std::string(bytes)};
  return ReadWsdDbStream(in, format);
}

Result<WsdDb> LoadWsdDb(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessImage> image,
                          env->MapFile(path));
  return ReadWsdDbImage(std::move(image));
}

}  // namespace maybms
