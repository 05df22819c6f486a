// Wire-level codecs shared by the binary snapshot versions, plus the
// "MAYBMS-WSD 3" sharded format.
//
// v3 extends v2 with out-of-core affordances (see
// docs/SNAPSHOT_FORMAT.md):
//   - a shard directory section (SDIR) between STRS and COMP that
//     records, for every component and every horizontal relation shard,
//     its byte offset/length inside the COMP/RELS payloads, a per-block
//     FNV-1a64 checksum, per-column possible-value ranges and the
//     component ids the shard references;
//   - COMP and RELS become concatenations of self-contained 8-aligned
//     blocks (one per component / per shard) instead of monolithic
//     streams, so a memory-mapped reader can verify and materialize one
//     block without touching the rest of the file.
//
// The one v3 reader is core/mapped_db: it verifies META/STRS/SDIR at
// open and each COMP/RELS block on first materialization; a full
// materialization (every eager load) also verifies the COMP/RELS
// section checksums.
#ifndef MAYBMS_CORE_SNAPSHOT_V3_H_
#define MAYBMS_CORE_SNAPSHOT_V3_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/shard.h"
#include "core/wsd.h"
#include "storage/snapshot_io.h"

namespace maybms {
namespace snapshotv3 {

// --- constants shared by the v2 and v3 codecs ------------------------------

constexpr uint32_t kSecMeta = SnapshotFourCC('M', 'E', 'T', 'A');
constexpr uint32_t kSecStrings = SnapshotFourCC('S', 'T', 'R', 'S');
constexpr uint32_t kSecShardDir = SnapshotFourCC('S', 'D', 'I', 'R');
constexpr uint32_t kSecComponents = SnapshotFourCC('C', 'O', 'M', 'P');
constexpr uint32_t kSecRelations = SnapshotFourCC('R', 'E', 'L', 'S');
constexpr uint32_t kSecEnd = SnapshotFourCC('E', 'N', 'D', '.');

/// Written to META and verified on load, so a snapshot moved to a
/// machine with a different byte order fails loudly instead of
/// misreading every array.
constexpr uint32_t kEndianMark = 0x32445357;  // "WSD2" on little-endian

/// Wire tag of a template cell that references a component slot; tags
/// 0..5 are PackedTag values for inline (certain) cells.
constexpr uint8_t kCellRef = 6;

// Dead-id gaps a single snapshot may ask the loader to materialize.
// Component ids are preserved across save/load (template cells reference
// them), so files legitimately contain gaps from removed components.
// Ids below the lowest live one cost nothing (the store keeps only the
// span from there up), but each hole above it costs a dead slot, and a
// crafted file must not be able to demand billions of them.
constexpr size_t kMaxComponentIdGaps = 1u << 20;

/// Fails when the ids in [first, end) — `first` the lowest live id —
/// hold more than kMaxComponentIdGaps dead ids beside `live` live ones.
Status CheckIdGaps(size_t first, size_t end, size_t live);

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return bits;
}

inline double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// --- shared block codecs ---------------------------------------------------

/// (tag, payload) wire image of a packed cell; strings go through the
/// snapshot-local table.
std::pair<uint8_t, uint64_t> PackedToWire(const PackedValue& v,
                                          SnapshotStringTable* strings);

/// Places component `c` at exactly the stored `id` (cells reference it);
/// ids arrive ascending, gaps become dead slots. `placed` is the number
/// of components that precede this one in the snapshot, bounding the gap
/// budget.
Status PlaceComponentAt(WsdDb* db, size_t id, size_t placed, Component c);

/// Appends one component record (identical layout in v2 COMP streams and
/// v3 COMP blocks): u32 id, u32 n_slots, u64 n_rows, slots (u64 owner +
/// len-prefixed label), probs double[n_rows], then per slot a u8 tag
/// array and a u64 payload array.
void AppendComponentRecord(const WsdDb& db, ComponentId id,
                           SnapshotStringTable* strings, std::string* out);

/// Decodes one component record from `cur`; returns (stored id,
/// component). Bounds-checked; string payloads are remapped through
/// `local_to_global`.
Result<std::pair<uint32_t, Component>> DecodeComponentRecord(
    SnapshotCursor* cur, const std::vector<uint32_t>& local_to_global);

/// Builds tuples[begin, end) (default-constructed on entry) from the
/// bulk arrays. Each tuple's dependency range starts at dep_offsets[t];
/// cells for tuple t occupy tags/payloads[t*n_cols ... t*n_cols+n_cols).
/// Runs on worker threads — inputs are shared read-only, each index
/// writes only its own tuple slot.
Status BuildTupleRange(WsdTuple* tuples, size_t begin, size_t end,
                       uint32_t n_cols, const std::vector<uint32_t>& dep_counts,
                       const std::vector<uint64_t>& dep_offsets,
                       const std::vector<uint64_t>& deps_flat,
                       const std::vector<uint8_t>& tags,
                       const std::vector<uint64_t>& payloads,
                       const std::vector<const std::string*>& local_strings);

/// Appends one relation shard record covering template rows
/// [row_begin, row_end): dep_counts u32[n], u64 n_deps, deps u64[],
/// then the cell tag u8[n * n_cols] and payload u64[n * n_cols] arrays.
void AppendShardRecord(const WsdRelation& rel, size_t row_begin,
                       size_t row_end, SnapshotStringTable* strings,
                       std::string* out);

/// Decodes one shard record of `n` tuples into out[0, n), which must
/// hold default-constructed tuples (e.g. a slice of a sized relation
/// vector). The record must span exactly `block`.
Status DecodeShardRecord(std::string_view block, uint32_t n_cols, size_t n,
                         const std::vector<const std::string*>& local_strings,
                         WsdTuple* out);

// --- v3 shard directory ----------------------------------------------------

/// The v3 header line, newline included.
constexpr char kHeaderV3[] = "MAYBMS-WSD 3\n";

/// Directory entry for one component block inside the COMP payload.
struct DirComponent {
  uint32_t id = 0;
  uint32_t n_slots = 0;
  uint64_t n_rows = 0;
  uint64_t offset = 0;  ///< byte offset inside the COMP payload (8-aligned)
  uint64_t length = 0;
  uint64_t checksum = 0;  ///< FNV-1a64 of the block bytes
};

/// Directory entry for one relation shard block inside the RELS payload.
struct DirShard {
  uint64_t row_begin = 0;
  uint64_t row_end = 0;
  uint64_t offset = 0;  ///< byte offset inside the RELS payload (8-aligned)
  uint64_t length = 0;
  uint64_t checksum = 0;  ///< FNV-1a64 of the block bytes
  /// Components referenced by cells or gating deps of any tuple in the
  /// shard — the set a mapped loader materializes alongside it.
  std::vector<ComponentId> ref_components;
  /// Per-column possible-value ranges (pruning stats), schema-aligned.
  std::vector<ShardColumnRange> ranges;
};

struct DirRelation {
  std::string name;
  std::string display;
  Schema schema;
  uint64_t n_tuples = 0;
  std::vector<DirShard> shards;  ///< contiguous, covering [0, n_tuples)
};

/// Parsed SDIR section: everything a reader needs to locate, verify and
/// selectively materialize COMP/RELS blocks.
struct SnapshotDirectory {
  std::vector<DirComponent> components;  ///< ascending by id
  std::vector<DirRelation> relations;    ///< writer map order
};

std::string SerializeDirectory(const SnapshotDirectory& dir);

/// Parses and structurally validates an SDIR payload: component ids
/// strictly ascending within the dead-gap budget, shard row ranges
/// contiguous from 0 to n_tuples, counts bounded by the payload size.
/// Offsets/lengths are validated against the actual COMP/RELS payload
/// sizes by the caller.
Result<SnapshotDirectory> ParseDirectory(std::string_view payload);

/// META payload of a v3 snapshot. `component_counter` (the slot count
/// AddComponent allocates from) is an optional trailing field: snapshots
/// written before it existed parse with 0, and the reader falls back to
/// "highest component id present + 1".
struct MetaV3 {
  uint64_t max_component_rows = 0;
  uint64_t owner_counter = 0;
  uint64_t rows_per_shard = 0;
  uint64_t component_counter = 0;
};

std::string BuildMetaPayloadV3(const WsdDb& db);
Result<MetaV3> ParseMetaV3(std::string_view payload);

/// Checks one directory block against its payload: in-bounds, 8-aligned,
/// checksum match. Returns the block bytes.
Result<std::string_view> SliceBlock(std::string_view payload,
                                    uint64_t offset, uint64_t length,
                                    uint64_t checksum, const char* what);

// --- whole-snapshot views --------------------------------------------------

/// One section located inside a mapped snapshot image. The payload view
/// aliases the image; no checksum has been verified.
struct SectionView {
  uint32_t tag = 0;
  uint64_t checksum = 0;
  std::string_view payload;
};

/// Splits the bytes after the "MAYBMS-WSD 3\n" header line into section
/// views (framing only — callers verify the checksums they rely on).
Result<std::vector<SectionView>> WalkSnapshotSections(std::string_view body);

}  // namespace snapshotv3
}  // namespace maybms

#endif  // MAYBMS_CORE_SNAPSHOT_V3_H_
