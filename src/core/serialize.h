// Persistence for world-set databases. Two formats share the
// "MAYBMS-WSD <version>" header line and are negotiated on read:
//
//   - Version 1: a token-based text format that round-trips templates,
//     components, probabilities, owners and options exactly. Strings are
//     length-prefixed, so arbitrary content (including newlines and the
//     ⊥ glyph) survives. Human-inspectable; v1 files remain readable
//     forever.
//   - Version 2: a binary columnar snapshot — the distinct strings the
//     database references are dumped once (deduplicated blob + offset
//     table), and each component/relation is written as raw slot-major
//     tag/payload/probability arrays with per-section lengths and
//     checksums. Loading is sequential bulk reads plus a per-string
//     re-intern; no per-cell parsing. See docs/SNAPSHOT_FORMAT.md.
//   - Version 3: the binary format with a shard directory — components
//     and horizontal relation shards become self-contained, individually
//     checksummed blocks whose offsets (plus per-shard pruning stats) are
//     recorded up front, so a memory-mapped reader (core/mapped_db) can
//     materialize only the blocks a query touches. That reader decodes
//     every v3 load; codecs live in core/snapshot_v3.h.
#ifndef MAYBMS_CORE_SERIALIZE_H_
#define MAYBMS_CORE_SERIALIZE_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/wsd.h"
#include "storage/io_env.h"

namespace maybms {

/// On-disk snapshot encodings.
enum class SnapshotFormat {
  kText,      ///< "MAYBMS-WSD 1": tokenized text
  kBinary,    ///< "MAYBMS-WSD 3": sharded columnar binary sections
  kBinaryV2,  ///< "MAYBMS-WSD 2": monolithic columnar binary sections
};

/// Writes `db` to a stream in the text format (header "MAYBMS-WSD 1").
Status WriteWsdDb(const WsdDb& db, std::ostream& out);

/// Writes `db` to a stream in the legacy monolithic binary snapshot
/// format (header "MAYBMS-WSD 2").
Status WriteWsdDbBinary(const WsdDb& db, std::ostream& out);

/// Writes `db` to a stream in the sharded binary snapshot format
/// (header "MAYBMS-WSD 3"). Relations are split into horizontal shards
/// of options().rows_per_shard rows; each component and shard is a
/// self-contained checksummed block indexed by the SDIR section.
Status WriteWsdDbBinaryV3(const WsdDb& db, std::ostream& out);

/// Serializes `db` in the chosen format into a byte string (what
/// SaveWsdDb writes to disk). Exposed so callers that need the bytes —
/// the durable session fingerprints them to bind the WAL to the
/// snapshot — serialize exactly once.
Result<std::string> SerializeWsdDb(const WsdDb& db, SnapshotFormat format);

struct SaveFileOptions {
  /// File-I/O environment; null = Env::Default().
  Env* env = nullptr;
  /// fsync the temp file and the parent directory around the rename, so
  /// the save survives power loss. Disable only for scratch files where
  /// process-crash atomicity (the rename) is enough.
  bool sync = true;
};

/// Writes `db` to a file in the chosen format — atomically, in every
/// format: the bytes go to `path`.tmp which is renamed over `path`, so a
/// crash mid-save never leaves a torn snapshot over a good one. The
/// default format stays text so existing call sites keep producing
/// human-inspectable files; the SQL SAVE DATABASE statement defaults to
/// binary.
Status SaveWsdDb(const WsdDb& db, const std::string& path,
                 SnapshotFormat format = SnapshotFormat::kText,
                 const SaveFileOptions& opts = {});

/// Reads a database in any of the formats above — the format is
/// negotiated from the header line — and validates invariants. A v3
/// body is read to the end of the stream and decoded by MappedWsdDb.
Result<WsdDb> ReadWsdDb(std::istream& in);
/// Decodes a whole snapshot image of any version and releases the image:
/// v3 through MappedWsdDb::MaterializeAll, v1/v2 by their stream readers
/// over the image's bytes. `format` (if non-null) receives the version.
Result<WsdDb> ReadWsdDbImage(std::unique_ptr<RandomAccessImage> image,
                             SnapshotFormat* format = nullptr);
/// Loads from a file (Env::MapFile + ReadWsdDbImage); `env` (null =
/// Env::Default()) is the seam the fault-injection tests use.
Result<WsdDb> LoadWsdDb(const std::string& path, Env* env = nullptr);

}  // namespace maybms

#endif  // MAYBMS_CORE_SERIALIZE_H_
