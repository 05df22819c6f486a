// Out-of-core world-set databases: a v3 snapshot opened as a memory map
// whose component and shard blocks are materialized lazily.
//
// MappedWsdDb is the only reader of v3 snapshots: eager loads
// (LoadWsdDb, ReadWsdDb, LOAD DATABASE) open the image here and call
// MaterializeAll. Open verifies the snapshot's eager head (META, STRS
// and the SDIR shard directory — a few KB) and the directory's block
// bounds and component references, without reading the COMP/RELS
// payloads. Queries then call MaterializeForPlan, which
// prunes relation shards against the plan's Select predicates using the
// per-shard column ranges persisted in SDIR, and decodes only the
// surviving shards plus the components they reference — each block
// checksum-verified on first touch. A selective query over a large
// database reads a handful of pages instead of the whole file.
//
// Writes never touch the file. A MAPPED session (sql::Session) keeps a
// write overlay: a copy of skeleton() — schemas, each relation's stored
// row count as WsdRelation::base_rows, the owner counter and the
// component-id allocation point — to which WsdDb::ApplyDelta applies
// inserts, CREATE TABLE and evictions. The overlay holds the tuples and
// components inserted since the load, with ids above every stored one,
// and evictions retire stored rows (base_rows) before its own tuples.
// MaterializeForPlan merges the overlay into each scratch database, and
// MaterializeAll with an overlay is the fold: the whole snapshot with
// the retired rows evicted under the eviction GC rule and the overlay
// appended, exactly the database an eager session that ran the same
// writes holds. Promotion to resident and CHECKPOINT (which then maps
// the file it wrote, with an empty overlay) run the fold.
//
// Decoded blocks are cached under an LRU byte budget
// (MappedDbOptions::max_resident_bytes, or the MAYBMS_MAX_RESIDENT_BYTES
// environment variable), so repeated queries over a database much larger
// than memory keep a bounded resident set. The WsdDb a materialization
// returns is an owned scratch copy — it lives for one query and is not
// counted against the budget.
//
// Thread-safe for concurrent materialization: the decoded-block cache,
// its LRU residency accounting and the materialization statistics are
// guarded by an internal mutex, and blocks are handed out as shared_ptr
// so an eviction never invalidates a reader mid-decode. Block decoding
// itself (the expensive part, including the deferred per-block checksum
// verification) runs outside the lock; when two readers race on the
// same cold block, one decode wins the install and the other adopts it.
#ifndef MAYBMS_CORE_MAPPED_DB_H_
#define MAYBMS_CORE_MAPPED_DB_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/shard.h"
#include "core/snapshot_v3.h"
#include "core/wsd.h"
#include "ra/plan.h"
#include "storage/io_env.h"

namespace maybms {

/// How a snapshot becomes a queryable database.
enum class LoadMode {
  kEager,   ///< decode the whole file up front (LoadWsdDb)
  kMapped,  ///< mmap + lazy per-shard materialization (MappedWsdDb)
};

struct MappedDbOptions {
  /// Cap on bytes of decoded blocks kept cached across queries. 0 reads
  /// the MAYBMS_MAX_RESIDENT_BYTES environment variable; unset or 0
  /// there means unlimited.
  size_t max_resident_bytes = 0;
};

/// What the last MaterializeForPlan call actually touched.
struct MaterializeStats {
  size_t shards_total = 0;   ///< shards in the snapshot (all relations)
  size_t shards_kept = 0;    ///< shards decoded for the plan
  size_t components_loaded = 0;
  size_t bytes_decoded = 0;  ///< on-disk bytes of blocks decoded this call
};

class MappedWsdDb {
 public:
  /// Maps `path` and opens it as below. `env` (null = Env::Default())
  /// supplies the mapping — the seam the fault-injection tests use.
  static Result<MappedWsdDb> Open(const std::string& path,
                                  MappedDbOptions options = {},
                                  Env* env = nullptr);
  /// Takes ownership of `image` and verifies its eager head. The image
  /// must hold a "MAYBMS-WSD 3" snapshot; v1/v2 ones are rejected with
  /// kUnsupported (load those eagerly via LoadWsdDb).
  static Result<MappedWsdDb> Open(std::unique_ptr<RandomAccessImage> image,
                                  MappedDbOptions options = {});

  MappedWsdDb(MappedWsdDb&&) = default;
  MappedWsdDb& operator=(MappedWsdDb&&) = default;

  const std::string& path() const { return file_->path(); }

  /// The empty write overlay: schemas, display names and options, each
  /// relation's stored row count as its base_rows, the owner counter and
  /// the component-id allocation point — no tuples, no components.
  /// Enough for planning, binding and catalog statements, and the
  /// database a MAPPED session applies its inserts and evictions to.
  const WsdDb& skeleton() const { return skeleton_; }

  /// Materializes the subset of the database the plan can touch: for
  /// every Select(...(Select(Scan rel))) chain the conjunctive column
  /// bounds prune shards via the persisted SDIR ranges; bare scans keep
  /// every shard; relations the plan never scans stay empty. Returns an
  /// owned scratch database that answers the plan exactly as the eagerly
  /// loaded database would (shard pruning only drops tuples that fail
  /// the predicate in every world).
  ///
  /// `overlay` (a copy of skeleton() that writes went to) is merged in:
  /// shards wholly made of evicted base rows are skipped, the evicted
  /// rows of a partly evicted shard leave under the eviction rule, and
  /// every overlay tuple and component is appended. The result answers
  /// the plan as the eager database that ran the same writes would.
  Result<WsdDb> MaterializeForPlan(const Plan& plan) {
    return MaterializeForPlan(plan, skeleton_);
  }
  Result<WsdDb> MaterializeForPlan(const Plan& plan, const WsdDb& overlay);

  /// Decodes everything, bypassing the residency cache: what every eager
  /// load runs, and the escape hatch for statements that need the whole
  /// database resident. Also verifies the COMP/RELS section checksums,
  /// decodes shards in parallel straight into their relations, and
  /// installs each relation's directory partition as its cached shard
  /// partition.
  ///
  /// With an `overlay`, this is the fold: each relation's evicted base
  /// rows then leave under the eviction GC rule and the overlay's tuples
  /// and components are appended, which yields exactly the database of
  /// an eager session that ran the overlay's writes.
  Result<WsdDb> MaterializeAll() { return MaterializeAll(skeleton_); }
  Result<WsdDb> MaterializeAll(const WsdDb& overlay);

  /// Per-relation shard partitions reconstructed from SDIR (ranges and
  /// referenced components per shard), in directory order. A relation
  /// materialized with every shard shares its entry as cached partition.
  const std::vector<std::shared_ptr<const ShardPartition>>& partitions()
      const {
    return partitions_;
  }
  /// Components stored in the snapshot.
  size_t num_components() const { return dir_.components.size(); }

  /// Bytes of decoded blocks currently cached.
  size_t resident_bytes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return resident_bytes_;
  }
  /// High-water mark of resident_bytes() since Open.
  size_t peak_resident_bytes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return peak_resident_bytes_;
  }
  size_t max_resident_bytes() const { return max_resident_bytes_; }
  /// Size of the snapshot file on disk.
  size_t snapshot_bytes() const { return file_->bytes().size(); }
  /// The raw mapped snapshot bytes (the durable session fingerprints
  /// them to match a WAL against the snapshot without an extra read).
  std::string_view snapshot_view() const { return file_->bytes(); }

  /// Statistics of the most recent Materialize* call (by any thread).
  MaterializeStats last_stats() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return last_stats_;
  }

 private:
  MappedWsdDb() : mu_(std::make_unique<std::mutex>()) {}

  struct CachedComponent {
    std::shared_ptr<const Component> comp;
    size_t bytes = 0;
    uint64_t last_use = 0;
  };
  struct CachedShard {
    std::shared_ptr<const std::vector<WsdTuple>> tuples;
    size_t bytes = 0;
    uint64_t last_use = 0;
  };

  /// Index into dir_.components of component `id`, or
  /// dir_.components.size() when the snapshot does not store it.
  size_t ComponentIndex(ComponentId id) const;
  /// Verifies (block checksum) and decodes component block `k`.
  Result<Component> DecodeComponentBlock(size_t k) const;
  /// Verifies and decodes shard `s` of dir relation `r` into out[0, n),
  /// n its row count; out holds default-constructed tuples.
  Status DecodeShardBlock(size_t r, size_t s, WsdTuple* out) const;
  /// Decoded component for dir index `k`, via the cache. The returned
  /// shared_ptr keeps the block alive across evictions.
  Result<std::shared_ptr<const Component>> LoadComponent(
      size_t k, MaterializeStats* stats);
  /// Decoded tuples of shard `s` of dir relation `r`, via the cache.
  Result<std::shared_ptr<const std::vector<WsdTuple>>> LoadShard(
      size_t r, size_t s, MaterializeStats* stats);
  /// Builds a scratch database holding, per dir relation, the tuples of
  /// the shards with keep[r][s] != 0 plus every component they
  /// reference — through the cache, unless `full` (every shard kept):
  /// then it decodes every block directly and verifies the sections.
  /// The overlay's evictions and tuples are applied on top (see
  /// MaterializeForPlan).
  Result<WsdDb> Materialize(std::vector<std::vector<char>> keep, bool full,
                            const WsdDb& overlay);
  void EvictToCap();
  void Account(size_t bytes);

  std::unique_ptr<RandomAccessImage> file_;
  snapshotv3::MetaV3 meta_;
  /// Block locations; each shard's ranges and referenced components
  /// were moved out into partitions_.
  snapshotv3::SnapshotDirectory dir_;
  /// Per dir relation, the persisted partition (ranges + referenced
  /// components per shard) reconstructed from SDIR.
  std::vector<std::shared_ptr<const ShardPartition>> partitions_;
  std::vector<uint32_t> local_to_global_;
  /// Pool-stable pointers for the snapshot's string table, materialized
  /// once at Open (the table is part of the eager head).
  std::vector<const std::string*> local_strings_;
  snapshotv3::SectionView comp_;  ///< COMP: payload aliases file_
  snapshotv3::SectionView rels_;  ///< RELS: payload aliases file_
  WsdDb skeleton_;

  size_t max_resident_bytes_ = 0;  ///< resolved; SIZE_MAX = unlimited

  /// Guards the cache maps, residency accounting and last_stats_.
  /// Heap-allocated so the object stays movable (moves still require
  /// exclusive access, like every non-const single-object operation).
  std::unique_ptr<std::mutex> mu_;
  size_t resident_bytes_ = 0;
  size_t peak_resident_bytes_ = 0;
  uint64_t use_clock_ = 0;
  std::unordered_map<uint64_t, CachedComponent> comp_cache_;
  /// Key: rel_index << 32 | shard_index.
  std::unordered_map<uint64_t, CachedShard> shard_cache_;
  MaterializeStats last_stats_;
};

}  // namespace maybms

#endif  // MAYBMS_CORE_MAPPED_DB_H_
