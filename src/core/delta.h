// DeltaBatch: the unified mutation API of a world-set database.
//
// Every mutation of a WsdDb — SQL CREATE / DROP TABLE, INSERT, REPAIR
// KEY, ENFORCE and DELETE, the server's per-relation commit path, and
// the streaming ingest entry point — is expressed as an ordered batch
// of delta ops and applied through WsdDb::ApplyDelta. Funneling
// mutations through one door buys three things:
//
//   - *Delta-scoped invalidation.* ApplyDelta records exactly which
//     components each op dirtied or removed and invalidates only the
//     shard caches of relations that reference them, instead of the
//     wholesale reset the ad-hoc mutation paths used to do. The same
//     dirty sets come back to the caller as DeltaEffects, so session-
//     level caches (materialized confidence, server result cache) can
//     be maintained incrementally.
//   - *Durability.* A batch serializes to one WAL record
//     (wal::RecordType::kDelta, the only kind the engine writes);
//     replaying the record re-applies the identical ops in the
//     identical order, reproducing the same component ids and owner
//     ids (AddComponent hands out the allocation point,
//     component_slot_count(), and moves it up by one; ids are never
//     reused, and snapshots persist the point).
//   - *Deterministic partial failure.* Ops apply in order and stop at
//     the first error; already-applied ops stay applied. Replay of the
//     same batch against the same state therefore reproduces the same
//     partial state — the property WAL recovery needs.
//
// Construction is fluent: batch.Insert(...).Reweight(...).Evict(...).
#ifndef MAYBMS_CORE_DELTA_H_
#define MAYBMS_CORE_DELTA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "chase/constraint.h"
#include "common/result.h"
#include "core/builder.h"
#include "core/types.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace maybms {

class WsdDb;

class DeltaBatch {
 public:
  /// Appends one tuple to `relation`; cells follow the builder's
  /// CellSpec (certain values or or-sets; pending cells are rejected at
  /// apply time — joint components cannot be completed across a batch
  /// boundary).
  DeltaBatch& Insert(std::string relation, std::vector<CellSpec> cells);

  /// Removes the oldest `count` tuples of `relation` (the streaming
  /// window retirement primitive) and garbage-collects components that
  /// no surviving tuple references or is gated by. Visits only the
  /// evicted tuples and their candidate components once the database's
  /// reference index exists; the first eviction after an index-dropping
  /// mutation rebuilds it in one pass (see WsdDb::RefIndex).
  DeltaBatch& EvictOldest(std::string relation, size_t count);

  /// Replaces the full probability vector of a live component (must
  /// match its row count and sum to 1).
  DeltaBatch& Reweight(ComponentId cid, std::vector<double> probs);

  /// Overwrites one cell of a live component.
  DeltaBatch& SetCell(ComponentId cid, uint32_t row, uint32_t slot, Value v);

  /// REPAIR KEY as a delta op (core/repair.h).
  DeltaBatch& RepairKey(std::string relation,
                        std::vector<std::string> key_attrs,
                        std::string weight_attr = "");

  /// Constraint enforcement as a delta op (chase/enforce.h).
  DeltaBatch& Enforce(Constraint constraint);

  /// Adds an empty relation (fails if the name is taken).
  DeltaBatch& CreateRelation(std::string relation, Schema schema);

  /// Removes a relation from the catalog (fails if it is missing) and
  /// garbage-collects the components only it used, under the same rule
  /// as EvictOldest.
  DeltaBatch& DropRelation(std::string relation);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Serializes the batch into a WAL payload. Fails on pending cells
  /// (which no batch can apply) and on domain predicates nested deeper
  /// than the decoder accepts.
  Result<std::string> Serialize() const;

  /// Parses a payload produced by Serialize.
  static Result<DeltaBatch> Deserialize(std::string_view payload);

  /// One line per op, for logs and the shell.
  std::string ToString() const;

  // Op descriptors (public so ApplyDelta's helpers and tests can name
  // them; batches are still only built through the fluent methods).
  struct InsertOp {
    std::string relation;
    std::vector<CellSpec> cells;
  };
  struct EvictOp {
    std::string relation;
    size_t count = 0;
  };
  struct ReweightOp {
    ComponentId cid = kInvalidComponent;
    std::vector<double> probs;
  };
  struct SetCellOp {
    ComponentId cid = kInvalidComponent;
    uint32_t row = 0;
    uint32_t slot = 0;
    Value value;
  };
  struct RepairOp {
    std::string relation;
    std::vector<std::string> key_attrs;
    std::string weight_attr;
  };
  struct EnforceOp {
    Constraint constraint;
  };
  struct CreateOp {
    std::string relation;
    Schema schema;
  };
  struct DropOp {
    std::string relation;
  };
  using Op = std::variant<InsertOp, EvictOp, ReweightOp, SetCellOp, RepairOp,
                          EnforceOp, CreateOp, DropOp>;

  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

}  // namespace maybms

#endif  // MAYBMS_CORE_DELTA_H_
