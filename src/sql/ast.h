// Abstract syntax of the MayBMS query language — SQL with constructs for
// incompleteness and probability:
//
//   CREATE TABLE r (a INT, b STRING);
//   INSERT INTO r VALUES (1, {'x': 0.4, 'y': 0.6});     -- or-set cell
//   SELECT b FROM r WHERE a = 1;                        -- world-set answer
//   SELECT b, PROB() FROM r WHERE a = 1;                -- confidence
//   POSSIBLE SELECT b FROM r;  CERTAIN SELECT b FROM r;
//   SELECT ECOUNT() FROM r WHERE a = 1;                 -- expected count
//   ENFORCE CHECK (a >= 0) ON r;  ENFORCE KEY (a) ON r;
//   ENFORCE FD city -> state ON r;
//   EXPLAIN SELECT ...;  SHOW TABLES;  SHOW WORLDS;  DROP TABLE r;
//   SET conf.num_threads = 4;  SHOW SETTINGS;
//   DELETE FROM r OLDEST 10;                            -- window retirement
#ifndef MAYBMS_SQL_AST_H_
#define MAYBMS_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ra/expr.h"
#include "storage/schema.h"

namespace maybms {
namespace sql {

/// One cell of an INSERT row: a certain literal or an or-set.
struct InsertCell {
  bool is_orset = false;
  Value value;  ///< when certain
  /// when or-set: alternatives and optional probabilities (empty probs =
  /// uniform)
  std::vector<Value> alternatives;
  std::vector<double> probs;
};

struct CreateTableStmt {
  std::string name;
  Schema schema;
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<InsertCell>> rows;
};

struct DropTableStmt {
  std::string name;
};

/// SELECT item: an expression, '*', PROB(), ECOUNT(), ESUM(col) or
/// APPROX CONF(ε[, δ]).
struct SelectItem {
  enum class Kind { kExpr, kStar, kProb, kEcount, kEsum, kApproxConf };
  Kind kind = Kind::kExpr;
  ExprPtr expr;  ///< also the argument of ESUM (a column reference)
  std::string alias;
  double approx_eps = 0.01;    ///< APPROX CONF interval half-width target
  double approx_delta = 0.05;  ///< APPROX CONF coverage failure probability
};

struct TableRef {
  std::string table;
  std::string alias;  ///< empty when none
};

struct OrderItem {
  std::string column;
  bool descending = false;
};

/// Answer mode of a SELECT.
enum class SelectMode {
  kWorldSet,  ///< plain SELECT: the answer is a world-set (a WSD)
  kPossible,  ///< POSSIBLE SELECT: tuples appearing in some world
  kCertain,   ///< CERTAIN SELECT: tuples appearing in every world
};

struct SelectStmt;
using SelectPtr = std::shared_ptr<SelectStmt>;

struct SelectStmt {
  SelectMode mode = SelectMode::kWorldSet;
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;  ///< null when absent
  std::vector<OrderItem> order_by;
  /// Compound: this select (UNION|EXCEPT) rhs.
  enum class Compound { kNone, kUnion, kExcept };
  Compound compound = Compound::kNone;
  SelectPtr rhs;
};

struct ExplainStmt {
  SelectPtr select;
};

struct ShowStmt {
  enum class What { kTables, kWorlds, kRelation, kSettings };
  What what = What::kTables;
  std::string relation;   ///< for kRelation
  size_t max_worlds = 32; ///< for kWorlds
};

/// SET <knob> = <literal>: assigns one session setting (see the knob
/// registry in session.cc; SHOW SETTINGS lists all of them). Session-
/// local — never written to the WAL.
struct SetStmt {
  std::string name;
  Value value;
};

/// DELETE FROM r OLDEST n: retires the n oldest tuples of r (the
/// streaming window primitive), garbage-collecting components no
/// surviving tuple references. Lowers to a DeltaBatch evict op.
struct DeleteStmt {
  std::string table;
  size_t count = 0;
};

struct EnforceStmt {
  enum class Kind { kCheck, kKey, kFd };
  Kind kind = Kind::kCheck;
  std::string table;
  ExprPtr check;                  ///< kCheck
  std::vector<std::string> lhs;   ///< kKey attrs / kFd lhs
  std::vector<std::string> rhs;   ///< kFd rhs
};

/// REPAIR KEY (attrs) IN table [WEIGHT BY col]: one tuple per key group
/// survives per world, weighted — the construct that *introduces*
/// uncertainty from dirty certain data.
struct RepairStmt {
  std::string table;
  std::vector<std::string> key;
  std::string weight;  ///< empty = uniform
};

/// SAVE DATABASE '<path>' [FORMAT TEXT|BINARY]: snapshots the whole
/// world-set database. Defaults to the binary columnar format.
struct SaveDbStmt {
  std::string path;
  bool binary = true;
};

/// LOAD DATABASE '<path>' [MAPPED]: replaces the session's database with
/// the snapshot at `path` (format negotiated from the file header).
/// MAPPED memory-maps a v3 snapshot instead of decoding it: queries
/// materialize only the relation shards and components they touch.
struct LoadDbStmt {
  std::string path;
  bool mapped = false;
};

/// CHECKPOINT: rewrites the attached snapshot from current state and
/// resets its write-ahead log (also triggered automatically every
/// DurabilityOptions::auto_checkpoint_records logged statements).
struct CheckpointStmt {};

/// A parsed statement (exactly one member is set).
struct Statement {
  enum class Kind {
    kCreateTable,
    kInsert,
    kDropTable,
    kSelect,
    kExplain,
    kShow,
    kEnforce,
    kRepair,
    kSaveDb,
    kLoadDb,
    kCheckpoint,
    kSet,
    kDelete,
  };
  Kind kind = Kind::kSelect;
  std::optional<CreateTableStmt> create_table;
  std::optional<InsertStmt> insert;
  std::optional<DropTableStmt> drop_table;
  SelectPtr select;
  std::optional<ExplainStmt> explain;
  std::optional<ShowStmt> show;
  std::optional<EnforceStmt> enforce;
  std::optional<RepairStmt> repair;
  std::optional<SaveDbStmt> save_db;
  std::optional<LoadDbStmt> load_db;
  std::optional<CheckpointStmt> checkpoint;
  std::optional<SetStmt> set;
  std::optional<DeleteStmt> delete_stmt;
};

}  // namespace sql
}  // namespace maybms

#endif  // MAYBMS_SQL_AST_H_
