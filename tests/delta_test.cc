// Unit tests for the unified mutation API (core/delta.h): fluent batch
// construction, WAL-payload serialization, delta application with its
// dirty/removed effect sets, eviction garbage collection, deterministic
// partial failure, and the session-level streaming entry point
// (WAL-as-kDelta logging + recovery replay).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/confidence.h"
#include "core/delta.h"
#include "core/wsd.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using testing_util::DbsExactlyEqual;
using testing_util::MedicalExample;

WsdDb TwoColumnDb() {
  WsdDb db;
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  MAYBMS_EXPECT_OK(db.CreateRelation("t", schema));
  return db;
}

std::vector<CellSpec> UncertainRow(int64_t k) {
  return {CellSpec::Certain(Value::Int(k)),
          CellSpec::OrSet({{Value::String("a"), 0.5},
                           {Value::String("b"), 0.5}})};
}

TEST(DeltaBatchTest, FluentConstructionAndToString) {
  DeltaBatch batch;
  batch.Insert("t", UncertainRow(1))
      .EvictOldest("t", 2)
      .Reweight(3, {0.25, 0.75})
      .SetCell(3, 0, 0, Value::Int(9))
      .RepairKey("t", {"k"}, "w")
      .Enforce(Constraint::Key("t", {"k"}, "pk"))
      .CreateRelation("u", Schema({{"a", ValueType::kInt}}))
      .DropRelation("u");
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_FALSE(batch.empty());
  const std::string text = batch.ToString();
  for (const char* line : {"insert t", "evict t oldest 2", "reweight c3",
                           "setcell c3[0,0] = 9", "repair key t", "enforce",
                           "create u (a INT)", "drop u"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
  }
}

TEST(DeltaBatchTest, SerializeRoundTripIsLossless) {
  DeltaBatch batch;
  batch.Insert("t", {CellSpec::Certain(Value::Int(-7)),
                     CellSpec::OrSet({{Value::String("x\"y"), 0.125},
                                      {Value::Null(), 0.875}})})
      .EvictOldest("events", 1u << 20)
      .Reweight(42, {1.0})
      .SetCell(7, 3, 1, Value::Double(2.5))
      .RepairKey("t", {"k", "v"}, "w")
      .Enforce(Constraint::FunctionalDependency("t", {"k"}, {"v"}, "fd"))
      .Enforce(Constraint::Key("t", {"k"}, "pk"))
      .CreateRelation("u", Schema({{"a", ValueType::kInt},
                                   {"b", ValueType::kString},
                                   {"c", ValueType::kDouble},
                                   {"d", ValueType::kBool}}))
      .DropRelation("u");

  auto payload = batch.Serialize();
  MAYBMS_ASSERT_OK(payload.status());
  auto parsed = DeltaBatch::Deserialize(*payload);
  MAYBMS_ASSERT_OK(parsed.status());
  EXPECT_EQ(parsed->size(), batch.size());
  // Lossless round-trip ⇔ re-serialization is byte-identical.
  auto again = parsed->Serialize();
  MAYBMS_ASSERT_OK(again.status());
  EXPECT_EQ(*again, *payload);
  EXPECT_EQ(parsed->ToString(), batch.ToString());
}

// A predicate using all nine expression kinds.
ExprPtr EveryKindPredicate() {
  // (k * 2 + 1 >= 3 AND NOT (v IS NOT NULL)) OR k IN (1, 'x', NULL)
  //   OR col#1 < 2.5
  ExprPtr arith = Expr::Arith(
      ArithOp::kAdd,
      Expr::Arith(ArithOp::kMul, Expr::Column("k"), Expr::Const(Value::Int(2))),
      Expr::Const(Value::Int(1)));
  ExprPtr lhs = Expr::And(
      Expr::Compare(CompareOp::kGe, arith, Expr::Const(Value::Int(3))),
      Expr::Not(Expr::IsNull(Expr::Column("v"), /*negated=*/true)));
  ExprPtr in = Expr::In(Expr::Column("k"),
                        {Value::Int(1), Value::String("x"), Value::Null()});
  ExprPtr bound = Expr::Compare(CompareOp::kLt, Expr::ColumnIdx(1, "v"),
                                Expr::Const(Value::Double(2.5)));
  return Expr::Or(Expr::Or(lhs, in), bound);
}

TEST(DeltaBatchTest, DomainConstraintsRoundTripAndPendingCellsAreRejected) {
  DeltaBatch domain;
  domain.Enforce(Constraint::Domain(
      "t", Expr::Compare(CompareOp::kLt, Expr::Column("k"),
                         Expr::Const(Value::Int(3))),
      "small"));
  domain.Enforce(Constraint::Domain("t", EveryKindPredicate(), "every"));
  auto payload = domain.Serialize();
  MAYBMS_ASSERT_OK(payload.status());
  auto parsed = DeltaBatch::Deserialize(*payload);
  MAYBMS_ASSERT_OK(parsed.status());
  auto again = parsed->Serialize();
  MAYBMS_ASSERT_OK(again.status());
  EXPECT_EQ(*again, *payload);
  EXPECT_EQ(parsed->ToString(), domain.ToString());

  // The decoded predicate conditions exactly like the original.
  DeltaBatch fill;
  for (int64_t k = 0; k < 5; ++k) fill.Insert("t", UncertainRow(k));
  WsdDb a = TwoColumnDb();
  MAYBMS_ASSERT_OK(a.ApplyDelta(fill).status());
  WsdDb b(a);
  DeltaBatch cond;  // v <> 'a' OR k < 1
  cond.Enforce(Constraint::Domain(
      "t", Expr::Or(Expr::Compare(CompareOp::kNe, Expr::Column("v"),
                                  Expr::Const(Value::String("a"))),
                    Expr::Compare(CompareOp::kLt, Expr::Column("k"),
                                  Expr::Const(Value::Int(1))))));
  auto cond_payload = cond.Serialize();
  MAYBMS_ASSERT_OK(cond_payload.status());
  auto cond_parsed = DeltaBatch::Deserialize(*cond_payload);
  MAYBMS_ASSERT_OK(cond_parsed.status());
  auto effects = a.ApplyDelta(cond);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_GT(effects->enforce_rows_removed, 0u);
  MAYBMS_ASSERT_OK(b.ApplyDelta(*cond_parsed).status());
  testing_util::ExpectDbsExactlyEqual(a, b);

  DeltaBatch pending;
  pending.Insert("t", {CellSpec::Pending(), CellSpec::Certain(Value::Int(1))});
  EXPECT_EQ(pending.Serialize().status().code(), StatusCode::kInvalidArgument);
  // ...and the unserializable insert is also unappliable.
  WsdDb db = TwoColumnDb();
  EXPECT_EQ(db.ApplyDelta(pending).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaBatchTest, ExpressionNestingIsBoundedOnBothSides) {
  ExprPtr deep = Expr::Column("k");
  for (int i = 0; i < 600; ++i) deep = Expr::Not(deep);
  DeltaBatch batch;
  batch.Enforce(Constraint::Domain("t", deep));
  EXPECT_EQ(batch.Serialize().status().code(), StatusCode::kInvalidArgument);

  // A payload claiming the same depth fails to decode instead of
  // recursing without bound: splice 600 NOT nodes in front of the
  // column node where a single NOT's encoding first differs.
  DeltaBatch column;
  column.Enforce(Constraint::Domain("t", Expr::Column("k")));
  DeltaBatch negated;
  negated.Enforce(Constraint::Domain("t", Expr::Not(Expr::Column("k"))));
  auto plain = column.Serialize();
  auto with_not = negated.Serialize();
  MAYBMS_ASSERT_OK(plain.status());
  MAYBMS_ASSERT_OK(with_not.status());
  size_t at = 0;
  while ((*plain)[at] == (*with_not)[at]) ++at;
  std::string one = *plain;
  one.insert(at, 1, (*with_not)[at]);
  ASSERT_EQ(one, *with_not);  // the splice point is the node boundary
  std::string crafted = *plain;
  crafted.insert(at, 600, (*with_not)[at]);
  EXPECT_EQ(DeltaBatch::Deserialize(crafted).status().code(),
            StatusCode::kParseError);
}

TEST(DeltaBatchTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeltaBatch::Deserialize("not a delta").ok());
  DeltaBatch batch;
  batch.EvictOldest("t", 1);
  auto payload = batch.Serialize();
  MAYBMS_ASSERT_OK(payload.status());
  EXPECT_FALSE(DeltaBatch::Deserialize(*payload + "x").ok());  // trailing
  EXPECT_FALSE(
      DeltaBatch::Deserialize(payload->substr(0, payload->size() - 2)).ok());
}

TEST(ApplyDeltaTest, InsertReportsEffectsAndBumpsEpoch) {
  WsdDb db = TwoColumnDb();
  const uint64_t epoch0 = db.mutation_epoch();

  DeltaBatch batch;
  for (int i = 0; i < 3; ++i) batch.Insert("t", UncertainRow(i));
  auto effects = db.ApplyDelta(batch);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->tuples_inserted, 3u);
  EXPECT_EQ(effects->tuples_evicted, 0u);
  // One fresh single-slot component per or-set cell.
  EXPECT_EQ(effects->dirty_components.size(), 3u);
  EXPECT_TRUE(effects->removed_components.empty());
  ASSERT_EQ(effects->dirty_relations, std::vector<std::string>{"t"});
  EXPECT_EQ(effects->epoch, epoch0 + 1);
  EXPECT_EQ(db.mutation_epoch(), epoch0 + 1);
  EXPECT_EQ((*db.GetRelation("t"))->NumTuples(), 3u);

  // An empty batch is a no-op: no effects, no epoch bump.
  auto empty = db.ApplyDelta(DeltaBatch());
  MAYBMS_ASSERT_OK(empty.status());
  EXPECT_EQ(db.mutation_epoch(), epoch0 + 1);
}

TEST(ApplyDeltaTest, EvictGarbageCollectsUnreferencedComponents) {
  WsdDb db = TwoColumnDb();
  DeltaBatch fill;
  for (int i = 0; i < 4; ++i) fill.Insert("t", UncertainRow(i));
  MAYBMS_ASSERT_OK(db.ApplyDelta(fill).status());
  const std::vector<ComponentId> live = db.LiveComponents();
  ASSERT_EQ(live.size(), 4u);

  DeltaBatch evict;
  evict.EvictOldest("t", 2);
  auto effects = db.ApplyDelta(evict);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->tuples_evicted, 2u);
  // The two oldest tuples' or-set components no longer gate anything.
  EXPECT_EQ(effects->removed_components,
            std::vector<ComponentId>({live[0], live[1]}));
  EXPECT_TRUE(effects->dirty_components.empty());
  EXPECT_EQ(db.LiveComponents(),
            std::vector<ComponentId>({live[2], live[3]}));
  EXPECT_EQ((*db.GetRelation("t"))->NumTuples(), 2u);

  // Evicting more than resident clamps; evicting from a missing relation
  // fails.
  DeltaBatch over;
  over.EvictOldest("t", 100);
  auto clamped = db.ApplyDelta(over);
  MAYBMS_ASSERT_OK(clamped.status());
  EXPECT_EQ(clamped->tuples_evicted, 2u);
  DeltaBatch missing;
  missing.EvictOldest("nope", 1);
  EXPECT_FALSE(db.ApplyDelta(missing).ok());
}

TEST(ApplyDeltaTest, EvictKeepsComponentsSharedWithSurvivors) {
  // The medical example's c1 covers r1 only, but both tuples live in R;
  // share a component across two tuples by gating instead: REPAIR KEY
  // introduces existence components spanning alternatives.
  WsdDb db = MedicalExample();
  const size_t live_before = db.LiveComponents().size();
  DeltaBatch evict;
  evict.EvictOldest("R", 1);  // drops r1: c1 and the symptom or-set die
  auto effects = db.ApplyDelta(evict);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->removed_components.size(), 2u);
  EXPECT_EQ(db.LiveComponents().size(), live_before - 2);
  // The surviving certain tuple is intact.
  EXPECT_EQ((*db.GetRelation("R"))->NumTuples(), 1u);
}

TEST(ApplyDeltaTest, EvictMaintainsTheReferenceIndexAcrossCopies) {
  // The first eviction builds the reference index; later inserts and
  // evictions maintain it, and CheckInvariants compares it against a
  // rebuild. A copy taken in between shares the index, and neither
  // side's writes leak into the other's.
  WsdDb db = TwoColumnDb();
  DeltaBatch fill;
  for (int i = 0; i < 8; ++i) fill.Insert("t", UncertainRow(i));
  MAYBMS_ASSERT_OK(db.ApplyDelta(fill).status());
  DeltaBatch tick;
  tick.Insert("t", UncertainRow(8)).EvictOldest("t", 2);
  MAYBMS_ASSERT_OK(db.ApplyDelta(tick).status());
  MAYBMS_ASSERT_OK(db.CheckInvariants());

  WsdDb copy = db;
  MAYBMS_ASSERT_OK(copy.ApplyDelta(tick).status());
  MAYBMS_ASSERT_OK(copy.CheckInvariants());
  MAYBMS_ASSERT_OK(db.CheckInvariants());
  EXPECT_EQ((*db.GetRelation("t"))->NumTuples(), 7u);
  EXPECT_EQ((*copy.GetRelation("t"))->NumTuples(), 6u);

  // A mutation outside ApplyDelta drops the index; the next eviction
  // rebuilds it and collects exactly what a from-scratch pass would.
  db.GetMutableRelation("t").value()->mutable_tuple(0).cells[0] =
      Cell::Certain(Value::Int(42));
  MAYBMS_ASSERT_OK(db.ApplyDelta(tick).status());
  MAYBMS_ASSERT_OK(db.CheckInvariants());
  EXPECT_EQ(db.NumLiveComponents(), 6u);

  // The dead prefix is not stored: only the live id span is.
  EXPECT_EQ(db.component_span(),
            db.component_slot_count() - db.LiveComponents().front());
}

TEST(ApplyDeltaTest, DropCollectsComponentsOnlyTheDroppedRelationUsed) {
  // CREATE a, b; or-sets into both; DROP TABLE b leaves exactly the
  // components (and world count) of a database that only ever held a,
  // and WAL replay of the drop reproduces them.
  FaultInjectingEnv env;
  sql::Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(
      s.ExecuteScript("CREATE TABLE a (x INT);"
                      "CREATE TABLE b (x INT);"
                      "INSERT INTO a VALUES ({1: 0.5, 2: 0.5});"
                      "INSERT INTO b VALUES ({1: 0.5, 2: 0.5}), "
                      "({3: 0.25, 4: 0.75});")
          .status());
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  ASSERT_EQ(s.db().NumLiveComponents(), 3u);
  MAYBMS_ASSERT_OK(s.Execute("DROP TABLE b").status());

  sql::Session only_a;
  MAYBMS_ASSERT_OK(
      only_a.ExecuteScript("CREATE TABLE a (x INT);"
                           "INSERT INTO a VALUES ({1: 0.5, 2: 0.5});")
          .status());
  EXPECT_EQ(s.db().LiveComponents(), only_a.db().LiveComponents());
  EXPECT_EQ(s.db().Log2WorldCount(), only_a.db().Log2WorldCount());
  EXPECT_EQ(s.db().Log2WorldCount(), 1.0);
  MAYBMS_ASSERT_OK(s.db().CheckInvariants());

  sql::Session r;
  r.set_env(&env);
  MAYBMS_ASSERT_OK(r.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), r.db());
  EXPECT_EQ(r.db().component_slot_count(), s.db().component_slot_count());
}

TEST(ApplyDeltaTest, ReweightValidatesAndMarksDirty) {
  WsdDb db = TwoColumnDb();
  DeltaBatch fill;
  fill.Insert("t", UncertainRow(1));
  auto filled = db.ApplyDelta(fill);
  MAYBMS_ASSERT_OK(filled.status());
  ASSERT_EQ(filled->dirty_components.size(), 1u);
  const ComponentId cid = filled->dirty_components[0];

  for (auto& bad : std::vector<std::vector<double>>{
           {0.5},              // arity mismatch (component has 2 rows)
           {0.7, 0.7},         // mass != 1
           {-0.5, 1.5},        // outside [0,1]
       }) {
    DeltaBatch b;
    b.Reweight(cid, bad);
    EXPECT_FALSE(db.ApplyDelta(b).ok());
  }
  DeltaBatch dead;
  dead.Reweight(cid + 1000, {1.0});
  EXPECT_FALSE(db.ApplyDelta(dead).ok());

  DeltaBatch good;
  good.Reweight(cid, {0.25, 0.75});
  auto effects = db.ApplyDelta(good);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->dirty_components, std::vector<ComponentId>({cid}));
  EXPECT_EQ(effects->dirty_relations, std::vector<std::string>{"t"});
  EXPECT_DOUBLE_EQ(db.component(cid).prob(0), 0.25);

  DeltaBatch cell;
  cell.SetCell(cid, 0, 0, Value::String("z"));
  auto set_effects = db.ApplyDelta(cell);
  MAYBMS_ASSERT_OK(set_effects.status());
  EXPECT_EQ(set_effects->dirty_components, std::vector<ComponentId>({cid}));
  DeltaBatch oob;
  oob.SetCell(cid, 5, 0, Value::String("z"));
  EXPECT_FALSE(db.ApplyDelta(oob).ok());
}

TEST(ApplyDeltaTest, RepairAndEnforceAggregateStats) {
  WsdDb db;
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  MAYBMS_EXPECT_OK(db.CreateRelation("t", schema));
  DeltaBatch fill;
  for (int64_t v = 0; v < 3; ++v) {
    fill.Insert("t", {CellSpec::Certain(Value::Int(1)),
                      CellSpec::Certain(Value::Int(v))});
  }
  fill.Insert("t", {CellSpec::Certain(Value::Int(2)),
                    CellSpec::Certain(Value::Int(9))});
  MAYBMS_ASSERT_OK(db.ApplyDelta(fill).status());

  DeltaBatch repair;
  repair.RepairKey("t", {"k"});
  auto effects = db.ApplyDelta(repair);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->repair_groups, 2u);
  EXPECT_EQ(effects->repair_conflicting_groups, 1u);
  EXPECT_GT(effects->repair_log2_worlds_added, 0.0);

  // ENFORCE as a delta op: the FD k->v holds per world after the repair,
  // so enforcement removes nothing — the stats still flow through.
  DeltaBatch enforce;
  enforce.Enforce(Constraint::FunctionalDependency("t", {"k"}, {"v"}, "fd"));
  auto enforced = db.ApplyDelta(enforce);
  MAYBMS_ASSERT_OK(enforced.status());
  EXPECT_EQ(enforced->enforce_rows_removed, 0u);
  EXPECT_DOUBLE_EQ(enforced->enforce_removed_mass, 0.0);
}

TEST(ApplyDeltaTest, FailFastKeepsAppliedPrefixDeterministically) {
  WsdDb a = TwoColumnDb();
  DeltaBatch seed;
  seed.Insert("t", UncertainRow(0));
  MAYBMS_ASSERT_OK(a.ApplyDelta(seed).status());
  WsdDb b(a);  // COW copy: identical starting state

  DeltaBatch batch;
  batch.Insert("t", UncertainRow(1))
      .EvictOldest("missing", 1)  // fails here
      .Insert("t", UncertainRow(2));
  const uint64_t epoch_before = a.mutation_epoch();
  auto ra = a.ApplyDelta(batch);
  auto rb = b.ApplyDelta(batch);
  EXPECT_FALSE(ra.ok());
  EXPECT_EQ(ra.status().ToString(), rb.status().ToString());
  // Ops before the failing one stay applied — identically on both
  // replicas (the property WAL replay of a half-applied batch needs) —
  // and the failed batch still counts as a mutation epoch.
  EXPECT_EQ((*a.GetRelation("t"))->NumTuples(), 2u);
  EXPECT_TRUE(DbsExactlyEqual(a, b));
  EXPECT_EQ(a.mutation_epoch(), epoch_before + 1);
}

TEST(ApplyDeltaTest, DirtyTrackingFeedsConfidenceInvalidation) {
  // A delta to one relation must not dirty another; CONF answers track
  // the mutation.
  WsdDb db = TwoColumnDb();
  Schema other({{"x", ValueType::kInt}});
  MAYBMS_EXPECT_OK(db.CreateRelation("u", other));
  DeltaBatch fill;
  fill.Insert("t", UncertainRow(1));
  fill.Insert("u", {CellSpec::Certain(Value::Int(5))});
  MAYBMS_ASSERT_OK(db.ApplyDelta(fill).status());

  DeltaBatch only_t;
  only_t.Insert("t", UncertainRow(2));
  auto effects = db.ApplyDelta(only_t);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->dirty_relations, std::vector<std::string>{"t"});

  auto conf = ConfTable(db, "t");
  MAYBMS_ASSERT_OK(conf.status());
  EXPECT_EQ(conf->NumRows(), 4u);  // {1,2} x {a,b}
}

TEST(SessionDeltaTest, ApplyDeltaLogsOneWalRecordAndRecovers) {
  FaultInjectingEnv env;
  sql::Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(
      s.Execute("CREATE TABLE t (k INT, v STRING)").status());
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  ASSERT_TRUE(s.has_durable_attachment());

  DeltaBatch batch;
  batch.Insert("t", UncertainRow(1)).Insert("t", UncertainRow(2));
  auto effects = s.ApplyDelta(batch);
  MAYBMS_ASSERT_OK(effects.status());
  EXPECT_EQ(effects->tuples_inserted, 2u);
  EXPECT_EQ(s.wal_record_count(), 1u);  // the whole batch is one record

  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].type, wal::RecordType::kDelta);

  // Recovery: a fresh session replays the delta record onto the
  // snapshot and reproduces the identical database.
  sql::Session r;
  r.set_env(&env);
  auto loaded = r.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 1 statement(s)"),
            std::string::npos)
      << loaded->message;
  testing_util::ExpectDbsExactlyEqual(s.db(), r.db());
}

// An in-memory filesystem whose snapshot writes fail while `fail` is
// set; the WAL keeps working.
class FailingSnapshotEnv : public FaultInjectingEnv {
 public:
  bool fail = false;
  int snapshot_writes = 0;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (path == "db.tmp") {
      ++snapshot_writes;
      if (fail) return Status::IOError("injected snapshot write failure");
    }
    return FaultInjectingEnv::NewWritableFile(path, truncate);
  }
};

TEST(SessionDeltaTest, FailedAutoCheckpointIsCountedAndBackedOff) {
  FailingSnapshotEnv env;
  sql::Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(
      s.Execute("SET durability.auto_checkpoint_records = 4").status());
  MAYBMS_ASSERT_OK(s.Execute("CREATE TABLE t (k INT, v STRING)").status());
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  ASSERT_EQ(env.snapshot_writes, 1);

  // Every write is still acknowledged; the failed checkpoint is counted
  // once per threshold crossing (records 4, 8, 12), not retried on every
  // write past the first crossing.
  env.fail = true;
  for (int64_t k = 1; k <= 12; ++k) {
    DeltaBatch batch;
    batch.Insert("t", UncertainRow(k));
    MAYBMS_ASSERT_OK(s.ApplyDelta(batch).status());
    EXPECT_EQ(s.checkpoint_failures(), static_cast<uint64_t>(k / 4))
        << "write " << k;
  }
  EXPECT_EQ(env.snapshot_writes, 1 + 3);
  EXPECT_EQ(s.wal_record_count(), 12u);
  EXPECT_EQ(s.last_checkpoint_error().code(), StatusCode::kIOError);

  // Recovery from the old snapshot plus the whole log is exact.
  {
    sql::Session r;
    r.set_env(&env);
    MAYBMS_ASSERT_OK(r.Execute("LOAD DATABASE 'db'").status());
    testing_util::ExpectDbsExactlyEqual(s.db(), r.db());
  }

  // Once saves work again, the next crossing checkpoints and resets the
  // log; the counter keeps its history.
  env.fail = false;
  for (int64_t k = 13; k <= 16; ++k) {
    DeltaBatch batch;
    batch.Insert("t", UncertainRow(k));
    MAYBMS_ASSERT_OK(s.ApplyDelta(batch).status());
  }
  EXPECT_EQ(env.snapshot_writes, 1 + 3 + 1);
  EXPECT_EQ(s.wal_record_count(), 0u);
  EXPECT_EQ(s.checkpoint_failures(), 3u);
  sql::Session r;
  r.set_env(&env);
  MAYBMS_ASSERT_OK(r.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), r.db());
}

TEST(SessionDeltaTest, UnserializableBatchFailsBeforeApplying) {
  // Under a durable attachment, a batch that cannot reach the WAL must
  // not mutate the database either (log-before-apply).
  FaultInjectingEnv env;
  sql::Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(s.Execute("CREATE TABLE t (k INT, v STRING)").status());
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());

  DeltaBatch batch;
  batch.Insert("t", UncertainRow(1));
  batch.Insert("t", {CellSpec::Pending(), CellSpec::Certain(Value::Int(1))});
  EXPECT_EQ(s.ApplyDelta(batch).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.wal_record_count(), 0u);
  EXPECT_EQ((*s.db().GetRelation("t"))->NumTuples(), 0u);
}

}  // namespace
}  // namespace maybms
