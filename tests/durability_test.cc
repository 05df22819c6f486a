// Session-level durability tests: WAL attachment on SAVE/LOAD, the
// log-before-apply ordering, recovery replay (eager and mapped), the
// replay-failure rules and the legacy statement-log upgrade,
// CHECKPOINT and the auto-checkpoint threshold, stale-log discard, and
// clean failure of LOAD DATABASE ... MAPPED / EnsureResident under
// injected I/O faults. Everything runs on the FaultInjectingEnv, so no
// real files are touched.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/delta.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace maybms {
namespace sql {
namespace {

// A small uncertain database built through the query language.
void Populate(Session* s) {
  MAYBMS_ASSERT_OK(
      s->ExecuteScript("CREATE TABLE t (x INT, w DOUBLE);"
                       "INSERT INTO t VALUES ({1: 0.25, 2: 0.75}, 1.5);"
                       "INSERT INTO t VALUES (3, 2.0);")
          .status());
}

TEST(DurabilityTest, SaveAttachesWalAndLogsMutations) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  EXPECT_FALSE(s.has_durable_attachment());

  auto saved = s.Execute("SAVE DATABASE 'db'");
  MAYBMS_ASSERT_OK(saved.status());
  EXPECT_NE(saved->message.find("logging to 'db.wal'"), std::string::npos);
  ASSERT_TRUE(s.has_durable_attachment());
  EXPECT_EQ(s.attached_path(), "db");
  EXPECT_EQ(s.wal_record_count(), 0u);
  EXPECT_TRUE(env.FileExists("db.wal"));

  MAYBMS_ASSERT_OK(
      s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  // SELECTs are not logged.
  MAYBMS_ASSERT_OK(s.Execute("SELECT x FROM t").status());
  EXPECT_EQ(s.wal_record_count(), 1u);

  // The statement reached the log as its delta batch, not as SQL text.
  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].type, wal::RecordType::kDelta);
  auto batch = DeltaBatch::Deserialize(contents->records[0].payload);
  MAYBMS_ASSERT_OK(batch.status());
  EXPECT_EQ(batch->ToString(), "insert t (2 cells)\n");
}

TEST(DurabilityTest, WalDisabledNeverAttaches) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.wal_enabled = false;
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  EXPECT_FALSE(s.has_durable_attachment());
  EXPECT_FALSE(env.FileExists("db.wal"));
  // CHECKPOINT without an attachment is a clean user error.
  EXPECT_EQ(s.Execute("CHECKPOINT").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DurabilityTest, EagerLoadReplaysPendingLog) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(
      a.Execute("INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0)").status());
  // REPAIR KEY introduces fresh components on replay, so it exercises
  // the component-id allocation determinism (key columns must be
  // certain, hence the side table).
  MAYBMS_ASSERT_OK(
      a.ExecuteScript("CREATE TABLE d (x INT, w DOUBLE);"
                      "INSERT INTO d VALUES (1, 1.0), (1, 3.0);")
          .status());
  MAYBMS_ASSERT_OK(a.Execute("REPAIR KEY (x) IN d WEIGHT BY w").status());
  EXPECT_EQ(a.wal_record_count(), 4u);

  // The session dies here (simply dropped); a fresh one recovers from
  // snapshot + log and must land on the exact same database.
  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 4 statement(s)"),
            std::string::npos);
  testing_util::ExpectDbsExactlyEqual(a.db(), b.db());
  // The recovered session continues the same log.
  ASSERT_TRUE(b.has_durable_attachment());
  EXPECT_EQ(b.wal_record_count(), 4u);
  MAYBMS_ASSERT_OK(b.Execute("INSERT INTO t VALUES (9, 1.0)").status());
  EXPECT_EQ(b.wal_record_count(), 5u);
}

TEST(DurabilityTest, MappedLoadReplaysLogIntoOverlayThenCheckpointsClean) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(a.Execute("INSERT INTO t VALUES (8, 0.5)").status());
  const WsdDb expected = a.db();

  // The pending insert replays into the mapped session's write overlay;
  // the log continues as after an eager load.
  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db' MAPPED");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 1 statement(s)"),
            std::string::npos);
  EXPECT_TRUE(b.is_mapped());
  EXPECT_EQ(b.wal_record_count(), 1u);
  auto prob_b = b.Execute("SELECT x, PROB() FROM t WHERE x = 1");
  MAYBMS_ASSERT_OK(prob_b.status());
  ASSERT_EQ(prob_b->table.NumRows(), 1u);
  EXPECT_NEAR(prob_b->table.row(0)[1].as_double(), 0.25, 1e-9);
  auto count_b = b.Execute("SELECT ECOUNT() FROM t WHERE x = 8");
  MAYBMS_ASSERT_OK(count_b.status());
  EXPECT_NEAR(count_b->table.row(0)[0].as_double(), 1.0, 1e-9);

  // CHECKPOINT folds the overlay into a new snapshot and maps that.
  MAYBMS_ASSERT_OK(b.Execute("CHECKPOINT").status());
  EXPECT_TRUE(b.is_mapped());
  EXPECT_EQ(b.wal_record_count(), 0u);

  // An eager load of the rewritten snapshot sees the recovered state
  // directly, with nothing left to replay.
  Session c;
  c.set_env(&env);
  auto again = c.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(again.status());
  EXPECT_EQ(again->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(expected, c.db());
}

TEST(DurabilityTest, MappedLoadPromotesAtALogRecordTheOverlayCannotHold) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(
      a.ExecuteScript("INSERT INTO t VALUES (8, 0.5);"
                      "ENFORCE CHECK (x >= 2) ON t;"
                      "INSERT INTO t VALUES (9, 0.5);")
          .status());

  // The ENFORCE record promotes, as the live statement did; the log is
  // continued, so the recovered session matches the live one.
  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db' MAPPED");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 3 statement(s)"),
            std::string::npos);
  EXPECT_FALSE(b.is_mapped());
  EXPECT_EQ(b.wal_record_count(), 3u);
  testing_util::ExpectDbsExactlyEqual(a.db(), b.db());
}

TEST(DurabilityTest, CheckpointFoldsLogIntoSnapshot) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  auto cp = s.Execute("CHECKPOINT");
  MAYBMS_ASSERT_OK(cp.status());
  EXPECT_NE(cp->message.find("checkpointed"), std::string::npos);
  EXPECT_EQ(s.wal_record_count(), 0u);

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, AutoCheckpointKeepsTheLogShort) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.auto_checkpoint_records = 2;
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 1u);
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (8, 1.0)").status());
  EXPECT_EQ(s.wal_record_count(), 0u);  // threshold hit, log folded

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, StreamPastTheGapBudgetCheckpointsAndReloads) {
  // A long sliding-window stream: more component ids than the loaders'
  // gap budget have come and gone. Checkpoints and reloads (eager and
  // mapped) still work and resume allocation at the same id.
  FaultInjectingEnv env;
  WsdDb churned;
  MAYBMS_ASSERT_OK(churned.CreateRelation(
      "t", Schema({{"x", ValueType::kInt}, {"w", ValueType::kDouble}})));
  for (size_t i = 0; i < (size_t{1} << 20) + 64; ++i) {
    churned.RemoveComponent(churned.AddComponent({}));
  }
  Session s(std::move(churned));
  s.set_env(&env);
  MAYBMS_ASSERT_OK(
      s.ExecuteScript("INSERT INTO t VALUES ({1: 0.25, 2: 0.75}, 1.5);"
                      "SAVE DATABASE 'db';"
                      "INSERT INTO t VALUES ({3: 0.5, 4: 0.5}, 2.0);"
                      "DELETE FROM t OLDEST 1;"
                      "CHECKPOINT;"
                      "INSERT INTO t VALUES ({5: 0.5, 6: 0.5}, 2.5);"
                      "DELETE FROM t OLDEST 1;")
          .status());
  EXPECT_EQ(s.wal_record_count(), 2u);
  EXPECT_GT(s.db().LiveComponents().front(), size_t{1} << 20);

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
  EXPECT_EQ(b.db().component_slot_count(), s.db().component_slot_count());

  // The mapped load replays the log into its overlay, and a write stays
  // mapped; promoting folds both in and allocates where the eager
  // session does.
  const std::string write = "INSERT INTO t VALUES ({7: 0.5, 8: 0.5}, 3.0)";
  Session m;
  m.set_env(&env);
  MAYBMS_ASSERT_OK(m.Execute("LOAD DATABASE 'db' MAPPED").status());
  MAYBMS_ASSERT_OK(m.Execute(write).status());
  EXPECT_TRUE(m.is_mapped());
  // SHOW RELATION promotes.
  MAYBMS_ASSERT_OK(m.Execute("SHOW RELATION t").status());
  ASSERT_FALSE(m.is_mapped());
  Session ref{WsdDb(s.db())};
  MAYBMS_ASSERT_OK(ref.Execute(write).status());
  testing_util::ExpectDbsExactlyEqual(ref.db(), m.db());
  EXPECT_EQ(m.db().component_slot_count(), ref.db().component_slot_count());
}

TEST(DurabilityTest, StaleLogFromOlderSnapshotIsDiscarded) {
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(a.Execute("INSERT INTO t VALUES (7, 1.0)").status());

  // Behind the session's back, a different database replaces the
  // snapshot: the leftover log belongs to the old generation and its
  // fingerprint no longer matches.
  Session other;
  other.set_env(&env);
  MAYBMS_ASSERT_OK(
      other.Execute("CREATE TABLE u (y STRING)").status());
  other.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(other.Execute("SAVE DATABASE 'db'").status());

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(other.db(), b.db());
  EXPECT_FALSE(b.db().HasRelation("t"));
}

TEST(DurabilityTest, LogBeforeApplyFailedAppendLeavesMemoryUntouched) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  const WsdDb before = s.db();
  env.Crash();
  // The WAL append fails, so the statement must fail *without* applying:
  // an acked-but-unlogged mutation would be lost on recovery.
  auto r = s.Execute("INSERT INTO t VALUES (7, 1.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(testing_util::DbsExactlyEqual(before, s.db()));
  Rng rng(1);
  env.Recover(&rng);
}

TEST(DurabilityTest, HandBuiltStatementLogsAndRecovers) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  // A statement built without the parser logs like any other: the log
  // holds the delta it applies, not the statement's text.
  Statement stmt;
  stmt.kind = Statement::Kind::kDropTable;
  stmt.drop_table = DropTableStmt{};
  stmt.drop_table->name = "t";
  MAYBMS_ASSERT_OK(s.ExecuteParsed(stmt).status());
  EXPECT_FALSE(s.db().HasRelation("t"));
  EXPECT_EQ(s.wal_record_count(), 1u);

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  EXPECT_FALSE(b.db().HasRelation("t"));
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, LogRecoversIdenticallyUnderDefaultSettings) {
  // Settings are session-local and never logged; replay applies the
  // logged deltas, so a recovering session with default settings must
  // land on the byte-identical database.
  FaultInjectingEnv env;
  Session a;
  a.set_env(&env);
  MAYBMS_ASSERT_OK(
      a.ExecuteScript("SET optimizer.enable = false;"
                      "SET conf.num_threads = 3;"
                      "SET exec.num_threads = 2;"
                      "SET approx.num_threads = 2;"
                      "SET approx.seed = 99;"
                      "SET materialize_conf = false;")
          .status());
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  // Every logged op kind, and a CHECK using every expression kind.
  MAYBMS_ASSERT_OK(
      a.ExecuteScript("CREATE TABLE d (x INT, w DOUBLE);"
                      "INSERT INTO d VALUES (1, 1.0), (1, 3.0), (2, 1.0);"
                      "REPAIR KEY (x) IN d WEIGHT BY w;"
                      "INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0);"
                      "ENFORCE CHECK (x * 2 <> 10 AND NOT (w IS NULL) "
                      "OR x IN (1, 2)) ON t;"
                      "ENFORCE KEY (x) ON d;"
                      "DELETE FROM t OLDEST 1;"
                      "CREATE TABLE gone (y STRING);"
                      "DROP TABLE gone;")
          .status());
  EXPECT_EQ(a.wal_record_count(), 9u);

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(a.db(), b.db());
}

// Appends one raw record to the log of snapshot 'db', as a writer that
// crashed (or an older build) would have left it.
void AppendRawRecord(Env* env, wal::RecordType type,
                     const std::string& payload) {
  auto contents = wal::ReadWal(env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  auto writer = wal::WalWriter::OpenForAppend(env, "db.wal", *contents);
  MAYBMS_ASSERT_OK(writer.status());
  MAYBMS_ASSERT_OK(writer->Append(type, payload).status());
}

std::string SerializedBatch(const DeltaBatch& batch) {
  auto payload = batch.Serialize();
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return payload.ok() ? *payload : std::string();
}

// A saved 't' plus one logged INSERT (LSN 1).
void SaveWithOneLoggedInsert(Env* env) {
  Session a;
  a.set_env(env);
  Populate(&a);
  MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  MAYBMS_ASSERT_OK(a.Execute("INSERT INTO t VALUES (7, 1.0)").status());
}

// LOAD (eager and mapped) of a log that must be refused: fails naming
// `lsn` and leaves the loading session's catalog as it was.
void ExpectLoadRefused(Env* env, uint64_t lsn) {
  const std::string at_lsn =
      StrFormat("LSN %llu", static_cast<unsigned long long>(lsn));
  for (const char* load : {"LOAD DATABASE 'db'", "LOAD DATABASE 'db' MAPPED"}) {
    Session b;
    b.set_env(env);
    MAYBMS_ASSERT_OK(b.Execute("CREATE TABLE keepme (x INT)").status());
    const WsdDb before = b.db();
    auto loaded = b.Execute(load);
    ASSERT_FALSE(loaded.ok()) << load;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << load;
    EXPECT_NE(loaded.status().message().find(at_lsn), std::string::npos)
        << load << ": " << loaded.status().ToString();
    EXPECT_TRUE(testing_util::DbsExactlyEqual(before, b.db())) << load;
    EXPECT_FALSE(b.is_mapped());
    EXPECT_FALSE(b.has_durable_attachment());
  }
}

TEST(DurabilityTest, UndecodableRecordFailsLoadNamingItsLsn) {
  FaultInjectingEnv env;
  SaveWithOneLoggedInsert(&env);
  // Checksum-valid framing around a payload that is no delta batch.
  AppendRawRecord(&env, wal::RecordType::kDelta, "not a delta batch");
  ExpectLoadRefused(&env, 2);
}

TEST(DurabilityTest, FailingRecordInsideTheLogFailsLoadNamingItsLsn) {
  FaultInjectingEnv env;
  SaveWithOneLoggedInsert(&env);
  DeltaBatch missing;
  missing.Insert("nope", {CellSpec::Certain(Value::Int(1))});
  AppendRawRecord(&env, wal::RecordType::kDelta, SerializedBatch(missing));
  DeltaBatch fine;
  fine.EvictOldest("t", 1);
  AppendRawRecord(&env, wal::RecordType::kDelta, SerializedBatch(fine));
  ExpectLoadRefused(&env, 2);
}

TEST(DurabilityTest, FailingLastRecordKeepsItsPartialEffectAndIsFolded) {
  // The one place a failing record can survive: a crash between its
  // append and the checkpoint that follows a failed apply.
  FaultInjectingEnv env;
  SaveWithOneLoggedInsert(&env);
  DeltaBatch half;
  half.Insert("t", {CellSpec::Certain(Value::Int(8)),
                    CellSpec::Certain(Value::Double(1.0))})
      .Insert("nope", {CellSpec::Certain(Value::Int(1))});
  AppendRawRecord(&env, wal::RecordType::kDelta, SerializedBatch(half));

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 2 statement(s)"),
            std::string::npos);
  EXPECT_EQ((*b.db().GetRelation("t"))->NumTuples(), 4u);  // 2 + 7 + 8
  // Folded at once, so the next record cannot land behind it.
  EXPECT_EQ(b.wal_record_count(), 0u);
  MAYBMS_ASSERT_OK(b.Execute("INSERT INTO t VALUES (9, 1.0)").status());

  Session c;
  c.set_env(&env);
  MAYBMS_ASSERT_OK(c.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(b.db(), c.db());
}

TEST(DurabilityTest, InsertFailingOnItsSecondRowIsCheckpointedAtOnce) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  // Row 1 applies, row 2 is a type error: the logged batch half-applies.
  auto r = s.Execute("INSERT INTO t VALUES (7, 1.0), ('seven', 1.0)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ((*s.db().GetRelation("t"))->NumTuples(), 3u);
  EXPECT_EQ(s.wal_record_count(), 0u);

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->message.find("recovered"), std::string::npos);
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, FailedCheckpointAfterFailedApplyDetachesTheLog) {
  FaultInjectingEnv env;
  Session s;
  s.set_env(&env);
  Populate(&s);
  MAYBMS_ASSERT_OK(s.Execute("SAVE DATABASE 'db'").status());
  // How many I/O operations one logged append takes.
  const uint64_t before = env.op_count();
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  const uint64_t append_ops = env.op_count() - before;

  // Fail the first operation after the next append: the checkpoint that
  // must fold the half-applied batch away.
  FaultPlan plan;
  plan.fail_at_op = static_cast<int64_t>(env.op_count() + append_ops);
  env.set_plan(plan);
  EXPECT_FALSE(s.Execute("INSERT INTO t VALUES (8, 1.0), ('x', 1.0)").ok());
  env.set_plan(FaultPlan{});
  EXPECT_TRUE(s.has_durable_attachment());
  // Nothing more is acknowledged until a checkpoint succeeds.
  const WsdDb detached = s.db();
  EXPECT_EQ(s.Execute("INSERT INTO t VALUES (9, 1.0)").status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(testing_util::DbsExactlyEqual(detached, s.db()));
  MAYBMS_ASSERT_OK(s.Execute("CHECKPOINT").status());
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (9, 1.0)").status());

  Session b;
  b.set_env(&env);
  MAYBMS_ASSERT_OK(b.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(s.db(), b.db());
}

TEST(DurabilityTest, LegacyStatementLogIsReplayedOnceAndCheckpointed) {
  // Older builds logged SQL text (kStatement), including statements that
  // then failed; LOAD replays such a log once, tolerating those
  // failures, and folds it into the snapshot.
  FaultInjectingEnv env;
  {
    Session a;
    a.set_env(&env);
    Populate(&a);
    MAYBMS_ASSERT_OK(a.Execute("SAVE DATABASE 'db'").status());
  }
  const std::vector<std::string> legacy = {
      "INSERT INTO t VALUES (7, 1.0)",
      "INSERT INTO nope VALUES (1)",  // failed when first executed
      "ENFORCE CHECK (x < 7) ON t",
  };
  for (const std::string& sql : legacy) {
    AppendRawRecord(&env, wal::RecordType::kStatement, sql);
  }
  DeltaBatch evict;
  evict.EvictOldest("t", 1);
  AppendRawRecord(&env, wal::RecordType::kDelta, SerializedBatch(evict));

  // The expected state: the same mutations on a non-durable session.
  Session expected;
  Populate(&expected);
  for (const std::string& sql : legacy) (void)expected.Execute(sql);
  MAYBMS_ASSERT_OK(expected.ApplyDelta(evict).status());

  Session b;
  b.set_env(&env);
  auto loaded = b.Execute("LOAD DATABASE 'db'");
  MAYBMS_ASSERT_OK(loaded.status());
  EXPECT_NE(loaded->message.find("recovered 4 statement(s)"),
            std::string::npos);
  testing_util::ExpectDbsExactlyEqual(expected.db(), b.db());
  EXPECT_EQ(b.wal_record_count(), 0u);
  auto contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  EXPECT_TRUE(contents->records.empty());

  // New mutations log as deltas only; a reload needs no upgrade.
  MAYBMS_ASSERT_OK(b.Execute("INSERT INTO t VALUES (1, 1.0)").status());
  contents = wal::ReadWal(&env, "db.wal");
  MAYBMS_ASSERT_OK(contents.status());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].type, wal::RecordType::kDelta);
  Session c;
  c.set_env(&env);
  MAYBMS_ASSERT_OK(c.Execute("LOAD DATABASE 'db'").status());
  testing_util::ExpectDbsExactlyEqual(b.db(), c.db());
}

// Satellite: LOAD DATABASE ... MAPPED under injected I/O failures must
// fail cleanly and leave the session's catalog untouched.
TEST(DurabilityTest, MappedLoadFailureLeavesCatalogUnchanged) {
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    Populate(&writer);
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  Session s;
  s.set_env(&env);
  MAYBMS_ASSERT_OK(s.Execute("CREATE TABLE keepme (x INT)").status());

  // Missing file.
  EXPECT_EQ(s.Execute("LOAD DATABASE 'absent' MAPPED").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(s.db().HasRelation("keepme"));
  EXPECT_FALSE(s.is_mapped());

  // Hard I/O fault on the very next operation (the map itself).
  FaultPlan plan;
  plan.fail_at_op = env.op_count();
  env.set_plan(plan);
  auto r = s.Execute("LOAD DATABASE 'db' MAPPED");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(s.db().HasRelation("keepme"));
  EXPECT_FALSE(s.is_mapped());

  // With the fault cleared the same load succeeds.
  env.set_plan(FaultPlan{});
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  EXPECT_TRUE(s.is_mapped());
}

// Satellite: EnsureResident hitting a lazily-verified corrupt shard must
// fail the statement cleanly, keeping the mapped skeleton serviceable.
TEST(DurabilityTest, EnsureResidentSurfacesCorruptShardCleanly) {
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    Populate(&writer);
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  // Flip a byte inside the relation payload (the section just before the
  // 20-byte END trailer): the mapped open verifies only the eager head,
  // so the damage surfaces at materialization time.
  auto size = env.FileSize("db");
  MAYBMS_ASSERT_OK(size.status());
  MAYBMS_ASSERT_OK(env.MutateFileByte("db", *size - 21));

  Session s;
  s.set_env(&env);
  s.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  ASSERT_TRUE(s.is_mapped());
  // An INSERT goes to the write overlay and decodes nothing.
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (7, 1.0)").status());
  EXPECT_TRUE(s.is_mapped());
  // ENFORCE forces residency; materialization hits the bad checksum.
  auto r = s.Execute("ENFORCE CHECK (x >= 0) ON t");
  EXPECT_FALSE(r.ok());
  // Clean failure: still mapped, catalog and overlay intact.
  EXPECT_TRUE(s.is_mapped());
  EXPECT_TRUE(s.db().HasRelation("t"));
  EXPECT_EQ(s.db().GetRelation("t").value()->NumTuples(), 1u);
}

}  // namespace
}  // namespace sql
}  // namespace maybms
