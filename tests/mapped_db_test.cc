// Tests for out-of-core mapped world-set databases: MappedWsdDb opens a
// v3 snapshot as a memory map, prunes relation shards against plan
// predicates via the SDIR directory, and materializes only the touched
// blocks under an LRU resident-byte budget. The core contract checked
// here is differential: a mapped session must answer every query exactly
// like the eagerly loaded database, whatever the cache budget.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "core/builder.h"
#include "core/mapped_db.h"
#include "core/lifted_executor.h"
#include "core/serialize.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

using sql::Session;
using sql::StatementResult;

ExprPtr Col(const std::string& n) { return Expr::Column(n); }
ExprPtr IntLit(int64_t v) { return Expr::Const(Value::Int(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return Expr::Compare(op, std::move(l), std::move(r));
}

// 64 people rows in id order (8 shards of 8) with or-set cells sprinkled
// in, plus a small certain cities relation for joins.
WsdDb BuildShardedDb() {
  WsdDb db;
  db.mutable_options().rows_per_shard = 8;
  EXPECT_TRUE(db.CreateRelation("people", Schema({{"id", ValueType::kInt},
                                                  {"city", ValueType::kString},
                                                  {"bonus", ValueType::kInt}}))
                  .ok());
  const char* cities[] = {"paris", "rome", "oslo", "lima"};
  for (int i = 0; i < 64; ++i) {
    CellSpec city =
        i % 7 == 0
            ? CellSpec::UniformOrSet(
                  {Value::String("paris"), Value::String("rome")})
            : CellSpec::Certain(Value::String(cities[i % 4]));
    CellSpec bonus =
        i % 5 == 0
            ? CellSpec::UniformOrSet({Value::Int(i), Value::Int(i + 100)})
            : CellSpec::Certain(Value::Int(i % 10));
    EXPECT_TRUE(InsertTuple(&db, "people",
                            {CellSpec::Certain(Value::Int(i)),
                             std::move(city), std::move(bonus)})
                    .ok());
  }
  EXPECT_TRUE(db.CreateRelation("cities", Schema({{"name", ValueType::kString},
                                                  {"pop", ValueType::kInt}}))
                  .ok());
  for (const char* c : cities) {
    EXPECT_TRUE(InsertTuple(&db, "cities",
                            {CellSpec::Certain(Value::String(c)),
                             CellSpec::Certain(Value::Int(100))})
                    .ok());
  }
  return db;
}

// This process's own scratch directory: ctest runs this binary twice at
// once (as mapped_db_test and mapped_small_ram), so fixed file names in a
// shared directory would let the two runs overwrite each other's files.
const std::string& TestDir() {
  static const std::string dir = [] {
    std::string d = ::testing::TempDir() + "/mapped_db_test_" +
                    std::to_string(getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

std::string SaveV3(const WsdDb& db, const std::string& name) {
  std::string path = TestDir() + "/" + name;
  Status st = SaveWsdDb(db, path, SnapshotFormat::kBinary);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

// The query corpus every differential test runs: world-set answers,
// confidence aggregates, possible/certain, and a join.
const char* kQueryCorpus[] = {
    "SELECT * FROM people WHERE id >= 56",
    "SELECT bonus FROM people WHERE id >= 40 AND id < 48",
    "SELECT city FROM people WHERE id = 14",
    "POSSIBLE SELECT city FROM people WHERE id < 8",
    "CERTAIN SELECT city FROM people WHERE id < 8",
    "SELECT city, PROB() FROM people WHERE id = 21",
    "SELECT ECOUNT() FROM people WHERE bonus > 50",
    "SELECT ESUM(bonus) FROM people WHERE id < 20",
    "SELECT id FROM people, cities WHERE city = name AND id < 16",
    "SELECT * FROM people WHERE id < 12",
    // Full scans (table-valued so the comparison stays tractable).
    "SELECT ECOUNT() FROM people",
    "POSSIBLE SELECT bonus FROM people",
};

// Asserts two statement results are the same answer: tables compare by
// canonical sorted bag, world-sets by full answer distribution.
void ExpectSameAnswer(const StatementResult& eager,
                      const StatementResult& mapped, const std::string& q) {
  ASSERT_EQ(static_cast<int>(eager.kind), static_cast<int>(mapped.kind)) << q;
  if (eager.kind == StatementResult::Kind::kTable) {
    EXPECT_EQ(testing_util::CanonicalBag(eager.table),
              testing_util::CanonicalBag(mapped.table))
        << q;
    return;
  }
  ASSERT_EQ(eager.kind, StatementResult::Kind::kWorldSet) << q;
  auto we = EnumerateWorlds(eager.world_set, 1u << 14);
  auto wm = EnumerateWorlds(mapped.world_set, 1u << 14);
  ASSERT_TRUE(we.ok() && wm.ok()) << q;
  testing_util::ExpectDistEq(testing_util::RelationDistribution(*we, "result"),
                             testing_util::RelationDistribution(*wm, "result"));
}

TEST(MappedDbTest, OpenRejectsOlderFormats) {
  WsdDb db = BuildShardedDb();
  std::string v2 = TestDir() + "/mapped_reject_v2.wsd";
  MAYBMS_ASSERT_OK(SaveWsdDb(db, v2, SnapshotFormat::kBinaryV2));
  auto r = MappedWsdDb::Open(v2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);

  EXPECT_EQ(MappedWsdDb::Open("/nonexistent/x.wsd").status().code(),
            StatusCode::kNotFound);
}

TEST(MappedDbTest, MaterializeAllEqualsEagerLoad) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_all.wsd");
  auto mapped = MappedWsdDb::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto full = mapped->MaterializeAll();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  testing_util::ExpectDbsExactlyEqual(db, *full);
  // Cache-bypassing: nothing stays resident.
  EXPECT_EQ(mapped->resident_bytes(), 0u);
}

TEST(MappedDbTest, SkeletonHasSchemasButNoData) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_skel.wsd");
  auto mapped = MappedWsdDb::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const WsdDb& skel = mapped->skeleton();
  auto rel = skel.GetRelation("people");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->schema().size(), 3u);
  EXPECT_EQ((*rel)->tuples().size(), 0u);
  EXPECT_EQ(skel.NumLiveComponents(), 0u);
  EXPECT_EQ(mapped->partitions().size(), 2u);  // people + cities
}

TEST(MappedDbTest, SelectivePlanPrunesShards) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_prune.wsd");
  auto mapped = MappedWsdDb::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  // id >= 56 touches only the last of the 8 people shards (and no
  // cities shard — the plan never scans cities).
  auto plan = Plan::Select(Plan::Scan("people"),
                           Cmp(CompareOp::kGe, Col("id"), IntLit(56)));
  auto scratch = mapped->MaterializeForPlan(*plan);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const MaterializeStats& stats = mapped->last_stats();
  EXPECT_EQ(stats.shards_total, 9u);  // 8 people + 1 cities
  EXPECT_EQ(stats.shards_kept, 1u);
  EXPECT_GT(stats.bytes_decoded, 0u);
  EXPECT_LT(stats.bytes_decoded, mapped->snapshot_bytes());

  // The scratch database answers the plan exactly like the full one.
  auto full_ans = ExecuteLifted(plan, db);
  auto scratch_ans = ExecuteLifted(plan, *scratch);
  ASSERT_TRUE(full_ans.ok() && scratch_ans.ok());
  auto we = EnumerateWorlds(*full_ans, 1u << 14);
  auto wm = EnumerateWorlds(*scratch_ans, 1u << 14);
  ASSERT_TRUE(we.ok() && wm.ok());
  testing_util::ExpectDistEq(testing_util::RelationDistribution(*we, "result"),
                             testing_util::RelationDistribution(*wm, "result"));

  // A bare scan keeps all shards of the scanned relation.
  auto scan = Plan::Scan("people");
  ASSERT_TRUE(mapped->MaterializeForPlan(*scan).ok());
  EXPECT_EQ(mapped->last_stats().shards_kept, 8u);
}

TEST(MappedDbTest, ResidentCapBoundsCacheWithoutChangingAnswers) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_cap.wsd");
  MappedDbOptions opts;
  opts.max_resident_bytes = 1024;  // far below the snapshot size
  auto mapped = MappedWsdDb::Open(path, opts);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_GT(mapped->snapshot_bytes(), 4 * opts.max_resident_bytes)
      << "test DB must be much larger than the cache cap";

  std::vector<PlanPtr> plans;
  // Selective plans over disjoint shard ranges, so cycling through them
  // keeps evicting and re-decoding blocks (answers stay enumerable).
  plans.push_back(Plan::Select(Plan::Scan("people"),
                               Cmp(CompareOp::kGe, Col("id"), IntLit(56))));
  plans.push_back(Plan::Select(Plan::Scan("people"),
                               Cmp(CompareOp::kLt, Col("id"), IntLit(8))));
  plans.push_back(Plan::Select(
      Plan::Select(Plan::Scan("people"),
                   Cmp(CompareOp::kGe, Col("id"), IntLit(24))),
      Cmp(CompareOp::kLt, Col("id"), IntLit(40))));
  plans.push_back(Plan::Scan("cities"));
  for (int round = 0; round < 3; ++round) {
    for (const auto& plan : plans) {
      auto scratch = mapped->MaterializeForPlan(*plan);
      ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
      EXPECT_LE(mapped->resident_bytes(), opts.max_resident_bytes);
      auto full_ans = ExecuteLifted(plan, db);
      auto scratch_ans = ExecuteLifted(plan, *scratch);
      ASSERT_TRUE(full_ans.ok() && scratch_ans.ok());
      auto we = EnumerateWorlds(*full_ans, 1u << 14);
      auto wm = EnumerateWorlds(*scratch_ans, 1u << 14);
      ASSERT_TRUE(we.ok() && wm.ok());
      testing_util::ExpectDistEq(
          testing_util::RelationDistribution(*we, "result"),
          testing_util::RelationDistribution(*wm, "result"));
    }
  }
  EXPECT_GE(mapped->peak_resident_bytes(), mapped->resident_bytes());
}

TEST(MappedDbTest, EnvironmentKnobSetsTheCap) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_env.wsd");
  // Restore whatever the harness set afterwards (the mapped_small_ram
  // ctest entry runs this whole binary with the knob engaged).
  const char* prior = getenv("MAYBMS_MAX_RESIDENT_BYTES");
  std::string prior_value = prior ? prior : "";

  ASSERT_EQ(setenv("MAYBMS_MAX_RESIDENT_BYTES", "12345", 1), 0);
  auto mapped = MappedWsdDb::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->max_resident_bytes(), 12345u);
  // An explicit option wins over the environment.
  MappedDbOptions opts;
  opts.max_resident_bytes = 777;
  auto mapped2 = MappedWsdDb::Open(path, opts);
  ASSERT_TRUE(mapped2.ok());
  EXPECT_EQ(mapped2->max_resident_bytes(), 777u);

  if (prior) {
    ASSERT_EQ(setenv("MAYBMS_MAX_RESIDENT_BYTES", prior_value.c_str(), 1), 0);
  } else {
    unsetenv("MAYBMS_MAX_RESIDENT_BYTES");
  }
}

// The headline differential: a mapped SQL session answers the whole
// corpus exactly like an eager session over the same snapshot. The
// `mapped_small_ram` ctest entry reruns this binary with
// MAYBMS_MAX_RESIDENT_BYTES far below the snapshot size, so the same
// corpus is also exercised with constant eviction.
TEST(MappedSqlTest, MappedSessionMatchesEagerOnCorpus) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_corpus.wsd");

  Session eager;
  auto le = eager.Execute("LOAD DATABASE '" + path + "'");
  ASSERT_TRUE(le.ok()) << le.status().ToString();
  Session mapped;
  auto lm = mapped.Execute("LOAD DATABASE '" + path + "' MAPPED");
  ASSERT_TRUE(lm.ok()) << lm.status().ToString();
  EXPECT_NE(lm->message.find("mapped database"), std::string::npos);
  ASSERT_TRUE(mapped.is_mapped());

  for (const char* q : kQueryCorpus) {
    auto re = eager.Execute(q);
    ASSERT_TRUE(re.ok()) << q << ": " << re.status().ToString();
    auto rm = mapped.Execute(q);
    ASSERT_TRUE(rm.ok()) << q << ": " << rm.status().ToString();
    ExpectSameAnswer(*re, *rm, q);
    EXPECT_TRUE(mapped.is_mapped()) << q << " should not force residency";
  }

  // Selective queries really did skip shards.
  auto sel = mapped.Execute("SELECT * FROM people WHERE id >= 56");
  ASSERT_TRUE(sel.ok());
  ASSERT_NE(mapped.mapped_db(), nullptr);
  EXPECT_EQ(mapped.mapped_db()->last_stats().shards_kept, 1u);
}

TEST(MappedSqlTest, CatalogStatementsWorkWhileMapped) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_catalog.wsd");
  Session s;
  ASSERT_TRUE(s.Execute("LOAD DATABASE '" + path + "' MAPPED").ok());

  auto tables = s.Execute("SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  EXPECT_TRUE(s.is_mapped()) << "SHOW TABLES must not force residency";

  auto explain = s.Execute("EXPLAIN SELECT * FROM people WHERE id >= 56");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_TRUE(s.is_mapped()) << "EXPLAIN must not force residency";
}

double Ecount(Session* s, const std::string& where) {
  auto r = s->Execute("SELECT ECOUNT() FROM people" + where);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->table.rows().size() != 1) return -1;
  return r->table.rows()[0][0].as_double();
}

TEST(MappedSqlTest, WritesStayMappedAndPromotionKeepsData) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_mutate.wsd");
  Session s;
  ASSERT_TRUE(s.Execute("LOAD DATABASE '" + path + "' MAPPED").ok());
  ASSERT_TRUE(s.is_mapped());

  // Writes go to the overlay and decode nothing.
  auto ins = s.Execute("INSERT INTO people VALUES (64, 'kyiv', 3)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_TRUE(s.is_mapped()) << "INSERT must stay mapped";
  MAYBMS_ASSERT_OK(s.Execute("DELETE FROM people OLDEST 10").status());
  EXPECT_TRUE(s.is_mapped()) << "DELETE OLDEST must stay mapped";
  EXPECT_NEAR(Ecount(&s, " WHERE id >= 0"), 55.0, 1e-9);
  EXPECT_NEAR(Ecount(&s, " WHERE id < 10"), 0.0, 1e-9);
  EXPECT_NEAR(Ecount(&s, " WHERE id = 64"), 1.0, 1e-9);
  EXPECT_TRUE(s.is_mapped());

  // A statement the overlay cannot hold promotes: the 54 surviving
  // stored tuples plus the inserted one.
  MAYBMS_ASSERT_OK(s.Execute("ENFORCE CHECK (bonus >= 0) ON people").status());
  EXPECT_FALSE(s.is_mapped()) << "ENFORCE must fall back to resident";
  EXPECT_EQ(s.db().GetRelation("people").value()->NumTuples(), 55u);
  EXPECT_NEAR(Ecount(&s, " WHERE id >= 0"), 55.0, 1e-9);
}

// Out-of-core under writes: a durable mapped session takes 1,000
// INSERTs and an automatic checkpoint without decoding a block into the
// cache, and stays mapped. Under mapped_small_ram the cap is 512 bytes.
TEST(MappedSqlTest, ThousandInsertsAndAnAutoCheckpointStayUnderTheCap) {
  FaultInjectingEnv env;
  {
    Session writer(BuildShardedDb());
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    MAYBMS_ASSERT_OK(writer.Execute("SAVE DATABASE 'db'").status());
  }
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.auto_checkpoint_records = 600;
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  const size_t cap = s.mapped_db()->max_resident_bytes();
  size_t peak = 0;
  for (int i = 0; i < 1000; ++i) {
    MAYBMS_ASSERT_OK(
        s.Execute(StrFormat("INSERT INTO people VALUES (%d, {'rome': 0.5, "
                            "'oslo': 0.5}, %d)",
                            100 + i, i % 10))
            .status());
    ASSERT_TRUE(s.is_mapped()) << "insert " << i;
    peak = std::max(peak, s.mapped_db()->peak_resident_bytes());
  }
  EXPECT_LE(peak, cap);
  EXPECT_EQ(peak, 0u) << "an INSERT decoded a block";
  EXPECT_EQ(s.checkpoint_failures(), 0u);
  EXPECT_EQ(s.wal_record_count(), 400u) << "one automatic checkpoint";
  EXPECT_TRUE(s.is_mapped());
  EXPECT_NEAR(Ecount(&s, " WHERE id >= 100"), 1000.0, 1e-9);
  EXPECT_NEAR(Ecount(&s, ""), 1064.0, 1e-9);
  EXPECT_TRUE(s.is_mapped());
}

TEST(MappedSqlTest, EagerLoadDropsMapping) {
  WsdDb db = BuildShardedDb();
  std::string path = SaveV3(db, "mapped_drop.wsd");
  Session s;
  ASSERT_TRUE(s.Execute("LOAD DATABASE '" + path + "' MAPPED").ok());
  ASSERT_TRUE(s.is_mapped());
  ASSERT_TRUE(s.Execute("LOAD DATABASE '" + path + "'").ok());
  EXPECT_FALSE(s.is_mapped());
  auto r = s.Execute("SELECT ECOUNT() FROM people WHERE id >= 0");
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->table.rows()[0][0].as_double(), 64.0, 1e-9);
}

// A one-slot, one-row component owned by `owner`.
Component OneRowComponent(OwnerId owner) {
  Component c;
  c.AddSlot({owner, "spare"}, Value::Null());
  EXPECT_TRUE(c.AddRow({{Value::Int(1)}, 1.0}).ok());
  return c;
}

// `got` must be `want` exactly, allocate the same next component id,
// and — when fully materialized by a load — carry the directory's
// partition as every relation's cached shard partition.
void ExpectSameLoad(const WsdDb& want, const WsdDb& got,
                    const MappedWsdDb* dir, const std::string& how) {
  SCOPED_TRACE(how);
  testing_util::ExpectDbsExactlyEqual(want, got);
  EXPECT_EQ(got.component_slot_count(), want.component_slot_count());
  WsdDb a = want;
  WsdDb b = got;
  EXPECT_EQ(a.AddComponent(OneRowComponent(1)),
            b.AddComponent(OneRowComponent(1)));
  if (dir == nullptr) return;
  size_t r = 0;
  for (const auto& [key, skel] : dir->skeleton().relations()) {
    const ShardPartition& stored = *dir->partitions()[r++];
    auto rel = got.GetRelation(skel.name());
    ASSERT_TRUE(rel.ok()) << skel.name();
    std::shared_ptr<const ShardPartition> cached = (*rel)->cached_shards();
    ASSERT_NE(cached, nullptr) << skel.name();
    EXPECT_EQ(cached->rows_per_shard, stored.rows_per_shard);
    ASSERT_EQ(cached->shards.size(), stored.shards.size()) << skel.name();
    for (size_t s = 0; s < stored.shards.size(); ++s) {
      const ShardInfo& x = cached->shards[s];
      const ShardInfo& y = stored.shards[s];
      EXPECT_EQ(x.row_begin, y.row_begin);
      EXPECT_EQ(x.row_end, y.row_end);
      EXPECT_EQ(x.ref_components, y.ref_components);
      ASSERT_EQ(x.ranges.size(), y.ranges.size());
      for (size_t c = 0; c < y.ranges.size(); ++c) {
        EXPECT_EQ(x.ranges[c].valid, y.ranges[c].valid);
        if (y.ranges[c].valid) {
          EXPECT_EQ(x.ranges[c].lo, y.ranges[c].lo);
          EXPECT_EQ(x.ranges[c].hi, y.ranges[c].hi);
        }
      }
    }
  }
}

// Every v3 load decodes through MappedWsdDb, so all five ways of
// opening one snapshot must land on the same database.
TEST(MappedSqlTest, EveryLoadPathYieldsTheSameDatabase) {
  WsdDb db = BuildShardedDb();
  // A live component no tuple references, and a dead id above every
  // live one: the allocation point lies past the highest stored id.
  db.AddComponent(OneRowComponent(db.NextOwner()));
  db.RemoveComponent(db.AddComponent(OneRowComponent(db.NextOwner())));
  MAYBMS_ASSERT_OK(db.CheckInvariants());
  const std::string stem = "mapped_paths";
  const std::string path = SaveV3(db, stem + ".wsd");
  const std::string copy = TestDir() + "/" + stem + "_copy.wsd";
  auto dir = MappedWsdDb::Open(path);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();

  // 1. LoadWsdDb.
  auto loaded = LoadWsdDb(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameLoad(db, *loaded, &*dir, "LoadWsdDb");

  // 2. ReadWsdDb on a stringstream.
  std::stringstream ss;
  ss << std::ifstream(path, std::ios::binary).rdbuf();
  auto read = ReadWsdDb(ss);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameLoad(db, *read, &*dir, "ReadWsdDb");

  // 3. Durable LOAD DATABASE (attaches an empty log to the snapshot).
  {
    Session durable;
    MAYBMS_ASSERT_OK(durable.Execute("LOAD DATABASE '" + path + "'").status());
    ASSERT_TRUE(durable.has_durable_attachment());
    ExpectSameLoad(db, durable.db(), &*dir, "durable LOAD");
  }

  // 4. LOAD ... MAPPED plus writes, which stay in its overlay, against
  // an eager LOAD plus the same writes: promoted, and after CHECKPOINT
  // and a reload in both modes.
  const std::string insert =
      "INSERT INTO people VALUES (64, {'kyiv': 0.5, 'oslo': 0.5}, 3)";
  const std::vector<std::string> writes = {
      insert, "DELETE FROM people OLDEST 3", "CREATE TABLE notes (k INT)",
      "INSERT INTO notes VALUES ({1: 0.5, 2: 0.5})"};
  Session eager;
  Session promoted;
  for (Session* s : {&eager, &promoted}) {
    s->mutable_options().durability.wal_enabled = false;
  }
  MAYBMS_ASSERT_OK(eager.Execute("LOAD DATABASE '" + path + "'").status());
  MAYBMS_ASSERT_OK(
      promoted.Execute("LOAD DATABASE '" + path + "' MAPPED").status());
  for (const std::string& w : writes) {
    MAYBMS_ASSERT_OK(eager.Execute(w).status());
    MAYBMS_ASSERT_OK(promoted.Execute(w).status());
    ASSERT_TRUE(promoted.is_mapped()) << w;
  }
  // SHOW RELATION promotes.
  MAYBMS_ASSERT_OK(promoted.Execute("SHOW RELATION people").status());
  ASSERT_FALSE(promoted.is_mapped());
  ExpectSameLoad(eager.db(), promoted.db(), nullptr, "MAPPED + writes");

  const std::string ckpt = TestDir() + "/" + stem + "_ckpt.wsd";
  std::filesystem::copy_file(
      path, ckpt, std::filesystem::copy_options::overwrite_existing);
  {
    Session durable;
    MAYBMS_ASSERT_OK(
        durable.Execute("LOAD DATABASE '" + ckpt + "' MAPPED").status());
    for (const std::string& w : writes) {
      MAYBMS_ASSERT_OK(durable.Execute(w).status());
    }
    EXPECT_EQ(durable.wal_record_count(), writes.size());
    MAYBMS_ASSERT_OK(durable.Execute("CHECKPOINT").status());
    EXPECT_TRUE(durable.is_mapped());
    EXPECT_EQ(durable.wal_record_count(), 0u);
  }
  Session reloaded;
  MAYBMS_ASSERT_OK(reloaded.Execute("LOAD DATABASE '" + ckpt + "'").status());
  ExpectSameLoad(eager.db(), reloaded.db(), nullptr, "CHECKPOINT + LOAD");
  auto remapped = MappedWsdDb::Open(ckpt);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  auto remapped_all = remapped->MaterializeAll();
  ASSERT_TRUE(remapped_all.ok()) << remapped_all.status().ToString();
  ExpectSameLoad(eager.db(), *remapped_all, &*remapped,
                 "CHECKPOINT + LOAD MAPPED");

  // 5. LOAD ... MAPPED over a pending log replays it into the overlay and
  // continues the log, against an eager LOAD of a copy of the same
  // snapshot and log.
  {
    Session writer;
    MAYBMS_ASSERT_OK(writer.Execute("LOAD DATABASE '" + path + "'").status());
    MAYBMS_ASSERT_OK(writer.Execute(insert).status());
    MAYBMS_ASSERT_OK(
        writer.Execute("DELETE FROM people OLDEST 3").status());
    EXPECT_EQ(writer.wal_record_count(), 2u);
  }
  for (const std::string& suffix : {std::string(), std::string(".wal")}) {
    std::filesystem::copy_file(
        path + suffix, copy + suffix,
        std::filesystem::copy_options::overwrite_existing);
  }
  Session recovered;
  auto le = recovered.Execute("LOAD DATABASE '" + copy + "'");
  MAYBMS_ASSERT_OK(le.status());
  EXPECT_NE(le->message.find("recovered 2 statement(s)"), std::string::npos);
  Session replayed;
  auto lm = replayed.Execute("LOAD DATABASE '" + path + "' MAPPED");
  MAYBMS_ASSERT_OK(lm.status());
  EXPECT_NE(lm->message.find("recovered 2 statement(s)"), std::string::npos);
  ASSERT_TRUE(replayed.is_mapped());
  EXPECT_EQ(replayed.wal_record_count(), 2u);
  // The snapshot file is the one the log was written against.
  EXPECT_EQ(replayed.mapped_db()->snapshot_bytes(), dir->snapshot_bytes());
  // SHOW RELATION promotes.
  MAYBMS_ASSERT_OK(replayed.Execute("SHOW RELATION people").status());
  ASSERT_FALSE(replayed.is_mapped());
  ExpectSameLoad(recovered.db(), replayed.db(), nullptr,
                 "MAPPED + pending log");
  for (const std::string& p : {path, path + ".wal", copy, copy + ".wal", ckpt,
                               ckpt + ".wal"}) {
    std::filesystem::remove(p);
  }
}

}  // namespace
}  // namespace maybms
