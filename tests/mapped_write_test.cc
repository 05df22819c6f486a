// Differential test of writes to a MAPPED database. A mapped session
// keeps INSERT, DELETE ... OLDEST and CREATE TABLE in a write overlay on
// top of the snapshot instead of decoding the snapshot whole. Driven by
// the same random statements as an eagerly loaded session, with
// durability on and off, it must give identical rendered answers to the
// census read family after every statement, and exactly the same
// database after a promoting statement and after CHECKPOINT + reload.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/builder.h"
#include "gen/census.h"
#include "gen/noise.h"
#include "sql/session.h"
#include "storage/catalog.h"
#include "storage/io_env.h"
#include "tests/test_util.h"

namespace maybms {
namespace sql {
namespace {

constexpr size_t kRecords = 200;
constexpr size_t kAge = 1, kMarst = 3;  // census columns made or-sets

// A small cleaned census (the paper's constraints C1-C4) with or-set
// noise, in shards of 16 rows so evictions retire whole and partial
// shards.
WsdDb BuildCensus() {
  Catalog cat;
  EXPECT_TRUE(cat.Create(GenerateCensus({kRecords, 3})).ok());
  EXPECT_TRUE(cat.Create(GenerateStates()).ok());
  WsdDb db = FromCatalog(cat);
  NoiseOptions noise;
  noise.cell_fraction = 0.01;
  noise.wild_fraction = 0.15;
  noise.seed = 17;
  EXPECT_TRUE(ApplyOrSetNoise(&db, "census", noise).ok());
  db.mutable_options().rows_per_shard = 16;
  Session s(std::move(db));
  s.mutable_options().durability.wal_enabled = false;
  for (const char* c : {"ENFORCE CHECK (AGE >= 0 AND AGE <= 90) ON census",
                        "ENFORCE CHECK (MARST <> 1 OR AGE >= 15) ON census",
                        "ENFORCE CHECK (INCTOT >= 0) ON census",
                        "ENFORCE KEY (PERNUM) ON census"}) {
    EXPECT_TRUE(s.Execute(c).ok()) << c;
  }
  return std::move(s.db());
}

// The census read family (selection, conjunctive selection, projection,
// census JOIN states, DISTINCT, the world-set UNION, ESUM, a full-scan
// ECOUNT) over a stored range, a range the evictions reach first, and
// the inserted rows; plus every table made after the load.
std::vector<std::string> ReadCorpus(const std::vector<std::string>& notes) {
  std::vector<std::string> q;
  // The inserted range stays narrow: DISTINCT ... PROB() over n rows
  // with independent or-sets enumerates exponentially many states.
  for (auto [lo, hi] : {std::pair{1, 40}, std::pair{120, 160},
                        std::pair{1000, 1012}}) {
    const std::string range =
        StrFormat("PERNUM >= %d AND PERNUM < %d", lo, hi);
    q.push_back("SELECT AGE, PROB() FROM census WHERE " + range +
                " AND AGE >= 30");
    q.push_back(StrFormat("SELECT MARST, PROB() FROM census WHERE PERNUM = %d",
                          lo + 3));
    q.push_back("POSSIBLE SELECT PERNUM, AGE FROM census WHERE " + range +
                " AND SEX = 1 AND AGE < 45");
    q.push_back("SELECT STATEFIP, PROB() FROM census WHERE " + range +
                " AND INCTOT > 20000");
    q.push_back(StrFormat(
        "CERTAIN SELECT c.PERNUM, s.NAME FROM census c, states s WHERE "
        "c.STATEFIP = s.STATEFIP AND s.REGION = 'West' AND c.PERNUM >= %d "
        "AND c.PERNUM < %d",
        lo, hi));
    q.push_back("SELECT DISTINCT MARST, PROB() FROM census WHERE " + range +
                " AND AGE > 18");
    q.push_back("SELECT PERNUM FROM census WHERE " + range +
                " AND VETSTAT = 1 UNION SELECT PERNUM FROM census WHERE " +
                range + " AND FARM = 1");
    q.push_back("SELECT ESUM(INCTOT) FROM census WHERE " + range);
  }
  q.push_back("SELECT ECOUNT() FROM census WHERE AGE > 30");
  q.push_back("SELECT NAME FROM states WHERE REGION = 'South'");
  for (const std::string& t : notes) q.push_back("SELECT * FROM " + t);
  return q;
}

std::string Render(const Result<StatementResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  return r->ToDisplayString(size_t{1} << 30);
}

// A statement's rendered outcome on both sessions must be the same. The
// one difference allowed is how many components a DELETE reports
// collected: a mapped session collects those of evicted stored rows
// only when it folds its overlay.
void ExpectSameOutcome(Session* eager, Session* mapped, const std::string& q) {
  std::string e = Render(eager->Execute(q));
  std::string m = Render(mapped->Execute(q));
  if (StartsWith(q, "DELETE") && StartsWith(e, "evicted")) {
    e = e.substr(0, e.find(" ("));
    m = m.substr(0, m.find(" ("));
  }
  EXPECT_EQ(e, m) << q;
}

// Random INSERT (one or several census rows with two or-set cells, or a
// row into a table made after the load), DELETE ... OLDEST across the
// stored/inserted boundary, CREATE TABLE, and now and then a multi-row
// INSERT that fails half-way.
class WriteDeck {
 public:
  explicit WriteDeck(uint64_t seed)
      : rng_(seed), pool_(GenerateCensus({64, seed + 7})) {}

  std::string Next() {
    const uint64_t r = rng_.NextBelow(100);
    if (r < 40) {
      std::string sql = "INSERT INTO census VALUES " + Row();
      for (uint64_t extra = rng_.NextBelow(3); extra > 0; --extra) {
        sql += ", " + Row();
      }
      return sql;
    }
    if (r < 72) {
      return StrFormat("DELETE FROM census OLDEST %llu",
                       static_cast<unsigned long long>(1 + rng_.NextBelow(60)));
    }
    if (r < 76) return "DELETE FROM states OLDEST 1";
    if (r < 82 || notes_.empty()) {
      notes_.push_back(StrFormat("notes%zu", notes_.size()));
      return "CREATE TABLE " + notes_.back() + " (k INT, v STRING)";
    }
    const std::string& t = notes_[rng_.NextBelow(notes_.size())];
    if (r < 92) {
      return StrFormat("INSERT INTO %s VALUES (%d, {'a': 0.25, 'b': 0.75})",
                       t.c_str(), static_cast<int>(rng_.NextBelow(100)));
    }
    if (r < 97) return "DELETE FROM " + t + " OLDEST 1";
    // The second row has the wrong arity: the first stays inserted.
    return "INSERT INTO census VALUES " + Row() + ", (1, 2)";
  }

  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::string Row() {
    const Tuple& row = pool_.row(rng_.NextBelow(pool_.NumRows()));
    std::string sql = "(";
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) sql += ", ";
      const long long v = row[c].as_int();
      if (c == 0) {
        sql += std::to_string(1000 + next_pernum_++);
      } else if (c == kAge) {
        sql += StrFormat("{%lld: 0.7, %lld: 0.3}", v, v < 90 ? v + 1 : v - 1);
      } else if (c == kMarst) {
        sql += StrFormat("{%lld: 0.6, %lld: 0.4}", v, (v + 1) % 6);
      } else {
        sql += std::to_string(v);
      }
    }
    return sql + ")";
  }

  Rng rng_;
  Relation pool_;
  int next_pernum_ = 0;
  std::vector<std::string> notes_;
};

void ExpectSameDb(const WsdDb& want, const WsdDb& got, const char* how) {
  SCOPED_TRACE(how);
  testing_util::ExpectDbsExactlyEqual(want, got);
  EXPECT_EQ(got.component_slot_count(), want.component_slot_count());
  EXPECT_EQ(got.owner_counter(), want.owner_counter());
}

Session MakeSession(Env* env, bool durable) {
  Session s;
  s.set_env(env);
  s.mutable_options().durability.wal_enabled = durable;
  // Checkpoints happen only where the test asks for them.
  s.mutable_options().durability.auto_checkpoint_records = 0;
  return s;
}

void RunDifferential(bool durable, uint64_t seed) {
  SCOPED_TRACE(durable ? "durable" : "not durable");
  FaultInjectingEnv env;
  {
    Session writer(BuildCensus());
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    ASSERT_TRUE(writer.Execute("SAVE DATABASE 'eager'").ok());
    ASSERT_TRUE(writer.Execute("SAVE DATABASE 'mapped'").ok());
  }
  Session eager = MakeSession(&env, durable);
  Session mapped = MakeSession(&env, durable);
  MAYBMS_ASSERT_OK(eager.Execute("LOAD DATABASE 'eager'").status());
  MAYBMS_ASSERT_OK(mapped.Execute("LOAD DATABASE 'mapped' MAPPED").status());
  ASSERT_TRUE(mapped.is_mapped());

  WriteDeck deck(seed);
  for (int phase = 0; phase < 3; ++phase) {
    SCOPED_TRACE(StrFormat("phase %d", phase));
    for (int i = 0; i < 14; ++i) {
      const std::string w = deck.Next();
      ExpectSameOutcome(&eager, &mapped, w);
      ASSERT_TRUE(mapped.is_mapped()) << w;
      for (const std::string& q : ReadCorpus(deck.notes())) {
        ExpectSameOutcome(&eager, &mapped, q);
      }
      ExpectSameOutcome(&eager, &mapped, "SHOW TABLES");
      ASSERT_TRUE(mapped.is_mapped());
      if (::testing::Test::HasFailure()) return;
    }
    if (durable) {
      // CHECKPOINT folds the overlay into a new file and maps it; both
      // kinds of reload of that file land on the eager database.
      MAYBMS_ASSERT_OK(mapped.Execute("CHECKPOINT").status());
      ASSERT_TRUE(mapped.is_mapped());
      EXPECT_EQ(mapped.wal_record_count(), 0u);
      MAYBMS_ASSERT_OK(eager.Execute("CHECKPOINT").status());
      Session reloaded = MakeSession(&env, false);
      MAYBMS_ASSERT_OK(reloaded.Execute("LOAD DATABASE 'mapped'").status());
      ExpectSameDb(eager.db(), reloaded.db(), "CHECKPOINT + LOAD");
      Session remapped = MakeSession(&env, false);
      MAYBMS_ASSERT_OK(
          remapped.Execute("LOAD DATABASE 'mapped' MAPPED").status());
      MAYBMS_ASSERT_OK(remapped.Execute("SHOW RELATION states").status());
      ExpectSameDb(eager.db(), remapped.db(), "CHECKPOINT + LOAD MAPPED");
    }
    // A write the overlay cannot hold promotes: the fold must equal the
    // eager database.
    const std::string enforce =
        "ENFORCE CHECK (AGE >= 0 AND AGE <= 90) ON census";
    ExpectSameOutcome(&eager, &mapped, enforce);
    ASSERT_FALSE(mapped.is_mapped());
    ExpectSameDb(eager.db(), mapped.db(), "promoted");
    // Continue from a fresh MAPPED load of the promoted database.
    MAYBMS_ASSERT_OK(
        mapped.Execute(durable ? "CHECKPOINT" : "SAVE DATABASE 'mapped'")
            .status());
    mapped = MakeSession(&env, durable);
    MAYBMS_ASSERT_OK(
        mapped.Execute("LOAD DATABASE 'mapped' MAPPED").status());
    ASSERT_TRUE(mapped.is_mapped());
  }
}

TEST(MappedWriteTest, NonDurableMappedWritesAnswerLikeEager) {
  RunDifferential(/*durable=*/false, /*seed=*/11);
}

TEST(MappedWriteTest, DurableMappedWritesAnswerLikeEager) {
  RunDifferential(/*durable=*/true, /*seed=*/31);
}

TEST(MappedWriteTest, MappedRecoveryReplaysIntoTheOverlay) {
  // Writes logged by a mapped session recover, eagerly and mapped, to
  // the database the live session answered from.
  FaultInjectingEnv env;
  {
    Session writer(BuildCensus());
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    ASSERT_TRUE(writer.Execute("SAVE DATABASE 'db'").ok());
    ASSERT_TRUE(writer.Execute("SAVE DATABASE 'ref'").ok());
  }
  Session live = MakeSession(&env, true);
  Session ref = MakeSession(&env, false);
  MAYBMS_ASSERT_OK(live.Execute("LOAD DATABASE 'db' MAPPED").status());
  MAYBMS_ASSERT_OK(ref.Execute("LOAD DATABASE 'ref'").status());
  WriteDeck deck(5);
  for (int i = 0; i < 30; ++i) {
    const std::string w = deck.Next();
    ExpectSameOutcome(&ref, &live, w);
  }
  ASSERT_TRUE(live.is_mapped());
  // Recovery replays the log only with durability on.
  Session eager = MakeSession(&env, true);
  MAYBMS_ASSERT_OK(eager.Execute("LOAD DATABASE 'db'").status());
  ExpectSameDb(ref.db(), eager.db(), "eager recovery");
  Session mapped = MakeSession(&env, true);
  MAYBMS_ASSERT_OK(mapped.Execute("LOAD DATABASE 'db' MAPPED").status());
  ASSERT_TRUE(mapped.is_mapped());
  for (const std::string& q : ReadCorpus(deck.notes())) {
    ExpectSameOutcome(&ref, &mapped, q);
  }
  MAYBMS_ASSERT_OK(mapped.Execute("SHOW RELATION states").status());
  ExpectSameDb(ref.db(), mapped.db(), "mapped recovery");
}

}  // namespace
}  // namespace sql
}  // namespace maybms
