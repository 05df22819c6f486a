// Concurrency tests for the caches that used to carry single-threaded
// carve-outs (Component/Relation stats, shard partitions, the mapped
// database's block cache) and for the server's SharedCatalog: snapshot-
// isolated readers racing serialized writers, differentially checked
// against single-threaded execution. Run under ThreadSanitizer in CI —
// the assertions here are the semantic half, TSan is the data-race half.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/delta.h"
#include "core/mapped_db.h"
#include "core/serialize.h"
#include "core/shard.h"
#include "server/shared_catalog.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/relation.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

using server::SharedCatalog;
using sql::Session;
using sql::StatementResult;

WsdDb SmallDb(size_t rows_per_shard = 4) {
  WsdDb db;
  db.mutable_options().rows_per_shard = rows_per_shard;
  EXPECT_TRUE(db.CreateRelation("r", Schema({{"a", ValueType::kInt},
                                             {"b", ValueType::kString}}))
                  .ok());
  for (int i = 0; i < 32; ++i) {
    CellSpec b = i % 3 == 0
                     ? CellSpec::UniformOrSet(
                           {Value::String("x"), Value::String("y")})
                     : CellSpec::Certain(Value::String("z"));
    EXPECT_TRUE(
        InsertTuple(&db, "r", {CellSpec::Certain(Value::Int(i)), std::move(b)})
            .ok());
  }
  return db;
}

// --- stat caches -----------------------------------------------------------

TEST(ConcurrentCaches, ComponentGetStatsRaceFree) {
  WsdDb db = SmallDb();
  const std::vector<ComponentId> live = db.LiveComponents();
  ASSERT_FALSE(live.empty());
  const Component& c = db.component(live[0]);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const ComponentStats& s = c.GetStats();
        if (s.rows != c.NumRows() || s.distinct.size() != c.NumSlots()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(c.HasCachedStats());
}

TEST(ConcurrentCaches, RelationGetStatsRaceFree) {
  Relation rel("t", Schema({{"a", ValueType::kInt}}));
  for (int i = 0; i < 100; ++i) {
    MAYBMS_ASSERT_OK(rel.Append({Value::Int(i % 7)}));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const RelationStats& s = rel.GetStats();
        if (s.rows != 100 || s.distinct[0] != 7) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(rel.HasCachedStats());
}

TEST(ConcurrentCaches, StatsCacheSurvivesConcurrentCopies) {
  // Copying a relation snapshots the stats cache atomically even while
  // other threads are CAS-installing it on the source.
  Relation rel("t", Schema({{"a", ValueType::kInt}}));
  for (int i = 0; i < 50; ++i) {
    MAYBMS_ASSERT_OK(rel.Append({Value::Int(i)}));
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        if (t % 2 == 0) {
          if (rel.GetStats().rows != 50) bad.fetch_add(1);
        } else {
          Relation copy(rel);
          if (copy.GetStats().rows != 50) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// --- shard partition cache -------------------------------------------------

TEST(ConcurrentCaches, ShardPartitionConcurrentReaders) {
  const WsdDb db = SmallDb(/*rows_per_shard=*/4);
  const WsdRelation* rel = *db.GetRelation("r");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const ShardPartition& p = GetShardPartition(db, *rel);
        if (p.shards.size() != 8 || p.rows_per_shard != 4) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every thread converged on one installed partition.
  ASSERT_NE(rel->cached_shards(), nullptr);
  EXPECT_EQ(rel->cached_shards().get(), &GetShardPartition(db, *rel));
}

TEST(ShardCacheInvalidation, ComponentMutationInvalidates) {
  WsdDb db = SmallDb();
  const WsdRelation* rel = *db.GetRelation("r");
  GetShardPartition(db, *rel);
  ASSERT_NE(rel->cached_shards(), nullptr);

  // The staleness hole: partitions persist per-shard possible-value
  // ranges, so editing a component must drop them.
  const std::vector<ComponentId> live = db.LiveComponents();
  ASSERT_FALSE(live.empty());
  db.mutable_component(live[0]);
  EXPECT_EQ(rel->cached_shards(), nullptr);

  GetShardPartition(db, *rel);
  ASSERT_NE(rel->cached_shards(), nullptr);
  db.RemoveComponent(live[0]);
  EXPECT_EQ(rel->cached_shards(), nullptr);
}

TEST(ShardCacheInvalidation, TupleMutationInvalidates) {
  WsdDb db = SmallDb();
  WsdRelation* rel = *db.GetMutableRelation("r");
  GetShardPartition(db, *rel);
  ASSERT_NE(rel->cached_shards(), nullptr);
  rel->mutable_tuples();
  EXPECT_EQ(rel->cached_shards(), nullptr);
}

// --- copy-on-write sharing -------------------------------------------------

TEST(CowDb, CopiesShareUntilMutation) {
  WsdDb a = SmallDb();
  WsdDb b = a;  // cheap: shares tuple vectors and components
  const std::vector<ComponentId> live = a.LiveComponents();
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(&a.component(live[0]), &b.component(live[0]));
  EXPECT_EQ(&(*a.GetRelation("r"))->tuple(0), &(*b.GetRelation("r"))->tuple(0));

  // Mutating b's component detaches it; a's stays untouched.
  const double before = a.component(live[0]).prob(0);
  Component& mut = b.mutable_component(live[0]);
  EXPECT_NE(&mut, &a.component(live[0]));
  mut.set_prob(0, before / 2);
  EXPECT_EQ(a.component(live[0]).prob(0), before);

  // Same for tuples.
  b.GetMutableRelation("r").value()->mutable_tuple(0);
  EXPECT_NE(&(*a.GetRelation("r"))->tuple(0),
            &(*b.GetRelation("r"))->tuple(0));
}

TEST(CowDb, ReadersCopyWhileAWriterEvictsItsOwnCopy) {
  // The reference index and the component store are shared by every
  // copy of a database. Readers keep copying the published version
  // while a writer inserts and evicts on its own copy: the writer must
  // detach before maintaining the index, and the published version must
  // read the same throughout.
  WsdDb published = SmallDb();
  {
    DeltaBatch warm;  // builds the index, so copies share a live one
    warm.EvictOldest("r", 1);
    ASSERT_TRUE(published.ApplyDelta(warm).ok());
  }
  const std::string expected = published.ToString();
  WsdDb writer = published;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        WsdDb copy = published;
        if (!copy.CheckInvariants().ok() || copy.ToString() != expected) {
          ++mismatches;
        }
      }
    });
  }
  for (int tick = 0; tick < 64; ++tick) {
    DeltaBatch batch;
    batch.Insert("r", {CellSpec::Certain(Value::Int(100 + tick)),
                       CellSpec::UniformOrSet(
                           {Value::String("x"), Value::String("y")})});
    batch.EvictOldest("r", 1);
    EXPECT_TRUE(writer.ApplyDelta(batch).ok());
  }
  done = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  MAYBMS_EXPECT_OK(writer.CheckInvariants());
  EXPECT_EQ((*writer.GetRelation("r"))->NumTuples(), 31u);
  EXPECT_EQ(published.ToString(), expected);
}

// --- mapped database -------------------------------------------------------

TEST(ConcurrentMapped, ParallelMaterializeMatchesSingleThreaded) {
  WsdDb db = SmallDb(/*rows_per_shard=*/4);
  const std::string path = ::testing::TempDir() + "/concurrent_mapped.wsd";
  MAYBMS_ASSERT_OK(SaveWsdDb(db, path, SnapshotFormat::kBinary));

  // A tight budget forces evictions while 8 threads materialize — the
  // old LRU accounting raced exactly here.
  MappedDbOptions opts;
  opts.max_resident_bytes = 512;
  auto mapped = MappedWsdDb::Open(path, opts);
  MAYBMS_ASSERT_OK(mapped.status());

  WsdDb oracle_db = db;
  Session oracle(std::move(oracle_db));
  auto expect = oracle.Execute("POSSIBLE SELECT b FROM r WHERE a < 8");
  MAYBMS_ASSERT_OK(expect.status());
  const std::string want = testing_util::CanonicalBag(expect->table);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto scratch = mapped->MaterializeAll();
        if (!scratch.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Session s(std::move(*scratch));
        auto got = s.Execute("POSSIBLE SELECT b FROM r WHERE a < 8");
        if (!got.ok() ||
            testing_util::CanonicalBag(got->table) != want) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(mapped->peak_resident_bytes(), 0u);
}

// --- SharedCatalog stress --------------------------------------------------

TEST(SharedCatalogTest, SnapshotIsolationAndEpochReclamation) {
  SharedCatalog catalog;
  MAYBMS_ASSERT_OK(
      catalog.setup_session()->Execute("CREATE TABLE t (a INT)").status());
  catalog.Publish();

  // A snapshot taken now must not see writes committed later.
  WsdDb snap = catalog.SnapshotCopy();
  auto stmt = sql::ParseStatement("INSERT INTO t VALUES (1)");
  MAYBMS_ASSERT_OK(stmt.status());
  for (int i = 0; i < 5; ++i) {
    MAYBMS_ASSERT_OK(catalog.ExecuteWrite(*stmt).status());
  }
  EXPECT_EQ((*snap.GetRelation("t"))->NumTuples(), 0u);
  EXPECT_EQ((*catalog.SnapshotCopy().GetRelation("t"))->NumTuples(), 5u);
}

// Concurrent readers + per-relation writers over one catalog; every
// reader observation must be a prefix of its relation's write sequence
// (snapshot isolation + monotone versions), and the final state must
// equal single-threaded execution of the same statements.
TEST(SharedCatalogTest, DifferentialStress) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 5;
  constexpr int kRowsPerWriter = 40;

  SharedCatalog catalog;
  std::vector<std::string> setup;
  for (int w = 0; w < kWriters; ++w) {
    const std::string ddl =
        "CREATE TABLE t" + std::to_string(w) + " (a INT, b STRING)";
    setup.push_back(ddl);
    MAYBMS_ASSERT_OK(catalog.setup_session()->Execute(ddl).status());
  }
  catalog.Publish();

  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::vector<std::string> write_log[kWriters];

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        // Every third row is an or-set, so writes create components too.
        std::string values =
            i % 3 == 0
                ? "(" + std::to_string(i) + ", {'x': 0.5, 'y': 0.5})"
                : "(" + std::to_string(i) + ", 'z')";
        const std::string stmt_text =
            "INSERT INTO t" + std::to_string(w) + " VALUES " + values;
        write_log[w].push_back(stmt_text);
        auto stmt = sql::ParseStatement(stmt_text);
        if (!stmt.ok() || !catalog.ExecuteWrite(*stmt).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session session;
      uint64_t last_rows = 0;
      const std::string rel = "t" + std::to_string(r % kWriters);
      while (!done.load(std::memory_order_acquire)) {
        session.db() = catalog.SnapshotCopy();
        auto res = session.Execute("SELECT ECOUNT() FROM " + rel);
        if (!res.ok() || res->table.NumRows() != 1) {
          failures.fetch_add(1);
          continue;
        }
        // ECOUNT of certain existence = the row count at snapshot time:
        // an integer, within the write sequence, never going backwards
        // across this reader's successive snapshots.
        const double v = res->table.row(0)[0].as_double();
        const uint64_t rows = static_cast<uint64_t>(v + 0.5);
        if (v < -1e-9 || rows > kRowsPerWriter || rows < last_rows) {
          failures.fetch_add(1);
        }
        last_rows = rows;
        // Exercise the optimizer's stat/shard caches on the snapshot.
        auto conf = session.Execute("SELECT b, PROB() FROM " + rel +
                                    " WHERE a < 5");
        if (!conf.ok()) failures.fetch_add(1);
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Differential: a single-threaded session executing the same per-
  // relation sequences must agree on every final answer.
  Session oracle;
  for (const std::string& s : setup) {
    MAYBMS_ASSERT_OK(oracle.Execute(s).status());
  }
  for (int w = 0; w < kWriters; ++w) {
    for (const std::string& s : write_log[w]) {
      MAYBMS_ASSERT_OK(oracle.Execute(s).status());
    }
  }
  Session final_session(catalog.SnapshotCopy());
  for (int w = 0; w < kWriters; ++w) {
    const std::string rel = "t" + std::to_string(w);
    for (const std::string& q :
         {"POSSIBLE SELECT a, b FROM " + rel,
          "SELECT b, PROB() FROM " + rel + " WHERE a < 9",
          "SELECT ECOUNT() FROM " + rel}) {
      auto got = final_session.Execute(q);
      auto want = oracle.Execute(q);
      MAYBMS_ASSERT_OK(got.status());
      MAYBMS_ASSERT_OK(want.status());
      EXPECT_EQ(testing_util::CanonicalBag(got->table),
                testing_util::CanonicalBag(want->table))
          << q;
    }
  }
}

}  // namespace
}  // namespace maybms
