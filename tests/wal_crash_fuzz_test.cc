// Crash-point sweep: run a mutating workload on the fault-injecting env,
// kill the "process" at EVERY I/O operation index in turn (including
// mid-SAVE, mid-CHECKPOINT, mid-auto-checkpoint, and mid-WAL-append,
// with randomized torn tails), recover, reload, and check the recovered
// database against an in-memory oracle.
//
// Admissibility: with log-before-apply, the failures form a prefix — if
// the first failed statement is number F, every earlier statement was
// acknowledged (hence durable) and every later mutation failed. The
// recovered database must therefore equal the oracle state after F
// statements, or after F+1 (statement F's log record may have survived
// the tear even though its ack never arrived). A missing snapshot is
// admissible only when the initial SAVE itself never acknowledged.
//
// The mapped workload reloads its own snapshot with LOAD ... MAPPED and
// keeps writing: its inserts, evictions and creates go to the session's
// write overlay, and automatic checkpoints fold the overlay into a new
// snapshot and re-map it. Its oracle is the same workload with an eager
// LOAD, and every recovery is checked twice: through an eager reload and
// through a MAPPED reload (promoted, then compared).
//
// Iteration count: MAYBMS_WAL_FUZZ_ITERS randomized workload rounds on
// top of the deterministic base sweep (default 2; the "fuzz"-labelled
// ctest entry raises it for the sanitizer matrix).
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "sql/session.h"
#include "storage/io_env.h"
#include "tests/test_util.h"

namespace maybms {
namespace sql {
namespace {

size_t FuzzRounds() {
  const char* env = std::getenv("MAYBMS_WAL_FUZZ_ITERS");
  return env ? static_cast<size_t>(std::atoll(env)) : 2;
}

// The deterministic base workload: SAVE first (attaching the WAL), then
// every logged statement kind plus an explicit CHECKPOINT in the middle.
std::vector<std::string> BaseWorkload() {
  return {
      "SAVE DATABASE 'db'",
      "CREATE TABLE t (x INT, w DOUBLE)",
      // Certain duplicate keys: REPAIR KEY (which needs certain key
      // values) then turns the conflict into fresh components, so its
      // replay exercises component-id allocation determinism.
      "INSERT INTO t VALUES (1, 1.5)",
      "INSERT INTO t VALUES (1, 2.0)",
      "INSERT INTO t VALUES (3, 2.0)",
      "REPAIR KEY (x) IN t WEIGHT BY w",
      "CHECKPOINT",
      "INSERT INTO t VALUES ({4: 0.5, 5: 0.5}, 1.0)",
      "ENFORCE CHECK (x >= 0) ON t",
      "INSERT INTO t VALUES (6, 0.5)",
  };
}

// A randomized variant: same shape, random values and statement mix.
std::vector<std::string> RandomWorkload(Rng* rng) {
  std::vector<std::string> w;
  w.push_back("SAVE DATABASE 'db'");
  w.push_back("CREATE TABLE t (x INT, w DOUBLE)");
  const size_t n = 4 + rng->NextBelow(5);
  // REPAIR KEY needs certain key values, so or-set inserts only appear
  // once the table has been repaired (after which no further repair).
  bool repaired = false;
  for (size_t i = 0; i < n; ++i) {
    switch (rng->NextBelow(5)) {
      case 0:
        if (!repaired) {
          w.push_back("REPAIR KEY (x) IN t WEIGHT BY w");
          repaired = true;
          break;
        }
        [[fallthrough]];
      case 1:
        w.push_back("CHECKPOINT");
        break;
      case 2:
        w.push_back("ENFORCE CHECK (x >= 0) ON t");
        break;
      default: {
        const int a = 1 + static_cast<int>(rng->NextBelow(8));
        const int b = a + 1 + static_cast<int>(rng->NextBelow(8));
        if (repaired) {
          w.push_back(StrFormat(
              "INSERT INTO t VALUES ({%d: 0.5, %d: 0.5}, %d.5)", a, b,
              1 + static_cast<int>(rng->NextBelow(4))));
        } else {
          // Small key range on purpose: duplicates make the eventual
          // repair actually introduce uncertainty.
          w.push_back(StrFormat("INSERT INTO t VALUES (%d, %d.5)", a,
                                1 + static_cast<int>(rng->NextBelow(4))));
        }
        break;
      }
    }
  }
  w.push_back("INSERT INTO t VALUES (99, 1.0)");
  return w;
}

// Populates and saves a table, reloads it MAPPED, then inserts and
// evicts across the stored/inserted boundary and creates a table.
std::vector<std::string> MappedWorkload() {
  return {
      "CREATE TABLE t (x INT, w DOUBLE)",
      "INSERT INTO t VALUES (1, 1.5)",
      "INSERT INTO t VALUES ({2: 0.5, 3: 0.5}, 2.0)",
      "INSERT INTO t VALUES (4, 0.5)",
      "SAVE DATABASE 'db'",
      "LOAD DATABASE 'db' MAPPED",
      "INSERT INTO t VALUES ({5: 0.25, 6: 0.75}, 1.0)",
      "DELETE FROM t OLDEST 2",
      "INSERT INTO t VALUES (7, 1.0)",
      // One stored row left: this eviction crosses into the inserted ones.
      "DELETE FROM t OLDEST 2",
      "CREATE TABLE u (y INT)",
      "INSERT INTO u VALUES ({1: 0.5, 2: 0.5})",
      "INSERT INTO t VALUES ({8: 0.5, 9: 0.5}, 2.0)",
      "DELETE FROM t OLDEST 1",
  };
}

Session MakeSession(Env* env, size_t auto_checkpoint) {
  Session s;
  s.set_env(env);
  s.mutable_options().durability.auto_checkpoint_records = auto_checkpoint;
  return s;
}

// Runs the workload fault-free to collect states[i] = the database after
// the first i statements, plus the total I/O op count to sweep.
struct Oracle {
  std::vector<WsdDb> states;
  uint64_t total_ops = 0;
};

Oracle RunOracle(const std::vector<std::string>& workload,
                 size_t auto_checkpoint) {
  FaultInjectingEnv env;
  Session s = MakeSession(&env, auto_checkpoint);
  Oracle o;
  o.states.push_back(s.db());
  for (const auto& stmt : workload) {
    auto r = s.Execute(stmt);
    EXPECT_TRUE(r.ok()) << "oracle statement failed: " << stmt << ": "
                        << r.status().ToString();
    o.states.push_back(s.db());
  }
  o.total_ops = env.op_count();
  return o;
}

// A workload with a MAPPED load names `eager_workload`, the same
// statements with an eager LOAD: a mapped session's db() is only its
// write overlay, so the oracle states come from that one.
void SweepCrashPoints(const std::vector<std::string>& workload,
                      size_t auto_checkpoint, uint64_t recover_salt,
                      const std::vector<std::string>* eager_workload = nullptr) {
  Oracle oracle = RunOracle(workload, auto_checkpoint);
  if (eager_workload != nullptr) {
    oracle.states = RunOracle(*eager_workload, auto_checkpoint).states;
  }
  const size_t n = workload.size();
  ASSERT_GT(oracle.total_ops, 0u);
  size_t save_index = 0;  // statements before the SAVE touch no file
  while (save_index < n && !StartsWith(workload[save_index], "SAVE")) {
    ++save_index;
  }

  for (uint64_t crash_op = 0; crash_op < oracle.total_ops; ++crash_op) {
    FaultInjectingEnv env;
    FaultPlan plan;
    plan.crash_at_op = crash_op;
    env.set_plan(plan);
    Session s = MakeSession(&env, auto_checkpoint);
    size_t first_fail = n;
    for (size_t i = 0; i < n; ++i) {
      if (!s.Execute(workload[i]).ok() && first_fail == n) first_fail = i;
    }
    if (!env.crashed()) env.Crash();
    env.set_plan(FaultPlan{});  // recovery itself runs fault-free
    Rng rng(recover_salt ^ (crash_op * 0x9e3779b97f4a7c15ull));
    env.Recover(&rng);

    if (eager_workload != nullptr) {
      // The MAPPED reload, promoted so that the whole database compares.
      Session mapped = MakeSession(&env, auto_checkpoint);
      if (mapped.Execute("LOAD DATABASE 'db' MAPPED").ok()) {
        auto promoted = mapped.Execute("SHOW WORLDS");
        ASSERT_TRUE(promoted.ok()) << "crash_op " << crash_op << ": "
                                   << promoted.status().ToString();
        ASSERT_FALSE(mapped.is_mapped());
        EXPECT_TRUE(
            testing_util::DbsExactlyEqual(mapped.db(),
                                          oracle.states[first_fail]) ||
            (first_fail < n &&
             testing_util::DbsExactlyEqual(mapped.db(),
                                           oracle.states[first_fail + 1])))
            << "crash_op " << crash_op << ": MAPPED reload matches neither "
            << first_fail << " nor " << (first_fail + 1)
            << " acked statements (of " << n << ")";
      }
    }
    Session rec = MakeSession(&env, auto_checkpoint);
    auto loaded = rec.Execute("LOAD DATABASE 'db'");
    if (!loaded.ok()) {
      // Only admissible when the initial SAVE never acked — then no
      // snapshot was ever promised.
      EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << "crash_op " << crash_op << ": " << loaded.status().ToString();
      EXPECT_LE(first_fail, save_index)
          << "crash_op " << crash_op
          << ": snapshot lost after SAVE acknowledged";
      continue;
    }
    const bool at_k =
        testing_util::DbsExactlyEqual(rec.db(), oracle.states[first_fail]);
    const bool at_k1 =
        first_fail < n &&
        testing_util::DbsExactlyEqual(rec.db(), oracle.states[first_fail + 1]);
    EXPECT_TRUE(at_k || at_k1)
        << "crash_op " << crash_op << ": recovered state matches neither "
        << first_fail << " nor " << (first_fail + 1)
        << " acked statements (of " << n << ")";

    // The recovered session must be fully serviceable and durable.
    if (rec.db().HasRelation("t")) {
      auto post = rec.Execute("INSERT INTO t VALUES (123, 1.0)");
      ASSERT_TRUE(post.ok()) << "crash_op " << crash_op
                             << ": recovered session not serviceable: "
                             << post.status().ToString();
      EXPECT_TRUE(rec.has_durable_attachment());
    }
  }
}

TEST(WalCrashFuzz, BaseWorkloadSurvivesEveryCrashPoint) {
  SweepCrashPoints(BaseWorkload(), /*auto_checkpoint=*/0,
                   /*recover_salt=*/0xC0FFEE);
}

TEST(WalCrashFuzz, AutoCheckpointSurvivesEveryCrashPoint) {
  // A tiny threshold makes several statements trigger the automatic
  // checkpoint, so the sweep crosses its snapshot-rewrite + log-reset
  // window many times.
  SweepCrashPoints(BaseWorkload(), /*auto_checkpoint=*/2,
                   /*recover_salt=*/0xBEEF);
}

TEST(WalCrashFuzz, RandomWorkloadsSurviveEveryCrashPoint) {
  const size_t rounds = FuzzRounds();
  for (size_t round = 0; round < rounds; ++round) {
    Rng rng(0x5EED + round);
    const auto workload = RandomWorkload(&rng);
    const size_t auto_checkpoint = rng.NextBelow(2) ? 0 : 3;
    SweepCrashPoints(workload, auto_checkpoint,
                     /*recover_salt=*/rng.Next());
  }
}

TEST(WalCrashFuzz, MappedWritesSurviveEveryCrashPoint) {
  std::vector<std::string> eager = MappedWorkload();
  for (std::string& stmt : eager) {
    if (stmt == "LOAD DATABASE 'db' MAPPED") stmt = "LOAD DATABASE 'db'";
  }
  for (size_t auto_checkpoint : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(StrFormat("auto_checkpoint %zu", auto_checkpoint));
    SweepCrashPoints(MappedWorkload(), auto_checkpoint,
                     /*recover_salt=*/0xFEED + auto_checkpoint, &eager);
  }
}

}  // namespace
}  // namespace sql
}  // namespace maybms
