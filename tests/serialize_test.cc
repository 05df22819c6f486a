// Tests for WSD persistence: exact round-trips, distribution
// preservation, tricky values, and corrupted-input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/builder.h"
#include "core/lifted.h"
#include "core/mapped_db.h"
#include "core/serialize.h"
#include "core/snapshot_v3.h"
#include "storage/snapshot_io.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace {

using testing_util::ExpectDistEq;
using testing_util::MedicalExample;
using testing_util::RelationDistribution;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, MedicalExampleRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  EXPECT_EQ(back->NumLiveComponents(), db.NumLiveComponents());
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeTest, FileRoundTrip) {
  WsdDb db = MedicalExample();
  std::string path = TempPath("maybms_roundtrip.wsd");
  MAYBMS_ASSERT_OK(SaveWsdDb(db, path));
  auto back = LoadWsdDb(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->GetRelation("R").value()->NumTuples(), 2u);
  std::remove(path.c_str());
}

TEST(SerializeTest, TrickyValuesSurvive) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "t", Schema({{"s", ValueType::kString},
                   {"d", ValueType::kDouble},
                   {"b", ValueType::kBool},
                   {"i", ValueType::kInt}})));
  ASSERT_TRUE(
      InsertTuple(&db, "t",
                  {CellSpec::OrSet({{Value::String("with space\nand\n"
                                                   "newlines: s5:x"),
                                     0.5},
                                    {Value::String(""), 0.5}}),
                   CellSpec::Certain(Value::Double(-0.1)),
                   CellSpec::Certain(Value::Bool(false)),
                   CellSpec::Certain(Value::Int(-9223372036854775807LL))})
          .ok());
  ASSERT_TRUE(InsertTuple(&db, "t",
                          {CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Double(1e-300)),
                           CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Null())})
                  .ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "t"), RelationDistribution(*b, "t"));
}

TEST(SerializeTest, GapsInComponentIdsSurvive) {
  // Removing a component leaves a dead id; the writer/reader must keep
  // the remaining ids stable because cells reference them.
  WsdDb db = MedicalExample();
  // Force a gap: merge the two components (kills both ids, creates a new
  // higher one), so the live set is {2} with dead 0 and 1.
  auto merged = db.MergeComponents(db.LiveComponents(), 1u << 12);
  ASSERT_TRUE(merged.ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeTest, LoadedDbSupportsFurtherOperations) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok());
  // Owner counter was restored: new inserts must not collide with loaded
  // owners.
  auto h = InsertTuple(&*back, "R",
                       {CellSpec::UniformOrSet({Value::String("x"),
                                                Value::String("y")}),
                        CellSpec::Certain(Value::String("t")),
                        CellSpec::Certain(Value::String("s"))});
  ASSERT_TRUE(h.ok());
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("pregnancy")));
  MAYBMS_ASSERT_OK(LiftedSelect(&*back, "R", pred, "ans"));
  MAYBMS_ASSERT_OK(back->CheckInvariants());
}

class SerializeRandom : public ::testing::TestWithParam<int> {};

TEST_P(SerializeRandom, RoundTripPreservesDistribution) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6121 + 41);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto a = EnumerateWorlds(db, 1u << 16);
  auto b = EnumerateWorlds(*back, 1u << 16);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R0"),
               RelationDistribution(*b, "R0"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRandom, ::testing::Range(0, 15));

// --- binary columnar snapshot format ("MAYBMS-WSD 2") ----------------------

TEST(SerializeBinaryTest, MedicalExampleExactRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
  auto a = EnumerateWorlds(db);
  auto b = EnumerateWorlds(*back);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectDistEq(RelationDistribution(*a, "R"), RelationDistribution(*b, "R"));
}

TEST(SerializeBinaryTest, FileRoundTripWithFormatNegotiation) {
  WsdDb db = MedicalExample();
  std::string bin_path = TempPath("maybms_roundtrip_v2.wsd");
  std::string text_path = TempPath("maybms_roundtrip_v1.wsd");
  MAYBMS_ASSERT_OK(SaveWsdDb(db, bin_path, SnapshotFormat::kBinary));
  MAYBMS_ASSERT_OK(SaveWsdDb(db, text_path, SnapshotFormat::kText));
  // LoadWsdDb negotiates the format from the header line of each file.
  auto from_bin = LoadWsdDb(bin_path);
  auto from_text = LoadWsdDb(text_path);
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  testing_util::ExpectDbsExactlyEqual(*from_text, *from_bin);
  std::remove(bin_path.c_str());
  std::remove(text_path.c_str());
}

TEST(SerializeBinaryTest, TrickyValuesSurvive) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "t", Schema({{"s", ValueType::kString},
                   {"d", ValueType::kDouble},
                   {"b", ValueType::kBool},
                   {"i", ValueType::kInt}})));
  std::string with_nul = "nul";
  with_nul += '\0';
  with_nul += "inside";
  ASSERT_TRUE(
      InsertTuple(&db, "t",
                  {CellSpec::OrSet({{Value::String("with space\nand\n"
                                                   "newlines: s5:x"),
                                     0.5},
                                    {Value::String(with_nul), 0.25},
                                    {Value::String(""), 0.25}}),
                   CellSpec::Certain(Value::Double(-0.0)),
                   CellSpec::Certain(Value::Bool(false)),
                   CellSpec::Certain(Value::Int(-9223372036854775807LL))})
          .ok());
  ASSERT_TRUE(InsertTuple(&db, "t",
                          {CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Double(1e-300)),
                           CellSpec::Certain(Value::Null()),
                           CellSpec::Certain(Value::Null())})
                  .ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeBinaryTest, EmptyAndDegenerateDbsRoundTrip) {
  // Fully empty database.
  {
    WsdDb db;
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
    auto back = ReadWsdDb(ss);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
  // A relation with no tuples, next to a populated one.
  {
    WsdDb db = MedicalExample();
    MAYBMS_ASSERT_OK(
        db.CreateRelation("empty", Schema({{"x", ValueType::kInt}})));
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
    auto back = ReadWsdDb(ss);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
}

TEST(SerializeBinaryTest, GapsInComponentIdsSurvive) {
  WsdDb db = MedicalExample();
  auto merged = db.MergeComponents(db.LiveComponents(), 1u << 12);
  ASSERT_TRUE(merged.ok());
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeBinaryTest, LoadedDbSupportsFurtherOperations) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok());
  // The owner counter was persisted: new inserts must not collide with
  // loaded owners.
  auto h = InsertTuple(&*back, "R",
                       {CellSpec::UniformOrSet({Value::String("x"),
                                                Value::String("y")}),
                        CellSpec::Certain(Value::String("t")),
                        CellSpec::Certain(Value::String("s"))});
  ASSERT_TRUE(h.ok());
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  auto pred = Expr::Compare(CompareOp::kEq, Expr::Column("Diagnosis"),
                            Expr::Const(Value::String("pregnancy")));
  MAYBMS_ASSERT_OK(LiftedSelect(&*back, "R", pred, "ans"));
  MAYBMS_ASSERT_OK(back->CheckInvariants());
}

// The medical example in both binary formats: v2 through its stream
// reader, v3 through MappedWsdDb (small shards, so the v3 file has
// several blocks and the padding between them).
std::vector<std::string> BinarySnapshots() {
  WsdDb db = MedicalExample();
  db.mutable_options().rows_per_shard = 1;
  std::stringstream v2, v3;
  EXPECT_TRUE(WriteWsdDbBinary(db, v2).ok());
  EXPECT_TRUE(WriteWsdDbBinaryV3(db, v3).ok());
  return {v2.str(), v3.str()};
}

TEST(SerializeBinaryTest, EveryTruncationFailsCleanly) {
  for (const std::string& full : BinarySnapshots()) {
    SCOPED_TRACE(full.substr(0, 12));
    for (size_t len = 0; len < full.size(); ++len) {
      std::stringstream cut(full.substr(0, len));
      auto r = ReadWsdDb(cut);
      EXPECT_FALSE(r.ok()) << "prefix of length " << len << " parsed";
    }
  }
}

TEST(SerializeBinaryTest, EveryByteFlipFailsCleanly) {
  // Flipping any single byte must yield a clean Status — the section
  // and block checksums catch payload damage (a flip in the padding
  // between v3 blocks only the COMP/RELS section checksums), the framing
  // catches the rest. (A flip inside the header line may instead select
  // the text reader or an unsupported version; those also fail cleanly.)
  for (const std::string& full : BinarySnapshots()) {
    SCOPED_TRACE(full.substr(0, 12));
    for (size_t i = 0; i < full.size(); ++i) {
      std::string bad = full;
      bad[i] = static_cast<char>(bad[i] ^ 0x20);
      std::stringstream in(bad);
      auto r = ReadWsdDb(in);
      EXPECT_FALSE(r.ok()) << "byte flip at offset " << i << " parsed";
    }
  }
}

TEST(SerializeBinaryTest, ChecksumMismatchIsReported) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  std::string full = ss.str();
  // Corrupt one byte inside the last section payload (RELS), ahead of
  // the empty END section's 20-byte framing.
  size_t off = full.size() - 30;
  full[off] = static_cast<char>(full[off] ^ 0xff);
  std::stringstream in(full);
  auto r = ReadWsdDb(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(SerializeBinaryTest, HugeComponentIdIsRejectedNotAllocated) {
  // A checksummed-but-hostile snapshot demanding a component id ~2^28
  // above the first live one must fail fast instead of materializing
  // the dead ids between them.
  std::stringstream out;
  out << "MAYBMS-WSD 2\n";
  std::string meta;
  PutPod(&meta, static_cast<uint32_t>(0x32445357));  // endian mark
  PutPod(&meta, static_cast<uint64_t>(1u << 20));    // max_component_rows
  PutPod(&meta, static_cast<uint64_t>(1));           // owner counter
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('M', 'E', 'T', 'A'), meta));
  std::string strs;
  PutPod(&strs, static_cast<uint32_t>(0));  // no strings
  PutPod(&strs, static_cast<uint64_t>(0));  // blob length
  PutPod(&strs, static_cast<uint64_t>(0));  // sentinel offset
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('S', 'T', 'R', 'S'), strs));
  std::string comp;
  PutPod(&comp, static_cast<uint32_t>(2));  // two components: id 0, then...
  for (uint32_t id : {0u, 0x0fffffffu}) {   // ...one at a huge id
    PutPod(&comp, id);
    PutPod(&comp, static_cast<uint32_t>(1));  // n_slots
    PutPod(&comp, static_cast<uint64_t>(1));  // n_rows
    PutPod(&comp, static_cast<uint64_t>(1));  // slot owner
    PutLenString(&comp, "x");                 // slot label
    PutPod(&comp, 1.0);                       // prob column
    PutPod(&comp, static_cast<uint8_t>(2));   // tag: bool
    PutPod(&comp, static_cast<uint64_t>(1));  // payload
  }
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('C', 'O', 'M', 'P'), comp));
  auto r = ReadWsdDb(out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("dead-id gaps"), std::string::npos)
      << r.status().ToString();
}

TEST(SerializeBinaryTest, HugeSlotCountIsRejectedNotAllocated) {
  // A checksummed COMP section declaring 2^32-1 slots in a tiny payload
  // must fail on the count bound, not attempt a ~100GB reserve.
  std::stringstream out;
  out << "MAYBMS-WSD 2\n";
  std::string meta;
  PutPod(&meta, static_cast<uint32_t>(0x32445357));
  PutPod(&meta, static_cast<uint64_t>(1u << 20));
  PutPod(&meta, static_cast<uint64_t>(1));
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('M', 'E', 'T', 'A'), meta));
  std::string strs;
  PutPod(&strs, static_cast<uint32_t>(0));
  PutPod(&strs, static_cast<uint64_t>(0));
  PutPod(&strs, static_cast<uint64_t>(0));
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('S', 'T', 'R', 'S'), strs));
  std::string comp;
  PutPod(&comp, static_cast<uint32_t>(1));           // one component
  PutPod(&comp, static_cast<uint32_t>(0));           // id 0
  PutPod(&comp, static_cast<uint32_t>(0xffffffff));  // hostile n_slots
  PutPod(&comp, static_cast<uint64_t>(1));           // n_rows
  MAYBMS_ASSERT_OK(WriteSnapshotSection(
      out, SnapshotFourCC('C', 'O', 'M', 'P'), comp));
  auto r = ReadWsdDb(out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("slot count"), std::string::npos)
      << r.status().ToString();
}

TEST(SerializeTest, HugeComponentIdIsRejectedNotAllocated) {
  std::stringstream in(
      "MAYBMS-WSD 1\nOPTIONS 16\nCOMPONENTS 2\n"
      "COMPONENT 0 1 1\nSLOT 1 s1:x\nROW 1 T\n"
      "COMPONENT 999999999 1 1\nSLOT 1 s1:x\nROW 1 T\nRELATIONS 0\nEND\n");
  auto r = ReadWsdDb(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("dead-id gaps"), std::string::npos)
      << r.status().ToString();
}

// A database whose component ids have run past the loaders' gap budget:
// `churn` ids allocated and removed, then `live_rows` or-set rows.
WsdDb ChurnedDb(size_t churn, int live_rows) {
  WsdDb db;
  MAYBMS_EXPECT_OK(db.CreateRelation("t", Schema({{"k", ValueType::kInt},
                                                  {"v", ValueType::kString}})));
  for (size_t i = 0; i < churn; ++i) db.RemoveComponent(db.AddComponent({}));
  for (int k = 0; k < live_rows; ++k) {
    MAYBMS_EXPECT_OK(
        InsertTuple(&db, "t",
                    {CellSpec::Certain(Value::Int(k)),
                     CellSpec::OrSet({{Value::String("a"), 0.25},
                                      {Value::String("b"), 0.75}})})
            .status());
  }
  return db;
}

TEST(SerializeIdSpaceTest, IdsPastTheGapBudgetReloadInEveryFormat) {
  // Sliding-window eviction retires the oldest ids first, so a long
  // stream's live ids sit far above 0 with nothing below them. The dead
  // prefix costs no storage and no gap budget: every format reloads it
  // with the same ids, and allocation resumes where it stopped.
  const size_t churn = snapshotv3::kMaxComponentIdGaps + 10;
  WsdDb db = ChurnedDb(churn, 2);
  ASSERT_EQ(db.LiveComponents(),
            std::vector<ComponentId>({static_cast<ComponentId>(churn),
                                      static_cast<ComponentId>(churn + 1)}));
  EXPECT_EQ(db.component_span(), 2u);
  WsdDb next = db;
  const ComponentId next_id = next.AddComponent({});

  const std::string path = TempPath("maybms_churned.wsd");
  using F = SnapshotFormat;
  for (F format : {F::kText, F::kBinaryV2, F::kBinary}) {
    MAYBMS_ASSERT_OK(SaveWsdDb(db, path, format));
    auto back = LoadWsdDb(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
    EXPECT_EQ(back->component_slot_count(), db.component_slot_count());
    EXPECT_EQ(back->component_span(), 2u);
    EXPECT_EQ(back->AddComponent({}), next_id);
  }
  auto mapped = MappedWsdDb::Open(path);  // the v3 file written last
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto all = mapped->MaterializeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  testing_util::ExpectDbsExactlyEqual(db, *all);
  EXPECT_EQ(all->component_slot_count(), db.component_slot_count());
  EXPECT_EQ(all->AddComponent({}), next_id);
  std::remove(path.c_str());
}

TEST(SerializeIdSpaceTest, HolesAboveTheFirstLiveIdStayBudgeted) {
  // One live id at 0 and one past the budget above it. Saving refuses
  // (a checkpoint must not replace a loadable snapshot with one that is
  // not), and every loader refuses the bytes the stream writers still
  // produce, with ParseError instead of storing the holes.
  WsdDb db = ChurnedDb(0, 1);
  for (size_t i = 0; i <= snapshotv3::kMaxComponentIdGaps; ++i) {
    db.RemoveComponent(db.AddComponent({}));
  }
  MAYBMS_ASSERT_OK(
      InsertTuple(&db, "t",
                  {CellSpec::Certain(Value::Int(9)),
                   CellSpec::OrSet({{Value::String("a"), 0.5},
                                    {Value::String("b"), 0.5}})})
          .status());
  const std::string path = TempPath("maybms_holes.wsd");
  EXPECT_EQ(SaveWsdDb(db, path, SnapshotFormat::kBinary).code(),
            StatusCode::kResourceExhausted);
  for (auto write : {&WriteWsdDb, &WriteWsdDbBinary, &WriteWsdDbBinaryV3}) {
    std::stringstream ss;
    MAYBMS_ASSERT_OK(write(db, ss));
    {
      std::ofstream f(path, std::ios::binary);
      f << ss.str();
    }
    auto back = ReadWsdDb(ss);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kParseError);
    EXPECT_NE(back.status().message().find("dead-id gaps"), std::string::npos)
        << back.status().ToString();
  }
  auto mapped = MappedWsdDb::Open(path);  // the v3 bytes written last
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

class SerializeBinaryRandom : public ::testing::TestWithParam<int> {};

TEST_P(SerializeBinaryRandom, ExactRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7121 + 13);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeBinaryRandom,
                         ::testing::Range(0, 15));

// --- v1 compatibility pin ---------------------------------------------------
//
// tests/data/medical_v1.wsd is a checked-in text snapshot of the
// paper's medical example, written by the v1 writer when the binary
// format landed. v1 files must stay readable forever, and the v1
// writer must keep producing byte-identical output for the same
// database — both are asserted against the fixture.

TEST(SerializeCompatTest, V1FixtureLoadsAndRewritesBitIdentically) {
  std::string path = std::string(MAYBMS_TEST_DATA_DIR) + "/medical_v1.wsd";
  std::ifstream fixture(path, std::ios::binary);
  ASSERT_TRUE(fixture.good()) << "missing fixture " << path;
  std::stringstream raw;
  raw << fixture.rdbuf();

  auto loaded = LoadWsdDb(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MAYBMS_ASSERT_OK(loaded->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(MedicalExample(), *loaded);

  std::stringstream rewritten;
  MAYBMS_ASSERT_OK(WriteWsdDb(*loaded, rewritten));
  EXPECT_EQ(raw.str(), rewritten.str())
      << "v1 writer output drifted from the checked-in fixture";
}

// --- v2 compatibility pin ---------------------------------------------------
//
// tests/data/medical_v2.wsd is the same database written by the v2
// binary writer when v3 (sharded, mmap-able) became the default. Like
// v1, old v2 snapshots must stay readable, and WriteWsdDbBinary must
// keep producing byte-identical v2 output.

TEST(SerializeCompatTest, V2FixtureLoadsAndRewritesBitIdentically) {
  std::string path = std::string(MAYBMS_TEST_DATA_DIR) + "/medical_v2.wsd";
  std::ifstream fixture(path, std::ios::binary);
  ASSERT_TRUE(fixture.good()) << "missing fixture " << path;
  std::stringstream raw;
  raw << fixture.rdbuf();

  auto loaded = LoadWsdDb(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MAYBMS_ASSERT_OK(loaded->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(MedicalExample(), *loaded);

  std::stringstream rewritten;
  MAYBMS_ASSERT_OK(WriteWsdDbBinary(*loaded, rewritten));
  EXPECT_EQ(raw.str(), rewritten.str())
      << "v2 writer output drifted from the checked-in fixture";
}

// --- v3 (sharded) round trips -----------------------------------------------

TEST(SerializeV3Test, MedicalRoundTrip) {
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

TEST(SerializeV3Test, MultiShardRoundTripPreservesTupleOrder) {
  Rng rng(991);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  // Tiny shards: every relation splits into many blocks.
  db.mutable_options().rows_per_shard = 3;
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

class SerializeV3Random : public ::testing::TestWithParam<int> {};

TEST_P(SerializeV3Random, ExactRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40127 + 7);
  testing_util::RandomWsdOptions opt;
  opt.p_uncertain_cell = 0.5;
  opt.p_joint = 0.4;
  WsdDb db = testing_util::RandomWsd(&rng, opt);
  db.mutable_options().rows_per_shard = 1 + GetParam() % 5;
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
  auto back = ReadWsdDb(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  MAYBMS_ASSERT_OK(back->CheckInvariants());
  testing_util::ExpectDbsExactlyEqual(db, *back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeV3Random, ::testing::Range(0, 15));

TEST(SerializeV3Test, SaveDefaultsToV3AndKeepsV2Selectable) {
  WsdDb db = MedicalExample();
  std::string dir = ::testing::TempDir();
  std::string v3_path = dir + "/medical_default.wsd";
  std::string v2_path = dir + "/medical_v2_explicit.wsd";
  MAYBMS_ASSERT_OK(SaveWsdDb(db, v3_path, SnapshotFormat::kBinary));
  MAYBMS_ASSERT_OK(SaveWsdDb(db, v2_path, SnapshotFormat::kBinaryV2));

  auto header = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::string line;
    std::getline(in, line);
    return line;
  };
  EXPECT_EQ(header(v3_path), "MAYBMS-WSD 3");
  EXPECT_EQ(header(v2_path), "MAYBMS-WSD 2");
  for (const auto& p : {v3_path, v2_path}) {
    auto back = LoadWsdDb(p);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    testing_util::ExpectDbsExactlyEqual(db, *back);
  }
}

TEST(SerializeTest, CorruptedInputsFailCleanly) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return ReadWsdDb(ss).status().code();
  };
  EXPECT_EQ(parse(""), StatusCode::kParseError);
  EXPECT_EQ(parse("NOT-A-WSD 1"), StatusCode::kParseError);
  EXPECT_EQ(parse("MAYBMS-WSD 99"), StatusCode::kUnsupported);
  EXPECT_EQ(parse("MAYBMS-WSD 1\nOPTIONS x"), StatusCode::kParseError);
  // Truncated mid-component.
  WsdDb db = MedicalExample();
  std::stringstream ss;
  MAYBMS_ASSERT_OK(WriteWsdDb(db, ss));
  std::string full = ss.str();
  EXPECT_EQ(parse(full.substr(0, full.size() / 2)), StatusCode::kParseError);
  EXPECT_EQ(LoadWsdDb("/nonexistent/x.wsd").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace maybms
