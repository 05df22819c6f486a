// Snapshot round-trip fuzz: random world-set databases pushed through
// text → binary → text must come back *exactly* — same templates, same
// packed cells, bit-identical probabilities, same options — and the two
// text renderings must be byte-identical. A second pass hammers the
// binary reader with truncations and random byte flips: every corrupted
// input must produce a Status error, never a crash or a hang.
//
// Iteration count: MAYBMS_SNAPSHOT_FUZZ_ITERS (default 60). The
// `snapshot_fuzz_long` CTest entry (label "fuzz") raises it for the CI
// sanitizer matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/mapped_db.h"
#include "core/serialize.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

size_t FuzzIters() {
  const char* env = std::getenv("MAYBMS_SNAPSHOT_FUZZ_ITERS");
  if (!env) return 60;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : 60;
}

WsdDb RandomDb(Rng* rng, uint64_t iter) {
  testing_util::RandomWsdOptions opt;
  opt.num_relations = 1 + rng->NextBelow(3);
  opt.max_tuples = 2 + rng->NextBelow(7);
  opt.p_uncertain_cell = 0.2 + 0.6 * rng->NextDouble();
  opt.p_joint = 0.5 * rng->NextDouble();
  opt.allow_strings = (iter % 4) != 3;  // every 4th db is string-free
  WsdDb db = testing_util::RandomWsd(rng, opt);
  // Exercise non-default options and id gaps occasionally.
  if (rng->NextBernoulli(0.3)) {
    db.mutable_options().max_component_rows = 1u << (10 + rng->NextBelow(6));
  }
  if (rng->NextBernoulli(0.3) && db.NumLiveComponents() >= 2) {
    auto live = db.LiveComponents();
    auto merged = db.MergeComponents({live[0], live[1]}, 1u << 16);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  }
  return db;
}

TEST(SnapshotFuzzTest, TextBinaryTextRoundTripIsExact) {
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(i * 9176 + 1031);
    WsdDb db = RandomDb(&rng, i);

    std::stringstream text1;
    MAYBMS_ASSERT_OK(WriteWsdDb(db, text1));
    auto from_text = ReadWsdDb(text1);
    ASSERT_TRUE(from_text.ok()) << "iter " << i << ": "
                                << from_text.status().ToString();

    std::stringstream binary;
    MAYBMS_ASSERT_OK(WriteWsdDbBinary(*from_text, binary));
    auto from_binary = ReadWsdDb(binary);
    ASSERT_TRUE(from_binary.ok()) << "iter " << i << ": "
                                  << from_binary.status().ToString();
    MAYBMS_ASSERT_OK(from_binary->CheckInvariants());

    testing_util::ExpectDbsExactlyEqual(db, *from_binary);

    std::stringstream text2;
    MAYBMS_ASSERT_OK(WriteWsdDb(*from_binary, text2));
    ASSERT_EQ(text1.str(), text2.str())
        << "iter " << i << ": text rendering drifted across the binary hop";
  }
}

TEST(SnapshotFuzzTest, CorruptedBinaryInputsNeverCrash) {
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(i * 5147 + 97);
    WsdDb db = RandomDb(&rng, i);
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinary(db, ss));
    const std::string full = ss.str();
    ASSERT_FALSE(full.empty());

    for (int mutation = 0; mutation < 24; ++mutation) {
      std::string bad = full;
      switch (rng.NextBelow(3)) {
        case 0:  // truncate at a random point
          bad.resize(rng.NextBelow(bad.size()));
          break;
        case 1: {  // flip one random byte
          size_t pos = rng.NextBelow(bad.size());
          bad[pos] = static_cast<char>(
              bad[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
          break;
        }
        default: {  // overwrite a random 8-byte window (length fields)
          size_t pos = rng.NextBelow(bad.size());
          for (size_t k = pos; k < bad.size() && k < pos + 8; ++k) {
            bad[k] = static_cast<char>(rng.NextBelow(256));
          }
          break;
        }
      }
      if (bad == full) continue;
      std::stringstream in(bad);
      auto r = ReadWsdDb(in);
      // Reaching here without crashing is the point; a mutated snapshot
      // that still parses must at least hold the structural invariants.
      if (r.ok()) {
        MAYBMS_EXPECT_OK(r->CheckInvariants());
      }
    }
  }
}

// The same corruption hammer against the v3 sharded format, through
// its one reader from both entry points: ReadWsdDb on a stream and
// MappedWsdDb::Open on a file (which trusts block checksums lazily, so
// corruption it does not catch at open time must surface as an error —
// or an invariant-clean database — when the blocks are materialized). The mutation windows are biased
// toward the file head, where the shard directory and its offset
// tables live.
TEST(SnapshotFuzzTest, CorruptedV3InputsNeverCrashEitherReader) {
  const size_t iters = FuzzIters();
  char tmpl[] = "/tmp/maybms_v3_fuzz_XXXXXX";
  int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = tmpl;

  for (size_t i = 0; i < iters; ++i) {
    Rng rng(i * 7829 + 271);
    WsdDb db = RandomDb(&rng, i);
    // Small shards so SDIR carries several offset-table entries.
    db.mutable_options().rows_per_shard = 1 + rng.NextBelow(4);
    std::stringstream ss;
    MAYBMS_ASSERT_OK(WriteWsdDbBinaryV3(db, ss));
    const std::string full = ss.str();
    ASSERT_FALSE(full.empty());

    for (int mutation = 0; mutation < 24; ++mutation) {
      std::string bad = full;
      // Half the mutations target the first quarter of the file — the
      // headers, string table and shard directory.
      size_t window =
          mutation % 2 == 0 ? std::max<size_t>(1, bad.size() / 4) : bad.size();
      switch (rng.NextBelow(3)) {
        case 0:
          bad.resize(rng.NextBelow(bad.size()));
          break;
        case 1: {
          size_t pos = rng.NextBelow(window);
          bad[pos] = static_cast<char>(
              bad[pos] ^ static_cast<char>(1 + rng.NextBelow(255)));
          break;
        }
        default: {
          size_t pos = rng.NextBelow(window);
          for (size_t k = pos; k < bad.size() && k < pos + 8; ++k) {
            bad[k] = static_cast<char>(rng.NextBelow(256));
          }
          break;
        }
      }
      if (bad == full) continue;

      std::stringstream in(bad);
      auto r = ReadWsdDb(in);
      if (r.ok()) {
        MAYBMS_EXPECT_OK(r->CheckInvariants());
      }

      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
      }
      auto mapped = MappedWsdDb::Open(path);
      if (mapped.ok()) {
        auto all = mapped->MaterializeAll();
        if (all.ok()) {
          MAYBMS_EXPECT_OK(all->CheckInvariants());
        }
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maybms
