#include "census.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/builder.h"
#include "gen/census.h"
#include "gen/noise.h"
#include "sql/session.h"
#include "storage/catalog.h"

namespace wsdbench {

using namespace maybms;

namespace {

constexpr size_t kRangeWidth = 50;  ///< PERNUM values per range predicate
constexpr double kZipfSkew = 1.0;

/// The paper's cleaning constraints C1-C4 as SQL.
const char* const kCleaning[] = {
    "ENFORCE CHECK (AGE >= 0 AND AGE <= 90) ON census",
    "ENFORCE CHECK (MARST <> 1 OR AGE >= 15) ON census",
    "ENFORCE CHECK (INCTOT >= 0) ON census",
    "ENFORCE KEY (PERNUM) ON census",
};

template <size_t N>
int64_t Pick(Rng* rng, const int64_t (&values)[N]) {
  return values[rng->NextZipf(N, kZipfSkew)];
}

}  // namespace

Result<WsdDb> BuildCleanCensus(size_t records, uint64_t seed,
                               uint64_t* flat_bytes) {
  WsdDb db;
  {
    ScopedSpan span("gen.census");
    Catalog cat;
    MAYBMS_RETURN_IF_ERROR(cat.Create(GenerateCensus({records, seed})));
    MAYBMS_RETURN_IF_ERROR(cat.Create(GenerateStates()));
    MAYBMS_ASSIGN_OR_RETURN(const Relation* census, cat.Get("census"));
    *flat_bytes = census->SerializedSize();
    db = FromCatalog(cat);
    NoiseOptions noise;
    noise.cell_fraction = 0.001;
    noise.wild_fraction = 0.15;  // some alternatives violate C1-C3
    noise.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    MAYBMS_RETURN_IF_ERROR(ApplyOrSetNoise(&db, "census", noise).status());
  }
  sql::Session session(std::move(db));
  session.mutable_options().durability.wal_enabled = false;
  for (const char* stmt : kCleaning) {
    ScopedSpan span("chase.enforce");
    MAYBMS_RETURN_IF_ERROR(session.Execute(stmt).status());
  }
  return std::move(session.db());
}

CensusFamily::CensusFamily(size_t records, uint64_t seed)
    : pool_(GenerateCensus({64, seed + 7})) {
  const size_t buckets = std::max<size_t>(1, records / kRangeWidth);
  bucket_of_rank_.resize(buckets);
  for (size_t i = 0; i < buckets; ++i) bucket_of_rank_[i] = i;
  // Seeded shuffle, so which ranges are hot differs between seeds.
  Rng rng(seed * 31 + 5);
  for (size_t i = buckets; i > 1; --i) {
    std::swap(bucket_of_rank_[i - 1], bucket_of_rank_[rng.NextBelow(i)]);
  }
}

CensusRead CensusFamily::NextRead(Rng* rng, size_t slot) const {
  const size_t rank = rng->NextZipf(bucket_of_rank_.size(), kZipfSkew);
  const int64_t lo =
      static_cast<int64_t>(bucket_of_rank_[rank] * kRangeWidth) + 1;
  const int64_t hi = lo + static_cast<int64_t>(kRangeWidth);
  const std::string range =
      StrFormat("PERNUM >= %lld AND PERNUM < %lld", static_cast<long long>(lo),
                static_cast<long long>(hi));
  static const int64_t kAges[] = {65, 30, 45, 18};
  static const int64_t kIncomes[] = {50000, 20000, 100000, 5000};
  CensusRead r;
  const size_t t = slot;
  if (t < 14) {  // Q1 selection, PROB()
    r.sql = StrFormat("SELECT AGE, PROB() FROM census WHERE %s AND AGE >= %lld",
                      range.c_str(), static_cast<long long>(Pick(rng, kAges)));
  } else if (t < 28) {  // point lookup, PROB()
    r.sql = StrFormat("SELECT MARST, PROB() FROM census WHERE PERNUM = %lld",
                      static_cast<long long>(lo + rng->NextBelow(kRangeWidth)));
  } else if (t < 38) {  // Q2 conjunctive selection, POSSIBLE
    r.sql = StrFormat(
        "POSSIBLE SELECT PERNUM, AGE FROM census WHERE %s AND SEX = 1 AND "
        "AGE < %lld",
        range.c_str(), static_cast<long long>(Pick(rng, kAges)));
  } else if (t < 48) {  // Q3 selection + projection, APPROX CONF
    const long long inc = Pick(rng, kIncomes);
    r.sql = StrFormat(
        "SELECT STATEFIP, APPROX CONF(0.05, 0.05) FROM census WHERE %s AND "
        "INCTOT > %lld",
        range.c_str(), inc);
    r.exact_sql = StrFormat(
        "SELECT STATEFIP, PROB() FROM census WHERE %s AND INCTOT > %lld",
        range.c_str(), inc);
  } else if (t < 58) {  // Q4 census JOIN states, CERTAIN
    const std::string crange =
        StrFormat("c.PERNUM >= %lld AND c.PERNUM < %lld",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    static const char* const kRegions[] = {"West", "South", "Midwest",
                                           "Northeast"};
    r.sql = StrFormat(
        "CERTAIN SELECT c.PERNUM, s.NAME FROM census c, states s WHERE "
        "c.STATEFIP = s.STATEFIP AND s.REGION = '%s' AND %s",
        kRegions[rng->NextZipf(4, kZipfSkew)], crange.c_str());
  } else if (t < 68) {  // Q5 DISTINCT, PROB()
    r.sql = StrFormat(
        "SELECT DISTINCT MARST, PROB() FROM census WHERE %s AND AGE > %lld",
        range.c_str(), static_cast<long long>(Pick(rng, kAges)));
  } else if (t < 78) {  // Q6 UNION, world-set answer
    r.sql = StrFormat(
        "SELECT PERNUM FROM census WHERE %s AND VETSTAT = 1 UNION "
        "SELECT PERNUM FROM census WHERE %s AND FARM = 1",
        range.c_str(), range.c_str());
  } else if (t < 90) {  // ESUM over a range
    r.sql = StrFormat("SELECT ESUM(INCTOT) FROM census WHERE %s",
                      range.c_str());
  } else {  // full scan, ECOUNT
    r.sql = StrFormat("SELECT ECOUNT() FROM census WHERE AGE > %lld",
                      static_cast<long long>(Pick(rng, kAges)));
  }
  return r;
}

std::string CensusFamily::Insert(Rng* rng, int64_t pernum) const {
  constexpr size_t kAge = 1, kMarst = 3;
  const Tuple& row = pool_.row(rng->NextBelow(pool_.NumRows()));
  std::string sql = "INSERT INTO census VALUES (";
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) sql += ", ";
    const long long v = row[c].as_int();
    if (c == 0) {
      sql += std::to_string(pernum);
    } else if (c == kAge) {
      const long long alt = v < 90 ? v + 1 : v - 1;
      sql += StrFormat("{%lld: 0.7, %lld: 0.3}", v, alt);
    } else if (c == kMarst) {
      sql += StrFormat("{%lld: 0.6, %lld: 0.4}", v, (v + 1) % 6);
    } else {
      sql += std::to_string(v);
    }
  }
  return sql + ")";
}

}  // namespace wsdbench
