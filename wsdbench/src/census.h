// The census scenario shared by census_mapped and census_serve: building
// the cleaned world-set database, and the seeded, Zipf-skewed statement
// family both workloads send as SQL text.
#ifndef WSDBENCH_CENSUS_H_
#define WSDBENCH_CENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/wsd.h"
#include "storage/relation.h"

namespace wsdbench {

/// Generates `records` synthetic census records plus the states table,
/// turns 0.1% of the cells into or-sets, and cleans the result with the
/// paper's constraints C1-C4 through SQL ENFORCE. (C5, CITY -> STATEFIP,
/// removes all probability mass on the generated data and is left out.)
/// `flat_bytes` receives the flat size of the certain census relation.
/// Spans: gen.census, chase.enforce.
Result<maybms::WsdDb> BuildCleanCensus(size_t records, uint64_t seed,
                                       uint64_t* flat_bytes);

/// One generated read statement.
struct CensusRead {
  std::string sql;
  /// For APPROX CONF statements: the same query with exact PROB(), whose
  /// answer must fall inside every returned interval.
  std::string exact_sql;
};

/// The read/write statement family over census(+states). Reads cover the
/// paper's Q1-Q6 shapes (selection, conjunctive selection, projection,
/// census JOIN states, DISTINCT, UNION) in every answer mode (world-set,
/// POSSIBLE, CERTAIN, PROB(), ECOUNT, ESUM, APPROX CONF). Most restrict
/// a Zipf-drawn PERNUM range (so a mapped load prunes shards and a
/// minority of statements repeat exactly); one in ten scans the whole
/// relation.
class CensusFamily {
 public:
  CensusFamily(size_t records, uint64_t seed);

  /// Statement kinds are drawn by `slot` in [0, kSlots): a Deck of
  /// kSlots cards gives every block of kSlots reads the same mix.
  static constexpr size_t kSlots = 100;
  CensusRead NextRead(maybms::Rng* rng, size_t slot) const;
  /// An INSERT of one census row with person number `pernum` and two
  /// or-set cells (AGE, MARST).
  std::string Insert(maybms::Rng* rng, int64_t pernum) const;

 private:
  std::vector<uint32_t> bucket_of_rank_;
  maybms::Relation pool_;
};

}  // namespace wsdbench

#endif  // WSDBENCH_CENSUS_H_
