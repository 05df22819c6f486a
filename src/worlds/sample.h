// Monte-Carlo world sampling: draws worlds from the distribution defined
// by a probabilistic WSD. Complements exact confidence computation when
// independence clusters exceed the enumeration budget — an approximate
// prob() with standard-error guarantees (a MayBMS-line extension).
#ifndef MAYBMS_WORLDS_SAMPLE_H_
#define MAYBMS_WORLDS_SAMPLE_H_

#include <functional>

#include "common/result.h"
#include "common/rng.h"
#include "core/wsd.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace maybms {

/// Draws one world: independently samples a row per component according
/// to the row probabilities and resolves the templates.
Catalog SampleWorld(const WsdDb& db, Rng* rng);

/// Streams `n` sampled worlds through `fn` (each a fair draw from the
/// world distribution).
Status SampleWorlds(const WsdDb& db, size_t n, Rng* rng,
                    const std::function<Status(const Catalog&)>& fn);

struct SampleConfOptions {
  /// Monte-Carlo draws per independence cluster.
  size_t samples = 10000;
  /// Seed of the deterministic sampling streams.
  uint64_t seed = 42;
  /// Worker threads (0 = hardware default). Never affects results.
  size_t num_threads = 0;
  /// Clusters at most this many joint states are computed exactly.
  size_t exact_state_limit = 4096;
};

/// Monte-Carlo estimate of the confidence table of `rel` (same schema as
/// ConfTable: the relation's columns plus a trailing "conf" DOUBLE).
/// Streams per-cluster samples through the core/approx_conf engine —
/// worlds are never materialized, cluster estimates combine by the
/// independence product, and results are bit-identical for a fixed seed
/// regardless of thread count. Standard error of each estimate is
/// ≤ 0.5/sqrt(samples).
Result<Relation> EstimateConfidenceBySampling(
    const WsdDb& db, const std::string& rel,
    const SampleConfOptions& options = {});

/// The original estimator: materializes `samples` full worlds as
/// `Catalog`s and counts per-world vector frequencies. Quadratically
/// more expensive than the streaming path (every sample resolves every
/// component of the database); kept as the differential test oracle for
/// EstimateConfidenceBySampling.
Result<Relation> ApproximateConfTableByWorlds(const WsdDb& db,
                                              const std::string& rel,
                                              size_t samples,
                                              uint64_t seed = 42);

/// The most probable world: picks the highest-probability row of every
/// component (exact for WSDs, since components are independent). Returns
/// the resolved database and its probability.
struct MapWorld {
  Catalog catalog;
  double prob = 1.0;
};
Result<MapWorld> MostProbableWorld(const WsdDb& db);

}  // namespace maybms

#endif  // MAYBMS_WORLDS_SAMPLE_H_
