// Lifted relational algebra over world-set decompositions.
//
// Each operator consumes its input relation(s) inside the WsdDb (they are
// removed or renamed) and produces the `output` relation in the same
// database, preserving the semantics: evaluating the operator in every
// world of the input WSD yields exactly the worlds of the output WSD,
// probabilities included. The differential tests in tests/ verify this
// against explicit world enumeration.
//
// Selection follows the paper's algorithm: tuples whose predicate can be
// decided per-world get their fields marked with ⊥ in the failing worlds
// (in place when the tuple exclusively owns its slots, via a synthetic
// existence slot otherwise), and normalization restores the compact form.
//
// Each operator ends with a scoped normalization (core/normalize.h) over
// the components of the tuples it read and wrote — its inputs, its
// output, and the tuples it removed — so its cost follows what it
// touched, not the database. `owners` locates the components a tuple is
// gated by; ExecuteLifted passes one locator through a whole plan. When
// it is null, the operator makes one over `db`.
#ifndef MAYBMS_CORE_LIFTED_H_
#define MAYBMS_CORE_LIFTED_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/normalize.h"
#include "core/wsd.h"
#include "ra/expr_compile.h"
#include "ra/plan.h"

namespace maybms {

/// σ: keeps input tuples only in the worlds where `pred` holds. The
/// per-world predicate loops run on the compiled vectorized evaluator
/// over packed component columns (see ra/expr_compile.h), governed by
/// `opts`; rows/predicates the compiler cannot decide fall back to the
/// interpreter, so both modes agree by construction.
Status LiftedSelect(WsdDb* db, const std::string& input, const ExprPtr& pred,
                    const std::string& output, const ExecOptions& opts = {},
                    OwnerLocator* owners = nullptr);

/// π (bag semantics): projects onto the given expressions. Column
/// references are free; computed expressions over uncertain fields add
/// slots to (merged) components, evaluated batched over packed columns
/// under `opts` with the same interpreter-fallback contract as σ.
Status LiftedProject(WsdDb* db, const std::string& input,
                     const std::vector<ProjectItem>& items,
                     const std::string& output, const ExecOptions& opts = {},
                     OwnerLocator* owners = nullptr);

/// ×: pairs tuples within each world; pair existence = both exist.
Status LiftedProduct(WsdDb* db, const std::string& left,
                     const std::string& right, const std::string& output,
                     OwnerLocator* owners = nullptr);

/// ⋈: product restricted by `pred`, with a hash fast path for equi-join
/// conjuncts whose key cells are certain. The predicate application runs
/// on the compiled evaluator under `opts`, like σ.
Status LiftedJoin(WsdDb* db, const std::string& left, const std::string& right,
                  const ExprPtr& pred, const std::string& output,
                  const ExecOptions& opts = {}, OwnerLocator* owners = nullptr);

/// ∪ (bag): concatenation; schemas must have equal arity and types.
Status LiftedUnion(WsdDb* db, const std::string& left,
                   const std::string& right, const std::string& output,
                   OwnerLocator* owners = nullptr);

/// − (anti-join semantics, as in SQL EXCEPT evaluated per world): a left
/// tuple survives in a world iff no right tuple with equal values exists
/// in that world. Left multiplicity is preserved; NULLs compare equal.
Status LiftedDifference(WsdDb* db, const std::string& left,
                        const std::string& right, const std::string& output,
                        OwnerLocator* owners = nullptr);

/// δ: per-world duplicate elimination. Among tuples with equal values in
/// a world, only the first survives.
Status LiftedDistinct(WsdDb* db, const std::string& input,
                      const std::string& output,
                      OwnerLocator* owners = nullptr);

/// Renames/moves a relation inside the database.
Status RenameRelation(WsdDb* db, const std::string& from,
                      const std::string& to);

/// Test-only cross-check of scoped normalization, not a user setting:
/// while set, every lifted operator calls `check` with its database right
/// after its scoped normalization (except while scan copies the plan has
/// not read yet remain: they hold the input as stored, which need not be
/// normal). The tests' check runs a full Normalize on a copy and asserts
/// the two databases are exactly equal. Set it before starting threads.
using ScopedNormalizeCheck = void (*)(const WsdDb& db);
void SetScopedNormalizeCheckForTesting(ScopedNormalizeCheck check);

}  // namespace maybms

#endif  // MAYBMS_CORE_LIFTED_H_
