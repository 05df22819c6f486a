// Shared machinery of the lifted operators. Internal header — not part of
// the public API.
#ifndef MAYBMS_CORE_LIFTED_INTERNAL_H_
#define MAYBMS_CORE_LIFTED_INTERNAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/normalize.h"
#include "core/wsd.h"
#include "ra/expr.h"
#include "ra/expr_compile.h"

namespace maybms {
namespace lifted_internal {

/// Storage-name prefix of the scan copies ExecuteLifted makes of the
/// base relations a plan reads. A copy no operator has consumed yet is
/// the database's input as stored, which scoped normalization leaves as
/// it is until an operator reads it.
inline constexpr char kScanCopyPrefix[] = "__scan_";

/// Normalizes the part of `db` an operator touched (`owners` may be
/// null: a locator over `db` is made for the call), then runs the
/// scoped-normalization cross-check when tests installed one (see
/// SetScopedNormalizeCheckForTesting in core/lifted.h).
Status FinishOperator(WsdDb* db, const NormalizeScope& touched,
                      OwnerLocator* owners);

/// Splits nested ANDs into their conjuncts, in evaluation order.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// owner -> components carrying ⊥ on a slot owned by that owner. Build
/// once per operator; per-tuple queries then cost O(|deps|).
using BottomGatingIndex =
    std::unordered_map<OwnerId, std::vector<ComponentId>>;
BottomGatingIndex BuildBottomGatingIndex(const WsdDb& db);

/// Gating components of `deps` via the index (sorted, deduplicated).
std::vector<ComponentId> LookupBottomGating(
    const BottomGatingIndex& index, const std::vector<OwnerId>& deps);

/// A template cell resolved for packed row kernels over one component:
/// either a pre-packed certain value (strings interned once, not per
/// row) or the component slot the cell reads. Shared by the FD/key
/// conditioner and the match-kill backbone.
struct PackedCellView {
  bool certain = false;
  PackedValue value;
  uint32_t slot = 0;
};

/// Packs one cell. When `expect_cid` != kInvalidComponent, ref cells
/// must point into that component (checked).
PackedCellView MakeCellView(const Cell& cell, ComponentId expect_cid);

/// Binds a compiled program's input slots against one component: inputs
/// listed in `ref_cols` (bound column -> component slot) read the packed
/// component column in place, all other (certain) inputs are packed from
/// `eval_buf` once and broadcast. `broadcast` is the stable backing store
/// for the packed certains; it must outlive the evaluation.
void BindComponentInputs(
    const Component& m, const CompiledExpr& prog,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    const Tuple& eval_buf, std::vector<ExprInput>* inputs,
    std::vector<PackedValue>* broadcast);

/// A lowered expression with reusable evaluation scratch (registers,
/// result/fallback buffers): one instance is shared across the per-tuple
/// batches of an operator so the hot loop never reallocates. Heap-pinned
/// (unique_ptr, non-movable) because the evaluator points into `prog`.
struct CompiledEval {
  explicit CompiledEval(CompiledExpr p) : prog(std::move(p)), eval(&prog) {}
  CompiledEval(const CompiledEval&) = delete;
  CompiledEval& operator=(const CompiledEval&) = delete;

  CompiledExpr prog;
  ExprBatchEvaluator eval;
  std::vector<ExprInput> inputs;
  std::vector<PackedValue> broadcast;
  std::vector<PackedValue> results;
  std::vector<size_t> fallback;
};
using CompiledEvalPtr = std::unique_ptr<CompiledEval>;

/// Lowers `e` when compilation is enabled and possible; nullptr otherwise.
CompiledEvalPtr TryCompile(const Expr& e, const ExecOptions& opts);

/// Evaluates ce->prog over every row of `m` (ref_cols/eval_buf as in
/// BindComponentInputs), sharding over the thread pool for batches at or
/// above opts.parallel_row_threshold. Fills ce->results (NumRows entries)
/// and ce->fallback (ascending row indexes needing Expr::Eval).
void EvalOverComponent(const Component& m,
                       const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
                       const Tuple& eval_buf, const ExecOptions& opts,
                       CompiledEval* ce);

/// True when every cell of the tuple is certain.
bool FullyCertain(const WsdTuple& t);

/// True when both tuples are fully certain with equal values.
bool CertainlyEqual(const WsdTuple& a, const WsdTuple& b);

/// Disjoint-set merge planner: operators register groups of components
/// that must end up in one component; Execute() merges each connected
/// group once and remaps all template cells in a single pass.
class MergePlanner {
 public:
  /// Registers that all components in `cids` must be merged together.
  void Require(const std::vector<ComponentId>& cids);

  /// Performs the merges. After this call, Resolve() maps any registered
  /// component to its merged component. The merged components are added
  /// to `touched` when given.
  Status Execute(WsdDb* db, NormalizeScope* touched = nullptr);

  /// The error Execute would return for exceeding the component-row
  /// budget (or for a dead component), without merging anything; OK
  /// when Execute would succeed.
  Status CheckBudget(const WsdDb& db);

  /// The merged id for `cid` (identity when never registered).
  ComponentId Resolve(ComponentId cid) const;

  bool executed() const { return executed_; }

 private:
  ComponentId Find(ComponentId c);
  /// Groups of two or more components to merge, in Execute's order; the
  /// root of each lands in `roots`. Singleton groups map to themselves.
  std::vector<std::vector<ComponentId>> Groups(std::vector<ComponentId>* roots);
  std::unordered_map<ComponentId, ComponentId> parent_;
  std::unordered_map<ComponentId, ComponentId> merged_;  // root -> new id
  bool executed_ = false;
};

/// Filters the tuples of `rel_name` in place by a predicate already bound
/// against the relation's schema: tuples are kept exactly in the worlds
/// where the predicate evaluates to true. Implements the paper's
/// selection, including component merging for multi-component predicates.
///
/// Certain conjuncts first: per tuple, the predicate's leading conjuncts
/// over certain cells are evaluated in the order AND evaluates them, and
/// a false one drops the tuple before merge planning, so it never
/// touches a component. The walk ends at the first conjunct that reads an
/// uncertain cell, errors, or yields anything but true or NULL, and
/// leaves the tuple to the full evaluation. So a statement fails exactly
/// when (and with the same Status as) it would without the walk; the
/// merge budget is still checked over every tuple. A tuple no component
/// row lets pass is dropped at once.
///
/// Every tuple the filter read or changed, kept or dropped, is added to
/// `touched` (the scope of the normalization that follows).
///
/// The per-world evaluation loops run on the compiled vectorized
/// evaluator (ra/expr_compile.h) directly over the component's packed
/// columns when `opts.compile_expressions` is set and the predicate
/// compiles; otherwise (and for rows the compiled program cannot decide)
/// they fall back to Expr::Eval row by row, so the two modes agree by
/// construction.
Status FilterRelationInPlace(WsdDb* db, const std::string& rel_name,
                             const ExprPtr& bound_pred,
                             const ExecOptions& opts, NormalizeScope* touched);

/// The distinct non-⊥ values a cell can take (single value for certain
/// cells, slot values otherwise).
std::vector<Value> PossibleCellValues(const WsdDb& db, const Cell& cell);

/// True when two cells can hold equal values in some world (conservative:
/// may return true for cells that never coexist).
bool CellsPossiblyEqual(const WsdDb& db, const Cell& a, const Cell& b);

/// Adds to each tuple listed in `targets` an existence slot that kills it
/// in exactly the worlds where some of its `sources` tuples is alive
/// (w.r.t. the snapshot deps) and has values equal to the target's.
/// Shared backbone of LiftedDifference and LiftedDistinct.
struct MatchKillSpec {
  std::string target_rel;
  size_t target_idx = 0;
  /// Sources: (relation, tuple index, snapshot deps to use for aliveness).
  struct Source {
    std::string rel;
    size_t idx = 0;
    std::vector<OwnerId> deps;
  };
  std::vector<Source> sources;
};

/// The tuples it removes and the components it changes are added to
/// `touched`.
Status ApplyMatchKills(WsdDb* db, const std::vector<MatchKillSpec>& specs,
                       NormalizeScope* touched);

}  // namespace lifted_internal
}  // namespace maybms

#endif  // MAYBMS_CORE_LIFTED_INTERNAL_H_
