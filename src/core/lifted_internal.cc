#include "core/lifted_internal.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "core/lifted.h"

namespace maybms {
namespace lifted_internal {

namespace {

std::atomic<ScopedNormalizeCheck> g_normalize_check{nullptr};

}  // namespace

Status FinishOperator(WsdDb* db, const NormalizeScope& touched,
                      OwnerLocator* owners) {
  std::optional<OwnerLocator> local;
  if (owners == nullptr) owners = &local.emplace(*db);
  MAYBMS_ASSIGN_OR_RETURN(NormalizeStats stats,
                          Normalize(db, touched, owners));
  (void)stats;
  ScopedNormalizeCheck check = g_normalize_check.load();
  if (check == nullptr) return Status::OK();
  // Unread scan copies hold the input as stored, which need not be
  // normal; the check can only hold once every copy has been read.
  for (const auto& [key, rel] : db->relations()) {
    if (StartsWith(key, kScanCopyPrefix)) return Status::OK();
  }
  check(*db);
  return Status::OK();
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kAnd) {
    SplitConjuncts(e->left(), out);
    SplitConjuncts(e->right(), out);
  } else {
    out->push_back(e);
  }
}

BottomGatingIndex BuildBottomGatingIndex(const WsdDb& db) {
  BottomGatingIndex index;
  for (ComponentId id : db.LiveComponents()) {
    const Component& c = db.component(id);
    std::unordered_set<OwnerId> done;
    for (uint32_t s = 0; s < c.NumSlots(); ++s) {
      OwnerId owner = c.slot(s).owner;
      if (done.count(owner)) continue;
      for (const PackedValue& v : c.column(s)) {
        if (v.is_bottom()) {
          index[owner].push_back(id);
          done.insert(owner);
          break;
        }
      }
    }
  }
  return index;
}

std::vector<ComponentId> LookupBottomGating(
    const BottomGatingIndex& index, const std::vector<OwnerId>& deps) {
  std::vector<ComponentId> out;
  for (OwnerId o : deps) {
    auto it = index.find(o);
    if (it != index.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

PackedCellView MakeCellView(const Cell& cell, ComponentId expect_cid) {
  if (cell.is_certain()) {
    return {true, PackedValue::FromValue(cell.value()), 0};
  }
  MAYBMS_CHECK(expect_cid == kInvalidComponent ||
               cell.ref().cid == expect_cid);
  return {false, PackedValue(), cell.ref().slot};
}

bool FullyCertain(const WsdTuple& t) {
  for (const auto& cell : t.cells) {
    if (!cell.is_certain()) return false;
  }
  return true;
}

bool CertainlyEqual(const WsdTuple& a, const WsdTuple& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t c = 0; c < a.cells.size(); ++c) {
    if (!a.cells[c].is_certain() || !b.cells[c].is_certain() ||
        !(a.cells[c].value() == b.cells[c].value())) {
      return false;
    }
  }
  return true;
}

ComponentId MergePlanner::Find(ComponentId c) {
  auto it = parent_.find(c);
  if (it == parent_.end()) {
    parent_[c] = c;
    return c;
  }
  // Path compression over the map.
  ComponentId root = c;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[c] != root) {
    ComponentId next = parent_[c];
    parent_[c] = root;
    c = next;
  }
  return root;
}

void MergePlanner::Require(const std::vector<ComponentId>& cids) {
  MAYBMS_CHECK(!executed_) << "MergePlanner reused after Execute";
  if (cids.size() < 2) {
    if (cids.size() == 1) Find(cids[0]);
    return;
  }
  ComponentId first = Find(cids[0]);
  for (size_t i = 1; i < cids.size(); ++i) {
    parent_[Find(cids[i])] = first = Find(first);
  }
}

std::vector<std::vector<ComponentId>> MergePlanner::Groups(
    std::vector<ComponentId>* roots) {
  // Collect groups. Find mutates parent_, so gather keys first.
  std::unordered_map<ComponentId, std::vector<ComponentId>> groups;
  std::vector<ComponentId> keys;
  keys.reserve(parent_.size());
  for (const auto& [cid, p] : parent_) keys.push_back(cid);
  for (ComponentId cid : keys) groups[Find(cid)].push_back(cid);
  std::vector<std::vector<ComponentId>> batch;
  for (auto& [root, members] : groups) {
    if (members.size() < 2) {
      merged_[root] = members[0];
      continue;
    }
    roots->push_back(root);
    batch.push_back(std::move(members));
  }
  return batch;
}

Status MergePlanner::Execute(WsdDb* db, NormalizeScope* touched) {
  MAYBMS_CHECK(!executed_);
  executed_ = true;
  // Batch all real merges into one MergeComponentGroups call so the
  // template remap is a single pass.
  std::vector<ComponentId> roots;
  std::vector<std::vector<ComponentId>> batch = Groups(&roots);
  if (!batch.empty()) {
    MAYBMS_ASSIGN_OR_RETURN(
        std::vector<ComponentId> merged,
        db->MergeComponentGroups(batch, db->options().max_component_rows));
    for (size_t i = 0; i < roots.size(); ++i) merged_[roots[i]] = merged[i];
    if (touched != nullptr) {
      touched->components.insert(touched->components.end(), merged.begin(),
                                 merged.end());
    }
  }
  return Status::OK();
}

Status MergePlanner::CheckBudget(const WsdDb& db) {
  MAYBMS_CHECK(!executed_);
  std::vector<ComponentId> roots;
  // The same groups, in the same order, and the same checks as
  // WsdDb::MergeComponentGroups and Component::Product.
  for (std::vector<ComponentId> ids : Groups(&roots)) {
    std::sort(ids.begin(), ids.end());
    for (ComponentId id : ids) {
      if (!db.IsLive(id)) {
        return Status::Internal(StrFormat("merging dead component %u", id));
      }
    }
    size_t rows = db.component(ids[0]).NumRows();
    for (size_t k = 1; k < ids.size(); ++k) {
      MAYBMS_ASSIGN_OR_RETURN(
          rows, Component::ProductRows(rows, db.component(ids[k]).NumRows(),
                                       db.options().max_component_rows));
    }
  }
  merged_.clear();
  return Status::OK();
}

ComponentId MergePlanner::Resolve(ComponentId cid) const {
  MAYBMS_CHECK(executed_);
  // Non-const Find not available here; walk without compression.
  auto it = parent_.find(cid);
  if (it == parent_.end()) return cid;
  ComponentId root = cid;
  while (true) {
    auto pit = parent_.find(root);
    if (pit == parent_.end() || pit->second == root) break;
    root = pit->second;
  }
  auto mit = merged_.find(root);
  return mit == merged_.end() ? cid : mit->second;
}

void BindComponentInputs(
    const Component& m, const CompiledExpr& prog,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    const Tuple& eval_buf, std::vector<ExprInput>* inputs,
    std::vector<PackedValue>* broadcast) {
  inputs->assign(prog.columns().size(), ExprInput{});
  broadcast->clear();
  broadcast->reserve(prog.columns().size());
  for (size_t s = 0; s < prog.columns().size(); ++s) {
    const size_t c = prog.columns()[s];
    const std::pair<size_t, uint32_t>* ref = nullptr;
    for (const auto& rc : ref_cols) {
      if (rc.first == c) {
        ref = &rc;
        break;
      }
    }
    if (ref) {
      (*inputs)[s] = {m.column(ref->second).data(), false};
    } else {
      broadcast->push_back(PackedValue::FromValue(eval_buf[c]));
      (*inputs)[s] = {&broadcast->back(), true};
    }
  }
}

CompiledEvalPtr TryCompile(const Expr& e, const ExecOptions& opts) {
  if (!opts.compile_expressions) return nullptr;
  auto prog = CompiledExpr::Compile(e);
  if (!prog) return nullptr;
  return std::make_unique<CompiledEval>(std::move(*prog));
}

void EvalOverComponent(
    const Component& m,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    const Tuple& eval_buf, const ExecOptions& opts, CompiledEval* ce) {
  const size_t n = m.NumRows();
  BindComponentInputs(m, ce->prog, ref_cols, eval_buf, &ce->inputs,
                      &ce->broadcast);
  ce->results.resize(n);
  ce->fallback.clear();
  const size_t threads =
      opts.num_threads ? opts.num_threads : DefaultNumThreads();
  if (n >= opts.parallel_row_threshold && threads > 1) {
    EvalBatchAuto(ce->prog, ce->inputs.data(), n, ce->results.data(),
                  &ce->fallback, opts);
  } else {
    ce->eval.Eval(ce->inputs.data(), 0, n, ce->results.data(),
                  &ce->fallback);
  }
}

namespace {

// Per-component-row outcome of a tuple's predicate: the tuple is absent
// in the row's worlds (a referenced slot holds ⊥), satisfies the
// predicate, or fails it.
enum class RowVerdict : uint8_t { kDead = 0, kPass = 1, kFail = 2 };

// Interpreted reference kernel: evaluates the predicate row by row via
// Expr::Eval, gathering referenced slots into `eval_buf` (whose certain
// predicate inputs are already loaded). Kept as the single source of
// truth; the compiled kernel below must agree with it.
Status RowVerdictsInterpreted(
    const Component& m, const ExprPtr& pred,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    Tuple* eval_buf, std::vector<RowVerdict>* verdicts) {
  for (size_t r = 0; r < m.NumRows(); ++r) {
    bool dead = false;
    for (const auto& [c, slot] : ref_cols) {
      const PackedValue& v = m.packed(r, slot);
      if (v.is_bottom()) {
        dead = true;
        break;
      }
      (*eval_buf)[c] = v.ToValue();
    }
    if (dead) {
      (*verdicts)[r] = RowVerdict::kDead;
      continue;
    }
    MAYBMS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, *eval_buf));
    (*verdicts)[r] = pass ? RowVerdict::kPass : RowVerdict::kFail;
  }
  return Status::OK();
}

// Compiled kernel: one vectorized pass directly over the component's
// packed columns (certain predicate inputs broadcast), optionally sharded
// over the thread pool. Rows the program flags are re-evaluated through
// the interpreter, which also reproduces its error behavior: the first
// erroring live row is the same in both modes because every row on which
// Expr::Eval errors is flagged by the program, and flagged rows are
// re-run in ascending order.
Status RowVerdictsCompiled(
    const Component& m, const ExprPtr& pred, CompiledEval* ce,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    Tuple* eval_buf, const ExecOptions& opts,
    std::vector<RowVerdict>* verdicts) {
  const size_t n = m.NumRows();
  if (n == 0) return Status::OK();

  EvalOverComponent(m, ref_cols, *eval_buf, opts, ce);
  std::vector<PackedValue>& results = ce->results;
  std::vector<size_t>& fallback = ce->fallback;

  // Non-bool results (e.g. a bare integer predicate) are errors in
  // EvalPredicate too, so they join the program-flagged rows.
  for (size_t r = 0; r < n; ++r) {
    bool dead = false;
    for (const auto& [c, slot] : ref_cols) {
      if (m.packed(r, slot).is_bottom()) {
        dead = true;
        break;
      }
    }
    if (dead) {
      (*verdicts)[r] = RowVerdict::kDead;
      continue;
    }
    bool needs_fallback = false;
    const bool pass = PackedPredicate(results[r], &needs_fallback);
    if (needs_fallback) fallback.push_back(r);
    (*verdicts)[r] = pass ? RowVerdict::kPass : RowVerdict::kFail;
  }
  std::sort(fallback.begin(), fallback.end());
  fallback.erase(std::unique(fallback.begin(), fallback.end()),
                 fallback.end());
  for (size_t r : fallback) {
    bool dead = false;
    for (const auto& [c, slot] : ref_cols) {
      const PackedValue& v = m.packed(r, slot);
      if (v.is_bottom()) {
        dead = true;
        break;
      }
      (*eval_buf)[c] = v.ToValue();
    }
    if (dead) continue;  // the interpreter never evaluates dead rows
    MAYBMS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, *eval_buf));
    (*verdicts)[r] = pass ? RowVerdict::kPass : RowVerdict::kFail;
  }
  return Status::OK();
}

Status ComputeRowVerdicts(
    const Component& m, const ExprPtr& pred, CompiledEval* ce,
    const std::vector<std::pair<size_t, uint32_t>>& ref_cols,
    Tuple* eval_buf, const ExecOptions& opts,
    std::vector<RowVerdict>* verdicts) {
  verdicts->assign(m.NumRows(), RowVerdict::kDead);
  if (ce != nullptr) {
    return RowVerdictsCompiled(m, pred, ce, ref_cols, eval_buf, opts,
                               verdicts);
  }
  return RowVerdictsInterpreted(m, pred, ref_cols, eval_buf, verdicts);
}

}  // namespace

namespace {

// One conjunct of a filter predicate and the columns it reads.
struct Conjunct {
  ExprPtr expr;
  std::vector<size_t> cols;
};

// True when a leading conjunct over `t`'s certain cells is false: AND
// stops at a false operand before it evaluates the rest, so the predicate
// is false in every world of `t` without an error. The walk stops at the
// first conjunct that reads an uncertain cell, errors, or yields anything
// but true or NULL; the full evaluation then decides the tuple and
// reports any error at the same tuple and row as without this shortcut.
bool RejectedByCertainConjunct(const WsdTuple& t,
                               const std::vector<Conjunct>& conjuncts,
                               Tuple* buf) {
  for (const Conjunct& c : conjuncts) {
    for (size_t col : c.cols) {
      if (!t.cells[col].is_certain()) return false;
      (*buf)[col] = t.cells[col].value();
    }
    Result<Value> v = c.expr->Eval(*buf);
    if (!v.ok()) return false;
    if (v->is_bool()) {
      if (!v->as_bool()) return true;
    } else if (!v->is_null()) {
      return false;
    }
  }
  return false;
}

// The distinct components `t` references in `cols`, ascending.
std::vector<ComponentId> PredicateComponents(const WsdTuple& t,
                                             const std::vector<size_t>& cols) {
  std::vector<ComponentId> cids;
  for (size_t c : cols) {
    if (t.cells[c].is_ref()) cids.push_back(t.cells[c].ref().cid);
  }
  std::sort(cids.begin(), cids.end());
  cids.erase(std::unique(cids.begin(), cids.end()), cids.end());
  return cids;
}

}  // namespace

Status FilterRelationInPlace(WsdDb* db, const std::string& rel_name,
                             const ExprPtr& bound_pred,
                             const ExecOptions& opts,
                             NormalizeScope* touched) {
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db->GetMutableRelation(rel_name));
  std::vector<size_t> cols;
  bound_pred->CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  for (size_t c : cols) {
    if (c >= rel->schema().size()) {
      return Status::OutOfRange("predicate column out of range");
    }
  }
  Tuple eval_buf(rel->schema().size(), Value::Null());

  // Pass 0: certain conjuncts first.
  std::vector<Conjunct> conjuncts;
  {
    std::vector<ExprPtr> parts;
    SplitConjuncts(bound_pred, &parts);
    for (ExprPtr& e : parts) {
      Conjunct c{std::move(e), {}};
      c.expr->CollectColumns(&c.cols);
      conjuncts.push_back(std::move(c));
    }
  }
  std::vector<bool> rejected(rel->NumTuples(), false);
  size_t num_rejected = 0;
  bool rejected_spans = false;  // some rejected tuple would need a merge
  for (size_t i = 0; i < rel->NumTuples(); ++i) {
    const WsdTuple& t = rel->tuple(i);
    if (!RejectedByCertainConjunct(t, conjuncts, &eval_buf)) continue;
    rejected[i] = true;
    ++num_rejected;
    if (!rejected_spans && PredicateComponents(t, cols).size() > 1) {
      rejected_spans = true;
    }
  }
  if (rejected_spans) {
    // Without the prefilter every tuple's merges run first; one that
    // exceeds the row budget fails the statement, so it still must.
    MergePlanner all;
    for (const auto& t : rel->tuples()) {
      std::vector<ComponentId> cids = PredicateComponents(t, cols);
      if (cids.size() > 1) all.Require(cids);
    }
    MAYBMS_RETURN_IF_ERROR(all.CheckBudget(*db));
  }
  if (num_rejected > 0) {
    std::vector<WsdTuple> kept;
    kept.reserve(rel->NumTuples() - num_rejected);
    for (size_t i = 0; i < rel->NumTuples(); ++i) {
      if (rejected[i]) {
        touched->AddTuple(rel->tuple(i));
      } else {
        kept.push_back(rel->tuple(i));
      }
    }
    rel->SetTuples(std::move(kept));
  }

  // Pass 1: plan merges for tuples whose predicate spans components.
  MergePlanner planner;
  for (const auto& t : rel->tuples()) {
    std::vector<ComponentId> cids = PredicateComponents(t, cols);
    if (cids.size() > 1) planner.Require(cids);
  }
  MAYBMS_RETURN_IF_ERROR(planner.Execute(db, touched));

  // Owners gating exactly one tuple admit the paper-style in-place ⊥
  // marking. Only the owners of slots the predicate reads are counted.
  std::unordered_map<OwnerId, size_t> usage;
  for (const auto& t : rel->tuples()) {
    for (size_t c : cols) {
      const Cell& cell = t.cells[c];
      if (cell.is_ref()) {
        usage.emplace(db->component(cell.ref().cid).slot(cell.ref().slot).owner,
                      0);
      }
    }
  }
  if (!usage.empty()) {
    for (const auto& [key, other] : db->relations()) {
      for (const auto& t : other.tuples()) {
        for (OwnerId o : t.deps) {
          auto it = usage.find(o);
          if (it != usage.end()) ++it->second;
        }
      }
    }
  }

  // Lower the predicate once; every tuple's per-world loop reuses the
  // program and its scratch (component columns are rebound per tuple).
  CompiledEvalPtr ce = TryCompile(*bound_pred, opts);

  // Pass 2: evaluate per tuple. Components are read through component()
  // and detached only when a tuple's verdicts change one.
  std::vector<bool> drop(rel->NumTuples(), false);
  std::vector<RowVerdict> verdicts;
  for (size_t i = 0; i < rel->NumTuples(); ++i) {
    const WsdTuple& t = rel->tuple(i);
    // Gather involved cells.
    ComponentId cid = kInvalidComponent;
    std::vector<std::pair<size_t, uint32_t>> ref_cols;  // (col, slot)
    for (size_t c : cols) {
      const Cell& cell = t.cells[c];
      if (cell.is_certain()) {
        eval_buf[c] = cell.value();
      } else {
        if (cid == kInvalidComponent) {
          cid = cell.ref().cid;
        } else if (cid != cell.ref().cid) {
          return Status::Internal(
              "predicate spans components after merge — planner bug");
        }
        ref_cols.emplace_back(c, cell.ref().slot);
      }
    }
    if (ref_cols.empty()) {
      MAYBMS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*bound_pred, eval_buf));
      if (!pass) drop[i] = true;
      continue;
    }
    const Component& m = db->component(cid);
    MAYBMS_RETURN_IF_ERROR(ComputeRowVerdicts(
        m, bound_pred, ce.get(), ref_cols, &eval_buf, opts, &verdicts));
    bool any_pass = false, any_fail = false;
    for (RowVerdict v : verdicts) {
      any_pass |= v == RowVerdict::kPass;
      any_fail |= v == RowVerdict::kFail;
    }
    // No row lets the tuple pass: it exists in no world of the result.
    if (!any_pass) {
      drop[i] = true;
      continue;
    }
    if (!any_fail) continue;  // passes wherever it exists
    // Fast path: an owner gating only this tuple lets us mark ⊥ in place
    // (the paper's algorithm). Any referenced slot's owner is in t.deps.
    OwnerId fast_owner = 0;
    bool have_fast = false;
    for (const auto& [c, slot] : ref_cols) {
      OwnerId o = m.slot(slot).owner;
      auto it = usage.find(o);
      if (it != usage.end() && it->second == 1) {
        fast_owner = o;
        have_fast = true;
        break;
      }
    }
    Component& mm = db->mutable_component(cid);
    if (have_fast) {
      std::vector<uint32_t> owner_slots;
      for (uint32_t s = 0; s < mm.NumSlots(); ++s) {
        if (mm.slot(s).owner == fast_owner) owner_slots.push_back(s);
      }
      for (size_t r = 0; r < mm.NumRows(); ++r) {
        // Dead rows are already absent in these worlds; kept as-is.
        if (verdicts[r] != RowVerdict::kFail) continue;
        for (uint32_t s : owner_slots) {
          mm.SetPacked(r, s, PackedValue::Bottom());
        }
      }
    } else {
      // Existence-slot path: a fresh owner encodes survival. ⊥ on dead
      // rows is redundant but compact and does not trigger slot creation
      // by itself.
      std::vector<PackedValue> exist_values;
      exist_values.reserve(mm.NumRows());
      for (RowVerdict v : verdicts) {
        exist_values.push_back(v == RowVerdict::kPass ? PackedExistsToken()
                                                      : PackedValue::Bottom());
      }
      OwnerId fresh = db->NextOwner();
      mm.AddSlotWithPacked(
          {fresh, "\xCF\x83\xE2\x88\x83" + std::to_string(fresh)},
          std::move(exist_values));
      rel->mutable_tuple(i).AddDep(fresh);
    }
    // Reset buffer columns we touched (cheap hygiene for certain cells of
    // the next tuple).
    for (size_t c : cols) eval_buf[c] = Value::Null();
  }

  // Remove dropped tuples; everything read is in the normalization scope.
  bool any_drop = false;
  for (size_t i = 0; i < rel->NumTuples(); ++i) {
    touched->AddTuple(rel->tuple(i));
    any_drop |= drop[i];
  }
  if (any_drop) {
    auto& tuples = rel->mutable_tuples();
    size_t kept = 0;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (!drop[i]) {
        if (kept != i) tuples[kept] = std::move(tuples[i]);
        ++kept;
      }
    }
    tuples.resize(kept);
  }
  return Status::OK();
}

std::vector<Value> PossibleCellValues(const WsdDb& db, const Cell& cell) {
  if (cell.is_certain()) return {cell.value()};
  const Component& c = db.component(cell.ref().cid);
  std::vector<Value> out;
  std::unordered_set<PackedValue, PackedValueHash> seen;
  seen.reserve(c.NumRows());
  for (const PackedValue& v : c.column(cell.ref().slot)) {
    if (v.is_bottom()) continue;
    if (seen.insert(v).second) out.push_back(v.ToValue());
  }
  return out;
}

bool CellsPossiblyEqual(const WsdDb& db, const Cell& a, const Cell& b) {
  if (a.is_certain() && b.is_certain()) return a.value() == b.value();
  std::vector<Value> va = PossibleCellValues(db, a);
  std::vector<Value> vb = PossibleCellValues(db, b);
  for (const auto& x : va) {
    for (const auto& y : vb) {
      if (x == y) return true;
    }
  }
  return false;
}

namespace {

// One existence slot to be computed: kills `target` in the worlds of the
// merged component where some member source is alive with equal values,
// or where the target's values equal one of `killer_values` (value
// vectors of always-alive certain duplicates, which need no components of
// their own).
struct KillUnit {
  std::string target_rel;
  size_t target_idx = 0;
  std::vector<size_t> spec_source_idxs;  // indexes into spec.sources
  std::vector<std::vector<Value>> killer_values;
  const MatchKillSpec* spec = nullptr;
  std::vector<ComponentId> cids;  // pre-merge components of this unit
};

}  // namespace

Status ApplyMatchKills(WsdDb* db, const std::vector<MatchKillSpec>& specs,
                       NormalizeScope* touched) {
  if (specs.empty()) return Status::OK();

  MergePlanner planner;
  std::vector<KillUnit> units;
  std::unordered_map<std::string, std::vector<size_t>> removals;
  BottomGatingIndex gating_index = BuildBottomGatingIndex(*db);
  auto always_alive = [&gating_index](const std::vector<OwnerId>& deps) {
    for (OwnerId o : deps) {
      if (gating_index.count(o)) return false;
    }
    return true;
  };

  // Phase 1: static kills + unit construction. Sources whose kill events
  // touch disjoint components get independent existence slots (target
  // existence is the conjunction over its deps), so no cross-source merge
  // is needed unless they genuinely share components.
  for (const auto& spec : specs) {
    MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* trel,
                            db->GetRelation(spec.target_rel));
    const WsdTuple& target = trel->tuple(spec.target_idx);
    bool target_certain = FullyCertain(target);

    // Static kill: a fully-certain, always-alive, equal source kills a
    // fully-certain target in every world — no components involved.
    if (target_certain) {
      bool killed = false;
      for (const auto& src : spec.sources) {
        MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* srel,
                                db->GetRelation(src.rel));
        const WsdTuple& s = srel->tuple(src.idx);
        if (CertainlyEqual(target, s) && always_alive(src.deps)) {
          killed = true;
          break;
        }
      }
      if (killed) {
        removals[spec.target_rel].push_back(spec.target_idx);
        continue;
      }
    }

    std::vector<ComponentId> target_cids;
    for (const auto& cell : target.cells) {
      if (cell.is_ref()) target_cids.push_back(cell.ref().cid);
    }
    std::sort(target_cids.begin(), target_cids.end());
    target_cids.erase(std::unique(target_cids.begin(), target_cids.end()),
                      target_cids.end());

    // Value-only killers: fully-certain, always-alive sources kill the
    // (uncertain) target in exactly the worlds where the target takes
    // their values — no source components are needed. They also dominate
    // any gated certain source with the same values, which can be dropped
    // from the merge entirely.
    std::vector<std::vector<Value>> killer_values;
    std::vector<bool> dominated(spec.sources.size(), false);
    if (!target_cids.empty()) {
      for (size_t s = 0; s < spec.sources.size(); ++s) {
        const auto& src = spec.sources[s];
        MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* srel,
                                db->GetRelation(src.rel));
        const WsdTuple& st = srel->tuple(src.idx);
        if (!FullyCertain(st)) continue;
        std::vector<Value> values;
        values.reserve(st.cells.size());
        for (const auto& cell : st.cells) values.push_back(cell.value());
        if (always_alive(src.deps)) {
          dominated[s] = true;
          bool seen = false;
          for (const auto& kv : killer_values) {
            if (kv.size() == values.size()) {
              bool eq = true;
              for (size_t c = 0; c < kv.size(); ++c) {
                if (!(kv[c] == values[c])) {
                  eq = false;
                  break;
                }
              }
              if (eq) {
                seen = true;
                break;
              }
            }
          }
          if (!seen) killer_values.push_back(std::move(values));
        }
      }
      // Second pass: gated certain sources dominated by a killer.
      for (size_t s = 0; s < spec.sources.size(); ++s) {
        if (dominated[s]) continue;
        const auto& src = spec.sources[s];
        const WsdRelation* srel = db->GetRelation(src.rel).value();
        const WsdTuple& st = srel->tuple(src.idx);
        if (!FullyCertain(st)) continue;
        for (const auto& kv : killer_values) {
          bool eq = kv.size() == st.cells.size();
          for (size_t c = 0; eq && c < kv.size(); ++c) {
            eq = (kv[c] == st.cells[c].value());
          }
          if (eq) {
            dominated[s] = true;
            break;
          }
        }
      }
    }

    // Per-source component sets (values + ⊥-gating only).
    std::vector<std::vector<ComponentId>> scids(spec.sources.size());
    for (size_t s = 0; s < spec.sources.size(); ++s) {
      if (dominated[s]) continue;
      const auto& src = spec.sources[s];
      MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* srel,
                              db->GetRelation(src.rel));
      const WsdTuple& st = srel->tuple(src.idx);
      for (const auto& cell : st.cells) {
        if (cell.is_ref()) scids[s].push_back(cell.ref().cid);
      }
      for (ComponentId g : LookupBottomGating(gating_index, src.deps)) {
        scids[s].push_back(g);
      }
      std::sort(scids[s].begin(), scids[s].end());
      scids[s].erase(std::unique(scids[s].begin(), scids[s].end()),
                     scids[s].end());
    }

    // Group sources that share components (always including the target's
    // value components in every group when the target is uncertain).
    // Union-find over source indexes keyed by component id.
    std::unordered_map<ComponentId, size_t> comp_owner;  // comp -> source idx
    std::vector<size_t> parent(spec.sources.size());
    for (size_t s = 0; s < parent.size(); ++s) parent[s] = s;
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    if (!target_cids.empty()) {
      // Uncertain target: every source correlates through the target's
      // cells — one group.
      for (size_t s = 1; s < parent.size(); ++s) parent[find(s)] = find(0);
    } else {
      for (size_t s = 0; s < spec.sources.size(); ++s) {
        for (ComponentId cid : scids[s]) {
          auto [it, inserted] = comp_owner.try_emplace(cid, s);
          if (!inserted) parent[find(s)] = find(it->second);
        }
      }
    }
    std::unordered_map<size_t, KillUnit> group_units;
    for (size_t s = 0; s < spec.sources.size(); ++s) {
      if (dominated[s]) continue;
      // A source with no components at all: fully certain and always
      // alive would have been a static kill for certain targets and a
      // value-only killer for uncertain ones; skip defensively.
      if (scids[s].empty() && target_cids.empty()) continue;
      KillUnit& unit = group_units[find(s)];
      unit.spec_source_idxs.push_back(s);
      for (ComponentId cid : scids[s]) unit.cids.push_back(cid);
    }
    // Value-only killers get their own unit over the target's components.
    if (!killer_values.empty()) {
      KillUnit unit;
      unit.killer_values = std::move(killer_values);
      // Merge into the sources' group when one exists (the planner would
      // fuse the merged components anyway via the shared target cids).
      if (!group_units.empty()) {
        auto& first = group_units.begin()->second;
        first.killer_values = std::move(unit.killer_values);
      } else {
        group_units.emplace(SIZE_MAX, std::move(unit));
      }
    }
    for (auto& [root, unit] : group_units) {
      unit.target_rel = spec.target_rel;
      unit.target_idx = spec.target_idx;
      unit.spec = &spec;
      for (ComponentId cid : target_cids) unit.cids.push_back(cid);
      std::sort(unit.cids.begin(), unit.cids.end());
      unit.cids.erase(std::unique(unit.cids.begin(), unit.cids.end()),
                      unit.cids.end());
      if (unit.cids.empty()) continue;
      planner.Require(unit.cids);
      units.push_back(std::move(unit));
    }
  }
  MAYBMS_RETURN_IF_ERROR(planner.Execute(db, touched));

  // Phase 2: compute one existence slot per unit.
  std::unordered_map<std::string, std::unordered_set<size_t>> removed_set;
  for (auto& [rel_name, idxs] : removals) {
    removed_set[rel_name].insert(idxs.begin(), idxs.end());
  }
  for (const KillUnit& unit : units) {
    if (removed_set.count(unit.target_rel) &&
        removed_set[unit.target_rel].count(unit.target_idx)) {
      continue;  // already statically dead
    }
    MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* trel,
                            db->GetRelation(unit.target_rel));
    const WsdTuple& target = trel->tuple(unit.target_idx);
    ComponentId mid = planner.Resolve(unit.cids[0]);
    const Component& m = db->component(mid);

    auto view_of = [&](const WsdTuple& t) {
      std::vector<PackedCellView> views;
      views.reserve(t.cells.size());
      for (const Cell& cell : t.cells) views.push_back(MakeCellView(cell, mid));
      return views;
    };
    std::vector<PackedCellView> target_view = view_of(target);

    struct SourceInfo {
      std::vector<uint32_t> gating_slots;
      std::vector<PackedCellView> cells;
      size_t arity = 0;
    };
    std::vector<SourceInfo> sources(unit.spec_source_idxs.size());
    for (size_t k = 0; k < unit.spec_source_idxs.size(); ++k) {
      const auto& src = unit.spec->sources[unit.spec_source_idxs[k]];
      MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* srel,
                              db->GetRelation(src.rel));
      const WsdTuple& st = srel->tuple(src.idx);
      sources[k].cells = view_of(st);
      sources[k].arity = st.cells.size();
      for (uint32_t slot = 0; slot < m.NumSlots(); ++slot) {
        if (std::binary_search(src.deps.begin(), src.deps.end(),
                               m.slot(slot).owner)) {
          sources[k].gating_slots.push_back(slot);
        }
      }
    }
    std::vector<std::vector<PackedValue>> killers;
    killers.reserve(unit.killer_values.size());
    for (const auto& kv : unit.killer_values) {
      std::vector<PackedValue> packed;
      packed.reserve(kv.size());
      for (const Value& v : kv) packed.push_back(PackedValue::FromValue(v));
      killers.push_back(std::move(packed));
    }

    std::vector<PackedValue> exist_values;
    exist_values.reserve(m.NumRows());
    bool any_alive = false, any_kill = false;
    std::vector<PackedValue> tvals(target.cells.size());
    for (size_t r = 0; r < m.NumRows(); ++r) {
      bool target_dead = false;
      for (size_t c = 0; c < target_view.size(); ++c) {
        const PackedCellView& view = target_view[c];
        tvals[c] = view.certain ? view.value : m.packed(r, view.slot);
        if (!view.certain && tvals[c].is_bottom()) target_dead = true;
      }
      if (target_dead) {
        exist_values.push_back(PackedValue::Bottom());
        continue;
      }
      bool killed = false;
      // Value-only killers: always-alive certain duplicates.
      for (const auto& kv : killers) {
        bool eq = kv.size() == tvals.size();
        for (size_t c = 0; eq && c < kv.size(); ++c) {
          eq = (kv[c] == tvals[c]);
        }
        if (eq) {
          killed = true;
          break;
        }
      }
      for (size_t s = 0; !killed && s < sources.size(); ++s) {
        bool alive = true;
        for (uint32_t slot : sources[s].gating_slots) {
          if (m.IsBottomAt(r, slot)) {
            alive = false;
            break;
          }
        }
        if (!alive) continue;
        bool equal = sources[s].arity == tvals.size();
        for (size_t c = 0; equal && c < sources[s].cells.size(); ++c) {
          const PackedCellView& view = sources[s].cells[c];
          const PackedValue& sv =
              view.certain ? view.value : m.packed(r, view.slot);
          if (sv.is_bottom() || !(sv == tvals[c])) equal = false;
        }
        if (equal) killed = true;
      }
      exist_values.push_back(killed ? PackedValue::Bottom()
                                    : PackedExistsToken());
      (killed ? any_kill : any_alive) = true;
    }
    if (!any_alive) {
      removals[unit.target_rel].push_back(unit.target_idx);
      removed_set[unit.target_rel].insert(unit.target_idx);
    } else if (any_kill) {
      OwnerId fresh = db->NextOwner();
      db->mutable_component(mid).AddSlotWithPacked(
          {fresh, "\xCE\xB4\xE2\x88\x83" + std::to_string(fresh)},
          std::move(exist_values));
      touched->components.push_back(mid);
      MAYBMS_ASSIGN_OR_RETURN(WsdRelation * mrel,
                              db->GetMutableRelation(unit.target_rel));
      mrel->mutable_tuple(unit.target_idx).AddDep(fresh);
    }
  }

  // Execute removals (descending indexes per relation).
  for (auto& [rel_name, idxs] : removals) {
    MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel,
                            db->GetMutableRelation(rel_name));
    std::sort(idxs.begin(), idxs.end(), std::greater<size_t>());
    idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());
    auto& tuples = rel->mutable_tuples();
    for (size_t idx : idxs) {
      touched->AddTuple(tuples[idx]);
      tuples.erase(tuples.begin() + idx);
    }
  }
  return Status::OK();
}

}  // namespace lifted_internal

void SetScopedNormalizeCheckForTesting(ScopedNormalizeCheck check) {
  lifted_internal::g_normalize_check.store(check);
}

}  // namespace maybms
