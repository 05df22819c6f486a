#include "core/lifted.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/lifted_internal.h"

namespace maybms {

using lifted_internal::ApplyMatchKills;
using lifted_internal::CellsPossiblyEqual;
using lifted_internal::FilterRelationInPlace;
using lifted_internal::FinishOperator;
using lifted_internal::MatchKillSpec;
using lifted_internal::MergePlanner;

Status RenameRelation(WsdDb* db, const std::string& from,
                      const std::string& to) {
  if (EqualsIgnoreCase(from, to)) return Status::OK();
  if (db->HasRelation(to)) {
    return Status::AlreadyExists("relation already exists: " + to);
  }
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db->GetMutableRelation(from));
  WsdRelation moved = std::move(*rel);
  moved.set_name(to);
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(from));
  MAYBMS_RETURN_IF_ERROR(db->CreateRelation(to, moved.schema()));
  WsdRelation* target = db->GetMutableRelation(to).value();
  *target = std::move(moved);
  target->set_name(to);
  return Status::OK();
}

Status LiftedSelect(WsdDb* db, const std::string& input, const ExprPtr& pred,
                    const std::string& output, const ExecOptions& opts,
                    OwnerLocator* owners) {
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db->GetRelation(input));
  MAYBMS_ASSIGN_OR_RETURN(ExprPtr bound, pred->BindAgainst(rel->schema()));
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, input, output));
  NormalizeScope touched;
  MAYBMS_RETURN_IF_ERROR(
      FilterRelationInPlace(db, output, bound, opts, &touched));
  return FinishOperator(db, touched, owners);
}

Status LiftedProject(WsdDb* db, const std::string& input,
                     const std::vector<ProjectItem>& items,
                     const std::string& output, const ExecOptions& opts,
                     OwnerLocator* owners) {
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db->GetMutableRelation(input));
  const Schema& in_schema = rel->schema();

  // Bind all expressions; classify pure column refs and lower the
  // computed ones once (reused across tuples and component rows).
  struct Item {
    ExprPtr expr;
    bool is_column = false;
    size_t col = 0;
    lifted_internal::CompiledEvalPtr ce;
  };
  std::vector<Item> bound(items.size());
  Schema out_schema;
  // Case-insensitive duplicate-name probing via a set, not repeated
  // Schema::IndexOf scans (which were quadratic in the item count).
  std::unordered_set<std::string> used_names;
  for (size_t k = 0; k < items.size(); ++k) {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr b, items[k].expr->BindAgainst(in_schema));
    bound[k].expr = b;
    if (b->kind() == ExprKind::kColumn) {
      bound[k].is_column = true;
      bound[k].col = b->column_index();
    } else {
      bound[k].ce = lifted_internal::TryCompile(*b, opts);
    }
    std::string name = items[k].name;
    int suffix = 2;
    while (used_names.count(ToLower(name))) {
      name = items[k].name + "_" + std::to_string(suffix++);
    }
    used_names.insert(ToLower(name));
    MAYBMS_RETURN_IF_ERROR(
        out_schema.Add({name, InferExprType(*b, in_schema)}));
  }

  // Merge planning for computed expressions spanning components.
  NormalizeScope touched;
  MergePlanner planner;
  bool any_computed = false;
  for (const auto& it : bound) {
    if (!it.is_column) any_computed = true;
  }
  if (any_computed) {
    for (const auto& t : rel->tuples()) {
      for (const auto& it : bound) {
        if (it.is_column) continue;
        std::vector<size_t> cols;
        it.expr->CollectColumns(&cols);
        std::vector<ComponentId> cids;
        for (size_t c : cols) {
          if (t.cells[c].is_ref()) cids.push_back(t.cells[c].ref().cid);
        }
        std::sort(cids.begin(), cids.end());
        cids.erase(std::unique(cids.begin(), cids.end()), cids.end());
        if (cids.size() > 1) planner.Require(cids);
      }
    }
    MAYBMS_RETURN_IF_ERROR(planner.Execute(db, &touched));
  }
  // The output references a subset of these components, plus new slots
  // in ones already referenced.
  touched.AddRelation(*rel);

  // Build the projected tuples.
  Tuple eval_buf(in_schema.size(), Value::Null());
  for (auto& t : rel->mutable_tuples()) {
    std::vector<Cell> new_cells(bound.size());
    for (size_t k = 0; k < bound.size(); ++k) {
      const Item& it = bound[k];
      if (it.is_column) {
        new_cells[k] = t.cells[it.col];
        continue;
      }
      std::vector<size_t> cols;
      it.expr->CollectColumns(&cols);
      ComponentId cid = kInvalidComponent;
      std::vector<std::pair<size_t, uint32_t>> ref_cols;
      for (size_t c : cols) {
        const Cell& cell = t.cells[c];
        if (cell.is_certain()) {
          eval_buf[c] = cell.value();
        } else {
          MAYBMS_CHECK(cid == kInvalidComponent || cid == cell.ref().cid)
              << "computed projection spans components after merge";
          cid = cell.ref().cid;
          ref_cols.emplace_back(c, cell.ref().slot);
        }
      }
      if (ref_cols.empty()) {
        MAYBMS_ASSIGN_OR_RETURN(Value v, it.expr->Eval(eval_buf));
        if (v.is_bottom()) {
          return Status::Internal("⊥ from certain projection input");
        }
        new_cells[k] = Cell::Certain(std::move(v));
      } else {
        Component& m = db->mutable_component(cid);
        OwnerId owner = m.slot(ref_cols[0].second).owner;
        const size_t n = m.NumRows();
        std::vector<PackedValue> out_col(n);
        if (it.ce) {
          // Batched packed evaluation over the component columns; dead
          // rows (a referenced slot holds ⊥) become ⊥, flagged rows are
          // re-evaluated through the interpreter.
          lifted_internal::EvalOverComponent(m, ref_cols, eval_buf, opts,
                                             it.ce.get());
          out_col.assign(it.ce->results.begin(), it.ce->results.end());
          for (size_t r = 0; r < n; ++r) {
            for (const auto& [c, slot] : ref_cols) {
              (void)c;
              if (m.packed(r, slot).is_bottom()) {
                out_col[r] = PackedValue::Bottom();
                break;
              }
            }
          }
          for (size_t r : it.ce->fallback) {
            bool dead = false;
            for (const auto& [c, slot] : ref_cols) {
              const PackedValue& v = m.packed(r, slot);
              if (v.is_bottom()) {
                dead = true;
                break;
              }
              eval_buf[c] = v.ToValue();
            }
            if (dead) continue;  // already ⊥; the interpreter never
                                 // evaluates dead rows
            MAYBMS_ASSIGN_OR_RETURN(Value v, it.expr->Eval(eval_buf));
            out_col[r] = PackedValue::FromValue(v);
          }
        } else {
          for (size_t r = 0; r < n; ++r) {
            bool dead = false;
            for (const auto& [c, slot] : ref_cols) {
              const PackedValue& v = m.packed(r, slot);
              if (v.is_bottom()) {
                dead = true;
                break;
              }
              eval_buf[c] = v.ToValue();
            }
            if (dead) {
              out_col[r] = PackedValue::Bottom();
              continue;
            }
            MAYBMS_ASSIGN_OR_RETURN(Value v, it.expr->Eval(eval_buf));
            out_col[r] = PackedValue::FromValue(v);
          }
        }
        uint32_t slot = m.AddSlotWithPacked(
            {owner, "\xCF\x80(" + items[k].name + ")"}, std::move(out_col));
        new_cells[k] = Cell::Ref({cid, slot});
      }
      for (size_t c : cols) eval_buf[c] = Value::Null();
    }
    t.cells = std::move(new_cells);
  }
  rel->set_schema(out_schema);
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, input, output));
  return FinishOperator(db, touched, owners);
}

namespace {

Status CheckUnionCompatible(const Schema& a, const Schema& b,
                            const char* what) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        StrFormat("%s arity mismatch: %zu vs %zu", what, a.size(), b.size()));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.attr(i).type != b.attr(i).type) {
      return Status::TypeMismatch(
          StrFormat("%s type mismatch at column %zu", what, i));
    }
  }
  return Status::OK();
}

}  // namespace

Status LiftedProduct(WsdDb* db, const std::string& left,
                     const std::string& right, const std::string& output,
                     OwnerLocator* owners) {
  if (EqualsIgnoreCase(left, right)) {
    return Status::InvalidArgument(
        "lifted operators consume their inputs; pass two scan copies "
        "instead of the same relation twice");
  }
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* l, db->GetRelation(left));
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* r, db->GetRelation(right));
  Schema out_schema =
      Schema::Concat(l->schema(), r->schema(), r->display_name());
  MAYBMS_RETURN_IF_ERROR(db->CreateRelation(output, out_schema));
  WsdRelation* out = db->GetMutableRelation(output).value();
  out->Reserve(l->NumTuples() * r->NumTuples());
  for (const auto& lt : l->tuples()) {
    for (const auto& rt : r->tuples()) {
      WsdTuple t;
      t.cells.reserve(lt.cells.size() + rt.cells.size());
      t.cells.insert(t.cells.end(), lt.cells.begin(), lt.cells.end());
      t.cells.insert(t.cells.end(), rt.cells.begin(), rt.cells.end());
      t.deps = lt.deps;
      for (OwnerId o : rt.deps) t.AddDep(o);
      out->Add(std::move(t));
    }
  }
  // The output pairs reference exactly the inputs' components.
  NormalizeScope touched;
  touched.AddRelation(*l);
  touched.AddRelation(*r);
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(left));
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(right));
  return FinishOperator(db, touched, owners);
}

namespace {

// Splits a bound join predicate into equi-join column pairs and residual.
struct JoinKeys {
  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;  // indexes in right schema
  bool all_equi = false;
};

JoinKeys AnalyzeJoin(const ExprPtr& bound, size_t left_arity) {
  JoinKeys keys;
  if (!bound) return keys;
  std::vector<ExprPtr> conjuncts;
  lifted_internal::SplitConjuncts(bound, &conjuncts);
  size_t equi = 0;
  for (const auto& c : conjuncts) {
    if (c->kind() == ExprKind::kCompare && c->compare_op() == CompareOp::kEq &&
        c->left()->kind() == ExprKind::kColumn &&
        c->right()->kind() == ExprKind::kColumn) {
      size_t a = c->left()->column_index();
      size_t b = c->right()->column_index();
      if (a < left_arity && b >= left_arity) {
        keys.left_cols.push_back(a);
        keys.right_cols.push_back(b - left_arity);
        ++equi;
        continue;
      }
      if (b < left_arity && a >= left_arity) {
        keys.left_cols.push_back(b);
        keys.right_cols.push_back(a - left_arity);
        ++equi;
        continue;
      }
    }
  }
  keys.all_equi = (equi == conjuncts.size());
  return keys;
}

bool AllCertain(const WsdTuple& t, const std::vector<size_t>& cols) {
  for (size_t c : cols) {
    if (!t.cells[c].is_certain()) return false;
  }
  return true;
}

size_t HashKeyCells(const WsdTuple& t, const std::vector<size_t>& cols) {
  size_t h = cols.size();
  for (size_t c : cols) HashCombine(&h, t.cells[c].value().Hash());
  return h;
}

bool KeyCellsEqual(const WsdTuple& a, const std::vector<size_t>& ca,
                   const WsdTuple& b, const std::vector<size_t>& cb) {
  for (size_t k = 0; k < ca.size(); ++k) {
    const Value& va = a.cells[ca[k]].value();
    const Value& vb = b.cells[cb[k]].value();
    if (va.is_null() || vb.is_null() || !(va == vb)) return false;
  }
  return true;
}

}  // namespace

Status LiftedJoin(WsdDb* db, const std::string& left, const std::string& right,
                  const ExprPtr& pred, const std::string& output,
                  const ExecOptions& opts, OwnerLocator* owners) {
  if (EqualsIgnoreCase(left, right)) {
    return Status::InvalidArgument(
        "lifted operators consume their inputs; pass two scan copies "
        "instead of the same relation twice");
  }
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* l, db->GetRelation(left));
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* r, db->GetRelation(right));
  Schema out_schema =
      Schema::Concat(l->schema(), r->schema(), r->display_name());
  ExprPtr bound;
  if (pred) {
    MAYBMS_ASSIGN_OR_RETURN(bound, pred->BindAgainst(out_schema));
  }
  JoinKeys keys = AnalyzeJoin(bound, l->schema().size());

  std::string tmp = "__join_tmp_" + output;
  MAYBMS_RETURN_IF_ERROR(db->CreateRelation(tmp, out_schema));
  WsdRelation* out = db->GetMutableRelation(tmp).value();

  bool emitted_uncertain_keys = false;
  auto emit = [&](const WsdTuple& lt, const WsdTuple& rt) {
    WsdTuple t;
    t.cells.reserve(lt.cells.size() + rt.cells.size());
    t.cells.insert(t.cells.end(), lt.cells.begin(), lt.cells.end());
    t.cells.insert(t.cells.end(), rt.cells.begin(), rt.cells.end());
    t.deps = lt.deps;
    for (OwnerId o : rt.deps) t.AddDep(o);
    out->Add(std::move(t));
  };

  if (!keys.left_cols.empty()) {
    // Hash path for certain keys; uncertain-key tuples pair with all.
    std::unordered_map<size_t, std::vector<size_t>> table;
    std::vector<size_t> uncertain_right;
    for (size_t j = 0; j < r->NumTuples(); ++j) {
      const WsdTuple& rt = r->tuple(j);
      if (AllCertain(rt, keys.right_cols)) {
        table[HashKeyCells(rt, keys.right_cols)].push_back(j);
      } else {
        uncertain_right.push_back(j);
      }
    }
    for (size_t i = 0; i < l->NumTuples(); ++i) {
      const WsdTuple& lt = l->tuple(i);
      if (AllCertain(lt, keys.left_cols)) {
        auto it = table.find(HashKeyCells(lt, keys.left_cols));
        if (it != table.end()) {
          for (size_t j : it->second) {
            if (KeyCellsEqual(lt, keys.left_cols, r->tuple(j),
                              keys.right_cols)) {
              emit(lt, r->tuple(j));
            }
          }
        }
        for (size_t j : uncertain_right) {
          // Pair only if keys can match in some world.
          bool possible = true;
          for (size_t k = 0; k < keys.left_cols.size() && possible; ++k) {
            possible = CellsPossiblyEqual(
                *db, lt.cells[keys.left_cols[k]],
                r->tuple(j).cells[keys.right_cols[k]]);
          }
          if (possible) {
            emit(lt, r->tuple(j));
            emitted_uncertain_keys = true;
          }
        }
      } else {
        for (size_t j = 0; j < r->NumTuples(); ++j) {
          bool possible = true;
          for (size_t k = 0; k < keys.left_cols.size() && possible; ++k) {
            possible = CellsPossiblyEqual(
                *db, lt.cells[keys.left_cols[k]],
                r->tuple(j).cells[keys.right_cols[k]]);
          }
          if (possible) {
            emit(lt, r->tuple(j));
            emitted_uncertain_keys = true;
          }
        }
      }
    }
  } else {
    for (const auto& lt : l->tuples()) {
      for (const auto& rt : r->tuples()) emit(lt, rt);
    }
  }
  NormalizeScope touched;
  touched.AddRelation(*l);
  touched.AddRelation(*r);
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(left));
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(right));
  l = nullptr;
  r = nullptr;
  // Apply the full predicate: pairs produced by the certain-key hash path
  // already satisfy the equi conjuncts; re-filtering is needed whenever
  // uncertain keys or residual conjuncts exist. Skipping the filter when
  // everything was certain equi keeps the common case linear.
  bool needs_filter =
      bound != nullptr && (!keys.all_equi || keys.left_cols.empty() ||
                           emitted_uncertain_keys);
  if (needs_filter) {
    MAYBMS_RETURN_IF_ERROR(
        FilterRelationInPlace(db, tmp, bound, opts, &touched));
  }
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, tmp, output));
  return FinishOperator(db, touched, owners);
}

Status LiftedUnion(WsdDb* db, const std::string& left,
                   const std::string& right, const std::string& output,
                   OwnerLocator* owners) {
  if (EqualsIgnoreCase(left, right)) {
    return Status::InvalidArgument(
        "lifted operators consume their inputs; pass two scan copies "
        "instead of the same relation twice");
  }
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * l, db->GetMutableRelation(left));
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * r, db->GetMutableRelation(right));
  MAYBMS_RETURN_IF_ERROR(
      CheckUnionCompatible(l->schema(), r->schema(), "UNION"));
  NormalizeScope touched;
  touched.AddRelation(*l);
  touched.AddRelation(*r);
  for (auto& t : r->mutable_tuples()) {
    l->Add(std::move(t));
  }
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(right));
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, left, output));
  return FinishOperator(db, touched, owners);
}

namespace {

size_t CertainTupleHash(const WsdTuple& t) {
  size_t h = t.cells.size();
  for (const auto& cell : t.cells) HashCombine(&h, cell.value().Hash());
  return h;
}

bool TuplesPossiblyEqual(const WsdDb& db, const WsdTuple& a,
                         const WsdTuple& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t c = 0; c < a.cells.size(); ++c) {
    if (!lifted_internal::CellsPossiblyEqual(db, a.cells[c], b.cells[c])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status LiftedDifference(WsdDb* db, const std::string& left,
                        const std::string& right, const std::string& output,
                        OwnerLocator* owners) {
  if (EqualsIgnoreCase(left, right)) {
    return Status::InvalidArgument(
        "lifted operators consume their inputs; pass two scan copies "
        "instead of the same relation twice");
  }
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* l, db->GetRelation(left));
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* r, db->GetRelation(right));
  MAYBMS_RETURN_IF_ERROR(
      CheckUnionCompatible(l->schema(), r->schema(), "EXCEPT"));

  // Index the right side: fully-certain tuples by value hash; others in a
  // small list probed with the conservative possibly-equal test.
  std::unordered_map<size_t, std::vector<size_t>> certain_right;
  std::vector<size_t> uncertain_right;
  for (size_t j = 0; j < r->NumTuples(); ++j) {
    if (lifted_internal::FullyCertain(r->tuple(j))) {
      certain_right[CertainTupleHash(r->tuple(j))].push_back(j);
    } else {
      uncertain_right.push_back(j);
    }
  }

  std::vector<MatchKillSpec> specs;
  for (size_t i = 0; i < l->NumTuples(); ++i) {
    const WsdTuple& lt = l->tuple(i);
    MatchKillSpec spec;
    spec.target_rel = left;
    spec.target_idx = i;
    if (lifted_internal::FullyCertain(lt)) {
      auto it = certain_right.find(CertainTupleHash(lt));
      if (it != certain_right.end()) {
        for (size_t j : it->second) {
          if (lifted_internal::CertainlyEqual(lt, r->tuple(j))) {
            spec.sources.push_back({right, j, r->tuple(j).deps});
          }
        }
      }
      for (size_t j : uncertain_right) {
        if (TuplesPossiblyEqual(*db, lt, r->tuple(j))) {
          spec.sources.push_back({right, j, r->tuple(j).deps});
        }
      }
    } else {
      for (size_t j = 0; j < r->NumTuples(); ++j) {
        if (TuplesPossiblyEqual(*db, lt, r->tuple(j))) {
          spec.sources.push_back({right, j, r->tuple(j).deps});
        }
      }
    }
    if (!spec.sources.empty()) specs.push_back(std::move(spec));
  }
  NormalizeScope touched;
  MAYBMS_RETURN_IF_ERROR(ApplyMatchKills(db, specs, &touched));
  touched.AddRelation(*db->GetRelation(left).value());
  touched.AddRelation(*db->GetRelation(right).value());
  MAYBMS_RETURN_IF_ERROR(db->DropRelation(right));
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, left, output));
  return FinishOperator(db, touched, owners);
}

Status LiftedDistinct(WsdDb* db, const std::string& input,
                      const std::string& output, OwnerLocator* owners) {
  {
    // Reorder the template so that certain, always-alive tuples come
    // first, then gated certain ones, then uncertain ones. Which
    // duplicate survives per world is value-irrelevant, so this preserves
    // the answer — and it maximizes static kills and value-only killer
    // coverage, keeping component merges small.
    MAYBMS_ASSIGN_OR_RETURN(WsdRelation * mrel, db->GetMutableRelation(input));
    auto gating_index = lifted_internal::BuildBottomGatingIndex(*db);
    auto clazz = [&](const WsdTuple& t) {
      if (!lifted_internal::FullyCertain(t)) return 2;
      for (OwnerId o : t.deps) {
        if (gating_index.count(o)) return 1;
      }
      return 0;
    };
    std::stable_sort(mrel->mutable_tuples().begin(),
                     mrel->mutable_tuples().end(),
                     [&](const WsdTuple& a, const WsdTuple& b) {
                       return clazz(a) < clazz(b);
                     });
  }
  MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db->GetRelation(input));
  // Snapshot deps before any kill slots are added: a later tuple is killed
  // in the worlds where an earlier *input* tuple with equal values exists.
  std::vector<std::vector<OwnerId>> snapshot;
  snapshot.reserve(rel->NumTuples());
  for (const auto& t : rel->tuples()) snapshot.push_back(t.deps);

  // Earlier-tuple indexes, maintained incrementally.
  std::unordered_map<size_t, std::vector<size_t>> certain_earlier;
  std::vector<size_t> uncertain_earlier;

  std::vector<MatchKillSpec> specs;
  for (size_t j = 0; j < rel->NumTuples(); ++j) {
    const WsdTuple& tj = rel->tuple(j);
    bool j_certain = lifted_internal::FullyCertain(tj);
    MatchKillSpec spec;
    spec.target_rel = input;
    spec.target_idx = j;
    if (j_certain) {
      auto it = certain_earlier.find(CertainTupleHash(tj));
      if (it != certain_earlier.end()) {
        for (size_t i : it->second) {
          if (lifted_internal::CertainlyEqual(tj, rel->tuple(i))) {
            spec.sources.push_back({input, i, snapshot[i]});
          }
        }
      }
      for (size_t i : uncertain_earlier) {
        if (TuplesPossiblyEqual(*db, tj, rel->tuple(i))) {
          spec.sources.push_back({input, i, snapshot[i]});
        }
      }
    } else {
      for (size_t i = 0; i < j; ++i) {
        if (TuplesPossiblyEqual(*db, tj, rel->tuple(i))) {
          spec.sources.push_back({input, i, snapshot[i]});
        }
      }
    }
    if (!spec.sources.empty()) specs.push_back(std::move(spec));
    if (j_certain) {
      certain_earlier[CertainTupleHash(tj)].push_back(j);
    } else {
      uncertain_earlier.push_back(j);
    }
  }
  NormalizeScope touched;
  MAYBMS_RETURN_IF_ERROR(ApplyMatchKills(db, specs, &touched));
  touched.AddRelation(*db->GetRelation(input).value());
  MAYBMS_RETURN_IF_ERROR(RenameRelation(db, input, output));
  return FinishOperator(db, touched, owners);
}

}  // namespace maybms
