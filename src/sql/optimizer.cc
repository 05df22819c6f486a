#include "sql/optimizer.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "core/shard.h"
#include "storage/packed_value.h"

namespace maybms {
namespace sql {

namespace {

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kAnd) {
    SplitConjuncts(e->left(), out);
    SplitConjuncts(e->right(), out);
  } else {
    out->push_back(e);
  }
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::And(acc, conjuncts[i]);
  }
  return acc;
}

bool IsConstBool(const ExprPtr& e, bool value) {
  return e->kind() == ExprKind::kConst && e->const_value().is_bool() &&
         e->const_value().as_bool() == value;
}

/// Rebuilds an interior node with new children; kConst/kColumn pass
/// through untouched.
ExprPtr RebuildExpr(const ExprPtr& e, const std::vector<ExprPtr>& kids) {
  switch (e->kind()) {
    case ExprKind::kConst:
    case ExprKind::kColumn:
      return e;
    case ExprKind::kCompare:
      return Expr::Compare(e->compare_op(), kids[0], kids[1]);
    case ExprKind::kArith:
      return Expr::Arith(e->arith_op(), kids[0], kids[1]);
    case ExprKind::kAnd:
      return Expr::And(kids[0], kids[1]);
    case ExprKind::kOr:
      return Expr::Or(kids[0], kids[1]);
    case ExprKind::kNot:
      return Expr::Not(kids[0]);
    case ExprKind::kIsNull:
      return Expr::IsNull(kids[0], e->is_null_negated());
    case ExprKind::kIn:
      return Expr::In(kids[0], e->in_set());
  }
  return e;
}

/// Rebuilds a bound expression with every column index rewritten through
/// `f`. When `names` is given, columns are relabeled from it (by their
/// new index); otherwise the old label is kept.
ExprPtr MapColumns(const ExprPtr& e, const std::function<size_t(size_t)>& f,
                   const Schema* names) {
  if (e->kind() == ExprKind::kConst) return e;
  if (e->kind() == ExprKind::kColumn) {
    size_t idx = f(e->column_index());
    std::string name = (names != nullptr && idx < names->size())
                           ? names->attr(idx).name
                           : e->column_name();
    return Expr::ColumnIdx(idx, std::move(name));
  }
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  for (const auto& c : e->children()) kids.push_back(MapColumns(c, f, names));
  return RebuildExpr(e, kids);
}

// Rebuilds a bound expression with every column index shifted by -offset
// and relabeled from `child` (used when pushing a predicate through a
// product to its right input).
ExprPtr ShiftColumns(const ExprPtr& e, size_t offset, const Schema& child) {
  return MapColumns(e, [offset](size_t i) { return i - offset; }, &child);
}

// True when a column of type `t` compares with `v` without a type error.
bool ComparableWith(ValueType t, const Value& v) {
  switch (t) {
    case ValueType::kBool:
      return v.is_bool();
    case ValueType::kInt:
    case ValueType::kDouble:
      return v.is_numeric();
    case ValueType::kString:
      return v.is_string();
  }
  return false;
}

/// Carries constant equalities across equi-join conjuncts: from a.x = b.y
/// and a.x = c (all bound against the product's schema), every pair the
/// predicate keeps has b.y = c, so that conjunct is derived too and can
/// filter b's input before the join. Returns the derived conjuncts only,
/// each on a column of a type the constant compares with, never a NULL.
std::vector<ExprPtr> DeriveJoinConstants(const std::vector<ExprPtr>& conjuncts,
                                         const Schema& schema,
                                         size_t left_arity) {
  std::vector<std::pair<size_t, Value>> consts;  // column = constant
  std::vector<std::pair<size_t, size_t>> equi;   // left column = right one
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare || c->compare_op() != CompareOp::kEq) {
      continue;
    }
    const ExprPtr& l = c->left();
    const ExprPtr& r = c->right();
    if (l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kColumn) {
      size_t a = l->column_index(), b = r->column_index();
      if (a > b) std::swap(a, b);
      if (a < left_arity && b >= left_arity) equi.emplace_back(a, b);
    } else if (l->kind() == ExprKind::kColumn &&
               r->kind() == ExprKind::kConst && !r->const_value().is_null()) {
      consts.emplace_back(l->column_index(), r->const_value());
    } else if (r->kind() == ExprKind::kColumn &&
               l->kind() == ExprKind::kConst && !l->const_value().is_null()) {
      consts.emplace_back(r->column_index(), l->const_value());
    }
  }
  std::vector<ExprPtr> derived;
  auto known = [&](size_t col, const Value& v) {
    for (const auto& [c, cv] : consts) {
      if (c == col && cv == v) return true;
    }
    return false;
  };
  // Closure over chains of equi-joins (a.x = b.y = ...).
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : equi) {
      for (size_t k = 0; k < consts.size(); ++k) {
        const size_t from = consts[k].first;
        if (from != a && from != b) continue;
        const size_t to = from == a ? b : a;
        const Value v = consts[k].second;
        if (known(to, v) || !ComparableWith(schema.attr(to).type, v)) {
          continue;
        }
        consts.emplace_back(to, v);
        derived.push_back(Expr::Compare(
            CompareOp::kEq, Expr::ColumnIdx(to, schema.attr(to).name),
            Expr::Const(v)));
        grew = true;
      }
    }
  }
  return derived;
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Evaluates constant subtrees bottom-up through the interpreter itself,
/// so folding can never fork semantics: subtrees whose evaluation errors
/// (e.g. comparing a string with an int) are left in place and error at
/// run time exactly as before. The only structural folds are the ones
/// the interpreter short-circuits on the *left* operand — AND(false, x)
/// and OR(true, x) never evaluate x, so dropping x is exact.
ExprPtr FoldExpr(const ExprPtr& e) {
  if (e->kind() == ExprKind::kConst || e->kind() == ExprKind::kColumn) {
    return e;
  }
  std::vector<ExprPtr> kids;
  kids.reserve(e->children().size());
  bool changed = false;
  for (const auto& c : e->children()) {
    ExprPtr f = FoldExpr(c);
    changed |= f.get() != c.get();
    kids.push_back(std::move(f));
  }
  ExprPtr node = changed ? RebuildExpr(e, kids) : e;
  if (node->kind() == ExprKind::kAnd && IsConstBool(node->left(), false)) {
    return node->left();
  }
  if (node->kind() == ExprKind::kOr && IsConstBool(node->left(), true)) {
    return node->left();
  }
  bool all_const = true;
  for (const auto& c : node->children()) {
    if (c->kind() != ExprKind::kConst) {
      all_const = false;
      break;
    }
  }
  if (all_const) {
    Result<Value> v = node->Eval(Tuple{});
    if (v.ok()) return Expr::Const(*std::move(v));
  }
  return node;
}

/// Drops conjuncts that folded to TRUE; returns nullptr when every
/// conjunct did (safe at predicate roots: WHERE semantics of the
/// remaining conjunction are unchanged).
ExprPtr DropTrueConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  std::vector<ExprPtr> kept;
  for (const auto& c : conjuncts) {
    if (!IsConstBool(c, true)) kept.push_back(c);
  }
  if (kept.size() == conjuncts.size()) return pred;
  return CombineConjuncts(kept);
}

struct ColumnRange {
  size_t min_col = SIZE_MAX;
  size_t max_col = 0;
  bool any = false;
};

ColumnRange RangeOf(const ExprPtr& bound) {
  std::vector<size_t> cols;
  bound->CollectColumns(&cols);
  ColumnRange r;
  for (size_t c : cols) {
    r.any = true;
    r.min_col = std::min(r.min_col, c);
    r.max_col = std::max(r.max_col, c);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// The estimator's view of one plan node: output cardinality (template
/// tuples) and a per-column distinct-value estimate.
struct PlanEst {
  double rows = 0;
  std::vector<double> distinct;
};

class Optimizer {
 public:
  Optimizer(const WsdDb& db, const OptimizerOptions& options)
      : db_(db), options_(options) {}

  Result<Schema> SchemaOf(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kScan: {
        MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel,
                                db_.GetRelation(plan->relation()));
        return rel->schema();
      }
      case PlanKind::kSelect:
      case PlanKind::kDistinct:
      case PlanKind::kSort:
      case PlanKind::kLimit:
        return SchemaOf(plan->input());
      case PlanKind::kProject: {
        MAYBMS_ASSIGN_OR_RETURN(Schema in, SchemaOf(plan->input()));
        Schema out;
        for (const auto& item : plan->project_items()) {
          MAYBMS_ASSIGN_OR_RETURN(ExprPtr b, item.expr->BindAgainst(in));
          std::string name = item.name;
          int k = 2;
          while (out.IndexOf(name)) name = item.name + "_" + std::to_string(k++);
          MAYBMS_RETURN_IF_ERROR(out.Add({name, InferExprType(*b, in)}));
        }
        return out;
      }
      case PlanKind::kProduct:
      case PlanKind::kJoin: {
        MAYBMS_ASSIGN_OR_RETURN(Schema l, SchemaOf(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(Schema r, SchemaOf(plan->right()));
        return Schema::Concat(l, r, DeriveName(plan->right()));
      }
      case PlanKind::kUnion:
      case PlanKind::kDifference:
        return SchemaOf(plan->left());
      case PlanKind::kAggregate: {
        // Not used by the lifted path; approximate.
        MAYBMS_ASSIGN_OR_RETURN(Schema in, SchemaOf(plan->input()));
        Schema out;
        for (const auto& g : plan->group_by()) {
          MAYBMS_ASSIGN_OR_RETURN(size_t i, in.Resolve(g));
          MAYBMS_RETURN_IF_ERROR(out.Add(in.attr(i)));
        }
        for (const auto& a : plan->aggregates()) {
          MAYBMS_RETURN_IF_ERROR(out.Add({a.name, ValueType::kDouble}));
        }
        return out;
      }
    }
    return Status::Internal("unreachable");
  }

  std::string DeriveName(const PlanPtr& plan) {
    if (plan->kind() == PlanKind::kScan) {
      auto rel = db_.GetRelation(plan->relation());
      if (rel.ok()) return (*rel)->display_name();
      return plan->relation();
    }
    if (plan->kind() == PlanKind::kSelect ||
        plan->kind() == PlanKind::kDistinct ||
        plan->kind() == PlanKind::kSort) {
      return DeriveName(plan->input());
    }
    return "r";
  }

  // --- pass driver ---------------------------------------------------------

  Result<PlanPtr> Run(const PlanPtr& plan) {
    PlanPtr p = plan;
    if (options_.fold_constants) {
      MAYBMS_ASSIGN_OR_RETURN(p, FoldPlan(p));
    }
    if (options_.push_predicates) {
      MAYBMS_ASSIGN_OR_RETURN(p, Rewrite(p));
    }
    if (options_.reorder_joins) {
      MAYBMS_ASSIGN_OR_RETURN(p, ReorderPass(p));
    }
    if (options_.prune_projections) {
      MAYBMS_ASSIGN_OR_RETURN(p, PrunePass(p));
    }
    return p;
  }

  // --- constant-folding pass ----------------------------------------------

  Result<PlanPtr> FoldPlan(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kScan:
        return plan;
      case PlanKind::kSelect: {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr in, FoldPlan(plan->input()));
        ExprPtr pred = DropTrueConjuncts(FoldExpr(plan->predicate()));
        if (!pred) return in;  // σ_true is the identity
        return Plan::Select(in, pred);
      }
      case PlanKind::kJoin: {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr l, FoldPlan(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr r, FoldPlan(plan->right()));
        ExprPtr pred = plan->predicate();
        if (pred) pred = DropTrueConjuncts(FoldExpr(pred));
        if (!pred) return Plan::Product(l, r);  // ⋈_true = ×
        return Plan::Join(l, r, pred);
      }
      case PlanKind::kProject: {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr in, FoldPlan(plan->input()));
        std::vector<ProjectItem> items;
        items.reserve(plan->project_items().size());
        for (const auto& item : plan->project_items()) {
          items.push_back({FoldExpr(item.expr), item.name});
        }
        return Plan::Project(in, std::move(items));
      }
      case PlanKind::kAggregate: {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr in, FoldPlan(plan->input()));
        std::vector<AggSpec> aggs = plan->aggregates();
        for (auto& a : aggs) {
          if (a.arg) a.arg = FoldExpr(a.arg);
        }
        return Plan::Aggregate(in, plan->group_by(), std::move(aggs));
      }
      default: {
        std::vector<PlanPtr> kids;
        kids.reserve(plan->children().size());
        for (const auto& c : plan->children()) {
          MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, FoldPlan(c));
          kids.push_back(std::move(k));
        }
        return RebuildWithChildren(plan, std::move(kids));
      }
    }
  }

  // --- predicate-pushdown pass --------------------------------------------

  Result<PlanPtr> Rewrite(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kSelect:
        return RewriteSelect(plan);
      case PlanKind::kScan:
        return plan;
      default: {
        std::vector<PlanPtr> kids;
        kids.reserve(plan->children().size());
        for (const auto& c : plan->children()) {
          MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, Rewrite(c));
          kids.push_back(std::move(k));
        }
        return RebuildWithChildren(plan, std::move(kids));
      }
    }
  }

  // --- cardinality estimation ---------------------------------------------

  Result<PlanEst> Estimate(const PlanPtr& plan) {
    auto it = est_cache_.find(plan.get());
    if (it != est_cache_.end()) return it->second;
    PlanEst e;
    switch (plan->kind()) {
      case PlanKind::kScan: {
        MAYBMS_ASSIGN_OR_RETURN(e, ScanEstimate(plan->relation()));
        break;
      }
      case PlanKind::kSelect: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst in, Estimate(plan->input()));
        MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(plan->input()));
        double sel = 0.5;
        auto bound = plan->predicate()->BindAgainst(s);
        if (bound.ok()) sel = Selectivity(**bound, in);
        e.rows = in.rows * sel;
        // Directly above a Scan, the per-shard column ranges give a hard
        // upper bound: shards whose possible values are disjoint from
        // the predicate's bounds contribute no rows in any world.
        if (bound.ok() && plan->input()->kind() == PlanKind::kScan) {
          auto rel = db_.GetRelation(plan->input()->relation());
          if (rel.ok()) {
            const ShardPartition& part = GetShardPartition(db_, **rel);
            std::vector<char> mask =
                PruneShards(part, ExtractColumnBounds(**bound, s.size()));
            double surviving = 0;
            for (size_t i = 0; i < part.shards.size(); ++i) {
              if (mask[i]) {
                surviving += static_cast<double>(part.shards[i].row_end -
                                                 part.shards[i].row_begin);
              }
            }
            e.rows = std::min(e.rows, surviving);
          }
        }
        e.distinct = std::move(in.distinct);
        break;
      }
      case PlanKind::kProject: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst in, Estimate(plan->input()));
        MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(plan->input()));
        e.rows = in.rows;
        for (const auto& item : plan->project_items()) {
          double d = std::max(in.rows, 1.0);
          auto b = item.expr->BindAgainst(s);
          if (b.ok() && (*b)->kind() == ExprKind::kColumn &&
              (*b)->column_index() < in.distinct.size()) {
            d = in.distinct[(*b)->column_index()];
          }
          e.distinct.push_back(d);
        }
        break;
      }
      case PlanKind::kProduct:
      case PlanKind::kJoin: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst l, Estimate(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(PlanEst r, Estimate(plan->right()));
        PlanEst concat;
        concat.rows = l.rows * r.rows;
        concat.distinct = l.distinct;
        concat.distinct.insert(concat.distinct.end(), r.distinct.begin(),
                               r.distinct.end());
        double sel = 1.0;
        if (plan->kind() == PlanKind::kJoin && plan->predicate()) {
          MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(plan));
          auto bound = plan->predicate()->BindAgainst(s);
          if (bound.ok()) sel = Selectivity(**bound, concat);
        }
        e.rows = concat.rows * sel;
        e.distinct = std::move(concat.distinct);
        break;
      }
      case PlanKind::kUnion: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst l, Estimate(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(PlanEst r, Estimate(plan->right()));
        e.rows = l.rows + r.rows;
        e.distinct = std::move(l.distinct);
        for (size_t i = 0; i < e.distinct.size() && i < r.distinct.size();
             ++i) {
          e.distinct[i] += r.distinct[i];
        }
        break;
      }
      case PlanKind::kDifference: {
        MAYBMS_ASSIGN_OR_RETURN(e, Estimate(plan->left()));
        break;
      }
      case PlanKind::kDistinct: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst in, Estimate(plan->input()));
        double prod = 1.0;
        for (double d : in.distinct) {
          prod = std::min(prod * std::max(d, 1.0), 1e18);
        }
        e.rows = std::min(in.rows, prod);
        e.distinct = std::move(in.distinct);
        break;
      }
      case PlanKind::kSort: {
        MAYBMS_ASSIGN_OR_RETURN(e, Estimate(plan->input()));
        break;
      }
      case PlanKind::kLimit: {
        MAYBMS_ASSIGN_OR_RETURN(e, Estimate(plan->input()));
        e.rows = std::min(e.rows, static_cast<double>(plan->limit()));
        break;
      }
      case PlanKind::kAggregate: {
        MAYBMS_ASSIGN_OR_RETURN(PlanEst in, Estimate(plan->input()));
        MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(plan->input()));
        double groups = 1.0;
        for (const auto& g : plan->group_by()) {
          auto i = s.IndexOf(g);
          groups *= (i.has_value() && *i < in.distinct.size())
                        ? std::max(in.distinct[*i], 1.0)
                        : std::max(in.rows, 1.0);
          groups = std::min(groups, 1e18);
        }
        e.rows = plan->group_by().empty() ? 1.0
                                          : std::min(groups, std::max(in.rows, 1.0));
        e.distinct.assign(plan->group_by().size() + plan->aggregates().size(),
                          e.rows);
        break;
      }
    }
    est_cache_[plan.get()] = e;
    // Pin the node: cache keys are raw pointers, so estimated plans must
    // outlive the optimizer or a recycled allocation could alias a key.
    est_keepalive_.push_back(plan);
    return e;
  }

  Result<std::string> Annotate(const PlanPtr& plan, int indent) {
    return AnnotateWithBounds(plan, indent, nullptr);
  }

  /// `bounds`, when set, is the conjunctive column interval accumulated
  /// from the Select chain above this node (schema-aligned with it).
  /// Scan lines report how many shards survive it as [shards k/N].
  Result<std::string> AnnotateWithBounds(
      const PlanPtr& plan, int indent,
      const std::vector<ColumnBound>* bounds) {
    MAYBMS_ASSIGN_OR_RETURN(PlanEst est, Estimate(plan));
    std::string out(static_cast<size_t>(indent) * 2, ' ');
    out += plan->NodeString() + StrFormat("  [~%.3g rows]", est.rows);
    if (plan->kind() == PlanKind::kScan) {
      auto rel = db_.GetRelation(plan->relation());
      if (rel.ok()) {
        const ShardPartition& part = GetShardPartition(db_, **rel);
        size_t kept = part.shards.size();
        if (bounds != nullptr) {
          std::vector<char> mask = PruneShards(part, *bounds);
          kept = static_cast<size_t>(
              std::count(mask.begin(), mask.end(), char{1}));
        }
        out += StrFormat("  [shards %zu/%zu]", kept, part.shards.size());
      }
    }
    // Accumulate bounds down Select chains; anything else resets them.
    std::vector<ColumnBound> child_bounds;
    const std::vector<ColumnBound>* pass = nullptr;
    if (plan->kind() == PlanKind::kSelect) {
      MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(plan->input()));
      child_bounds.assign(s.size(), ColumnBound{});
      if (bounds != nullptr && bounds->size() == s.size()) {
        child_bounds = *bounds;
      }
      auto bound = plan->predicate()->BindAgainst(s);
      if (bound.ok()) {
        std::vector<ColumnBound> own = ExtractColumnBounds(**bound, s.size());
        for (size_t c = 0; c < s.size(); ++c) {
          if (!own[c].active) continue;
          child_bounds[c].active = true;
          child_bounds[c].lo = std::max(child_bounds[c].lo, own[c].lo);
          child_bounds[c].hi = std::min(child_bounds[c].hi, own[c].hi);
        }
      }
      pass = &child_bounds;
    }
    for (const auto& c : plan->children()) {
      MAYBMS_ASSIGN_OR_RETURN(std::string sub,
                              AnnotateWithBounds(c, indent + 1, pass));
      out += "\n" + sub;
    }
    return out;
  }

 private:
  static Result<PlanPtr> RebuildWithChildren(const PlanPtr& plan,
                                             std::vector<PlanPtr> kids) {
    switch (plan->kind()) {
      case PlanKind::kScan:
        return plan;
      case PlanKind::kSelect:
        return Plan::Select(kids[0], plan->predicate());
      case PlanKind::kProject:
        return Plan::Project(kids[0], plan->project_items());
      case PlanKind::kProduct:
        return Plan::Product(kids[0], kids[1]);
      case PlanKind::kJoin:
        return Plan::Join(kids[0], kids[1], plan->predicate());
      case PlanKind::kUnion:
        return Plan::Union(kids[0], kids[1]);
      case PlanKind::kDifference:
        return Plan::Difference(kids[0], kids[1]);
      case PlanKind::kDistinct:
        return Plan::Distinct(kids[0]);
      case PlanKind::kSort:
        return Plan::Sort(kids[0], plan->sort_columns(),
                          plan->sort_descending());
      case PlanKind::kLimit:
        return Plan::Limit(kids[0], plan->limit());
      case PlanKind::kAggregate:
        return Plan::Aggregate(kids[0], plan->group_by(), plan->aggregates());
    }
    return Status::Internal("unreachable");
  }

  Result<PlanPtr> RewriteSelect(const PlanPtr& plan) {
    MAYBMS_ASSIGN_OR_RETURN(PlanPtr input, Rewrite(plan->input()));
    ExprPtr pred = plan->predicate();

    // Push into products/joins.
    if (input->kind() == PlanKind::kProduct ||
        input->kind() == PlanKind::kJoin) {
      MAYBMS_ASSIGN_OR_RETURN(Schema concat, SchemaOf(input));
      MAYBMS_ASSIGN_OR_RETURN(Schema lschema, SchemaOf(input->left()));
      size_t larity = lschema.size();
      MAYBMS_ASSIGN_OR_RETURN(Schema rschema, SchemaOf(input->right()));
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr bound, pred->BindAgainst(concat));
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(bound, &conjuncts);
      {
        std::vector<ExprPtr> all = conjuncts;
        if (input->kind() == PlanKind::kJoin && input->predicate()) {
          auto join_bound = input->predicate()->BindAgainst(concat);
          if (join_bound.ok()) SplitConjuncts(*join_bound, &all);
        }
        // Derived conjuncts go first: a conjunct over certain cells that
        // comes first lets the lifted filter drop a tuple before it
        // touches the tuple's components.
        std::vector<ExprPtr> derived =
            DeriveJoinConstants(all, concat, larity);
        conjuncts.insert(conjuncts.begin(), derived.begin(), derived.end());
      }
      std::vector<ExprPtr> to_left, to_right, cross;
      for (const auto& c : conjuncts) {
        if (IsConstBool(c, true)) continue;  // no-op conjunct
        ColumnRange r = RangeOf(c);
        if (!r.any || r.max_col < larity) {
          to_left.push_back(c);
        } else if (r.min_col >= larity) {
          to_right.push_back(ShiftColumns(c, larity, rschema));
        } else {
          cross.push_back(c);
        }
      }
      PlanPtr l = input->left();
      PlanPtr r = input->right();
      if (!to_left.empty()) {
        MAYBMS_ASSIGN_OR_RETURN(l, Rewrite(Plan::Select(
                                       l, CombineConjuncts(to_left))));
      }
      if (!to_right.empty()) {
        MAYBMS_ASSIGN_OR_RETURN(r, Rewrite(Plan::Select(
                                       r, CombineConjuncts(to_right))));
      }
      ExprPtr join_pred = CombineConjuncts(cross);
      if (input->kind() == PlanKind::kJoin && input->predicate()) {
        join_pred = join_pred
                        ? Expr::And(input->predicate(), join_pred)
                        : input->predicate();
      }
      if (join_pred) return Plan::Join(l, r, join_pred);
      return Plan::Product(l, r);
    }

    // Merge adjacent selects.
    if (input->kind() == PlanKind::kSelect) {
      return Rewrite(
          Plan::Select(input->input(), Expr::And(input->predicate(), pred)));
    }
    // Push through union (both sides see the same schema).
    if (input->kind() == PlanKind::kUnion) {
      MAYBMS_ASSIGN_OR_RETURN(
          PlanPtr l, Rewrite(Plan::Select(input->left(), pred)));
      MAYBMS_ASSIGN_OR_RETURN(
          PlanPtr r, Rewrite(Plan::Select(input->right(), pred)));
      return Plan::Union(l, r);
    }
    // σ commutes with δ (per world: filtering a deduplicated bag equals
    // deduplicating the filtered bag — survival is decided per value).
    if (input->kind() == PlanKind::kDistinct) {
      MAYBMS_ASSIGN_OR_RETURN(
          PlanPtr pushed, Rewrite(Plan::Select(input->input(), pred)));
      return Plan::Distinct(pushed);
    }
    // Push through pure-column projections (e.g. the per-alias renaming
    // projections the SQL planner inserts): σ_p(π(R)) = π(σ_p'(R)) with
    // p's columns substituted by the referenced items. Only fires when
    // every referenced item is a plain column — substituting computed
    // expressions could change which rows they are evaluated on.
    if (input->kind() == PlanKind::kProject) {
      MAYBMS_ASSIGN_OR_RETURN(Schema out_schema, SchemaOf(input));
      MAYBMS_ASSIGN_OR_RETURN(Schema in_schema, SchemaOf(input->input()));
      auto bound = pred->BindAgainst(out_schema);
      if (bound.ok()) {
        std::vector<size_t> cols;
        (*bound)->CollectColumns(&cols);
        std::vector<size_t> target(out_schema.size(), SIZE_MAX);
        bool pushable = true;
        for (size_t c : cols) {
          if (c >= input->project_items().size() ||
              input->project_items()[c].expr->kind() != ExprKind::kColumn) {
            pushable = false;
            break;
          }
          auto b = input->project_items()[c].expr->BindAgainst(in_schema);
          if (!b.ok()) {
            pushable = false;
            break;
          }
          target[c] = (*b)->column_index();
        }
        if (pushable) {
          ExprPtr pushed = MapColumns(
              *bound, [&target](size_t i) { return target[i]; }, &in_schema);
          return Rewrite(Plan::Project(
              Plan::Select(input->input(), pushed), input->project_items()));
        }
      }
    }
    return Plan::Select(input, pred);
  }

  // --- scan statistics -----------------------------------------------------

  // Per-optimizer (i.e. per-statement) scan cache: WsdRelation exposes
  // raw mutable access (mutable_tuples), so a cross-statement cache
  // would need invalidation plumbing through every lifted operator; the
  // per-slot distinct counts, the expensive part on or-set-heavy data,
  // ARE cached across statements on the components themselves.
  Result<PlanEst> ScanEstimate(const std::string& name) {
    std::string key = ToLower(name);
    auto it = scan_cache_.find(key);
    if (it != scan_cache_.end()) return it->second;
    MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db_.GetRelation(name));
    PlanEst e;
    e.rows = static_cast<double>(rel->NumTuples());
    const size_t ncols = rel->schema().size();
    e.distinct.assign(ncols, 0.0);
    std::unordered_set<PackedValue, PackedValueHash> certains;
    std::set<std::pair<ComponentId, uint32_t>> refs;
    for (size_t c = 0; c < ncols; ++c) {
      certains.clear();
      refs.clear();
      for (const auto& t : rel->tuples()) {
        const Cell& cell = t.cells[c];
        if (cell.is_certain()) {
          certains.insert(PackedValue::FromValue(cell.value()));
        } else {
          refs.insert({cell.ref().cid, cell.ref().slot});
        }
      }
      // Certain cells count exactly; uncertain columns add the cached
      // per-slot distinct counts of the referenced components (an upper
      // bound across worlds — values may repeat between slots).
      double d = static_cast<double>(certains.size());
      for (const auto& [cid, slot] : refs) {
        const ComponentStats& cs = db_.component(cid).GetStats();
        if (slot < cs.distinct.size()) {
          d += static_cast<double>(cs.distinct[slot]);
        }
      }
      e.distinct[c] = d;
    }
    scan_cache_[key] = e;
    return e;
  }

  double Selectivity(const Expr& e, const PlanEst& in) {
    switch (e.kind()) {
      case ExprKind::kConst: {
        const Value& v = e.const_value();
        if (v.is_bool()) return v.as_bool() ? 1.0 : 0.0;
        if (v.is_null()) return 0.0;
        return 1.0;
      }
      case ExprKind::kColumn:
        return 0.5;
      case ExprKind::kCompare: {
        auto dist = [&in](const ExprPtr& c) -> double {
          if (c->kind() == ExprKind::kColumn && c->is_bound() &&
              c->column_index() < in.distinct.size()) {
            return std::max(in.distinct[c->column_index()], 1.0);
          }
          return -1.0;
        };
        double dl = dist(e.left());
        double dr = dist(e.right());
        bool lconst = e.left()->kind() == ExprKind::kConst;
        bool rconst = e.right()->kind() == ExprKind::kConst;
        double eq;
        if (dl > 0 && rconst) {
          eq = 1.0 / dl;
        } else if (dr > 0 && lconst) {
          eq = 1.0 / dr;
        } else if (dl > 0 && dr > 0) {
          eq = 1.0 / std::max(dl, dr);
        } else {
          eq = 1.0 / 3.0;
        }
        switch (e.compare_op()) {
          case CompareOp::kEq:
            return eq;
          case CompareOp::kNe:
            return std::max(0.0, 1.0 - eq);
          default:
            return 1.0 / 3.0;
        }
      }
      case ExprKind::kArith:
        return 1.0 / 3.0;
      case ExprKind::kAnd:
        return Selectivity(*e.left(), in) * Selectivity(*e.right(), in);
      case ExprKind::kOr: {
        double a = Selectivity(*e.left(), in);
        double b = Selectivity(*e.right(), in);
        return a + b - a * b;
      }
      case ExprKind::kNot:
        return std::max(0.0, 1.0 - Selectivity(*e.children()[0], in));
      case ExprKind::kIsNull:
        return e.is_null_negated() ? 0.9 : 0.1;
      case ExprKind::kIn: {
        const ExprPtr& c = e.children()[0];
        if (c->kind() == ExprKind::kColumn && c->is_bound() &&
            c->column_index() < in.distinct.size()) {
          double d = std::max(in.distinct[c->column_index()], 1.0);
          return std::min(1.0, static_cast<double>(e.in_set().size()) / d);
        }
        return 0.5;
      }
    }
    return 0.5;
  }

  // --- join reordering -----------------------------------------------------

  struct ChainLeaf {
    PlanPtr plan;
    Schema schema;
    size_t offset = 0;  ///< absolute start in the flat leaf concat
    PlanEst est;
  };

  Status CollectChain(const PlanPtr& node, std::vector<ChainLeaf>* leaves,
                      std::vector<ExprPtr>* conjuncts, size_t* total) {
    if (node->kind() == PlanKind::kProduct || node->kind() == PlanKind::kJoin) {
      size_t first_col = *total;
      MAYBMS_RETURN_IF_ERROR(CollectChain(node->left(), leaves, conjuncts,
                                          total));
      MAYBMS_RETURN_IF_ERROR(CollectChain(node->right(), leaves, conjuncts,
                                          total));
      if (node->kind() == PlanKind::kJoin && node->predicate()) {
        MAYBMS_ASSIGN_OR_RETURN(Schema local, SchemaOf(node));
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr bound,
                                node->predicate()->BindAgainst(local));
        ExprPtr abs =
            first_col == 0
                ? bound
                : MapColumns(
                      bound, [first_col](size_t i) { return i + first_col; },
                      nullptr);
        std::vector<ExprPtr> split;
        SplitConjuncts(abs, &split);
        for (auto& c : split) {
          if (!IsConstBool(c, true)) conjuncts->push_back(std::move(c));
        }
      }
      return Status::OK();
    }
    MAYBMS_ASSIGN_OR_RETURN(Schema s, SchemaOf(node));
    ChainLeaf leaf;
    leaf.plan = node;
    leaf.schema = std::move(s);
    leaf.offset = *total;
    *total += leaf.schema.size();
    leaves->push_back(std::move(leaf));
    return Status::OK();
  }

  Result<PlanPtr> ReorderPass(const PlanPtr& plan) {
    if (plan->kind() != PlanKind::kProduct && plan->kind() != PlanKind::kJoin) {
      std::vector<PlanPtr> kids;
      kids.reserve(plan->children().size());
      for (const auto& c : plan->children()) {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, ReorderPass(c));
        kids.push_back(std::move(k));
      }
      return RebuildWithChildren(plan, std::move(kids));
    }

    MAYBMS_ASSIGN_OR_RETURN(Schema orig_schema, SchemaOf(plan));
    std::vector<ChainLeaf> leaves;
    std::vector<ExprPtr> conjuncts;
    size_t total = 0;
    MAYBMS_RETURN_IF_ERROR(CollectChain(plan, &leaves, &conjuncts, &total));
    const size_t n = leaves.size();
    if (n < 2 || n > 60) return plan;  // bitmask bound; FROM lists are small
    // A two-input product with no cross conjunct gains nothing from a
    // swap (no hash build side, symmetric cost) — leave it alone.
    if (n == 2 && conjuncts.empty()) {
      std::vector<PlanPtr> kids;
      kids.reserve(plan->children().size());
      for (const auto& c : plan->children()) {
        MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, ReorderPass(c));
        kids.push_back(std::move(k));
      }
      return RebuildWithChildren(plan, std::move(kids));
    }

    // Reorder within each leaf subtree, then estimate it.
    for (auto& lf : leaves) {
      MAYBMS_ASSIGN_OR_RETURN(lf.plan, ReorderPass(lf.plan));
      MAYBMS_ASSIGN_OR_RETURN(lf.est, Estimate(lf.plan));
    }

    // Flat distinct vector over the original leaf order, for conjunct
    // selectivities.
    PlanEst flat;
    flat.rows = 1.0;
    for (const auto& lf : leaves) {
      flat.rows *= std::max(lf.est.rows, 1.0);
      flat.distinct.insert(flat.distinct.end(), lf.est.distinct.begin(),
                           lf.est.distinct.end());
    }

    auto leaf_of = [&leaves](size_t col) {
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (col >= leaves[i].offset &&
            col < leaves[i].offset + leaves[i].schema.size()) {
          return i;
        }
      }
      return leaves.size() - 1;
    };

    struct Conj {
      ExprPtr expr;
      uint64_t mask = 0;
      double sel = 1.0;
      bool attached = false;
    };
    std::vector<Conj> pool;
    pool.reserve(conjuncts.size());
    for (const auto& c : conjuncts) {
      Conj cj;
      cj.expr = c;
      std::vector<size_t> cols;
      c->CollectColumns(&cols);
      for (size_t col : cols) cj.mask |= 1ull << leaf_of(col);
      cj.sel = Selectivity(*c, flat);
      pool.push_back(std::move(cj));
    }

    // Greedy order: start with the cheapest pair, then repeatedly append
    // the leaf minimizing the estimated intermediate cardinality. Every
    // join keeps its estimated-larger input on the left, so the smaller
    // side lands on the right — the hash-join build side.
    auto avail_sel = [&pool](uint64_t mask) {
      double s = 1.0;
      for (const auto& cj : pool) {
        if (!cj.attached && (cj.mask & ~mask) == 0) s *= cj.sel;
      }
      return s;
    };
    std::vector<size_t> order;
    order.reserve(n);
    {
      double best = -1.0;
      size_t bi = 0, bj = 1;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          uint64_t m = (1ull << i) | (1ull << j);
          double cost = leaves[i].est.rows * leaves[j].est.rows *
                        avail_sel(m);
          if (best < 0 || cost < best) {
            best = cost;
            bi = i;
            bj = j;
          }
        }
      }
      // Build side: when a conjunct joins the pair, the member with
      // strictly fewer estimated rows goes right (the hash build side);
      // unconnected pairs keep their original relative order.
      bool connected = false;
      for (const auto& cj : pool) {
        if ((cj.mask & ~((1ull << bi) | (1ull << bj))) == 0 && cj.mask != 0) {
          connected = true;
          break;
        }
      }
      if (connected && leaves[bi].est.rows < leaves[bj].est.rows) {
        std::swap(bi, bj);
      }
      order.push_back(bi);
      order.push_back(bj);
    }
    uint64_t picked = (1ull << order[0]) | (1ull << order[1]);
    double cur_rows = leaves[order[0]].est.rows * leaves[order[1]].est.rows *
                      avail_sel(picked);
    while (order.size() < n) {
      double best = -1.0;
      size_t bk = 0;
      for (size_t k = 0; k < n; ++k) {
        if (picked & (1ull << k)) continue;
        double cost = cur_rows * std::max(leaves[k].est.rows, 0.0) *
                      avail_sel(picked | (1ull << k));
        if (best < 0 || cost < best) {
          best = cost;
          bk = k;
        }
      }
      order.push_back(bk);
      picked |= 1ull << bk;
      cur_rows = best;
    }

    // Column permutation (old flat position → new flat position) and the
    // schema of the rebuilt chain, mirroring SchemaOf of the new tree.
    std::vector<size_t> new_offset(n, 0);
    {
      size_t at = 0;
      for (size_t k = 0; k < n; ++k) {
        new_offset[order[k]] = at;
        at += leaves[order[k]].schema.size();
      }
    }
    std::vector<size_t> old2new(total);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < leaves[i].schema.size(); ++c) {
        old2new[leaves[i].offset + c] = new_offset[i] + c;
      }
    }
    Schema new_schema = leaves[order[0]].schema;
    for (size_t k = 1; k < n; ++k) {
      new_schema = Schema::Concat(new_schema, leaves[order[k]].schema,
                                  DeriveName(leaves[order[k]].plan));
    }

    // Left-deep rebuild; each conjunct attaches at the first join where
    // all its columns are available.
    auto remap = [&](const ExprPtr& c) {
      return MapColumns(
          c, [&old2new](size_t i) { return old2new[i]; }, &new_schema);
    };
    PlanPtr acc = leaves[order[0]].plan;
    uint64_t pm = 1ull << order[0];
    for (size_t k = 1; k < n; ++k) {
      pm |= 1ull << order[k];
      std::vector<ExprPtr> here;
      for (auto& cj : pool) {
        if (!cj.attached && (cj.mask & ~pm) == 0) {
          cj.attached = true;
          here.push_back(remap(cj.expr));
        }
      }
      if (here.empty()) {
        acc = Plan::Product(acc, leaves[order[k]].plan);
      } else {
        acc = Plan::Join(acc, leaves[order[k]].plan, CombineConjuncts(here));
      }
    }

    // Compensating projection restoring the original column order (and
    // names), so the rewrite is transparent to everything above.
    bool identity = true;
    for (size_t i = 0; i < total; ++i) {
      if (old2new[i] != i) {
        identity = false;
        break;
      }
    }
    if (!identity) {
      std::vector<ProjectItem> items;
      items.reserve(total);
      for (size_t i = 0; i < total; ++i) {
        items.push_back({Expr::ColumnIdx(old2new[i],
                                         new_schema.attr(old2new[i]).name),
                         orig_schema.attr(i).name});
      }
      acc = Plan::Project(acc, std::move(items));
    }
    return acc;
  }

  // --- projection pruning --------------------------------------------------

  static ExprPtr SubstituteColumns(const ExprPtr& e,
                                   const std::vector<ExprPtr>& subs) {
    if (e->kind() == ExprKind::kColumn) {
      return e->column_index() < subs.size() ? subs[e->column_index()] : e;
    }
    if (e->kind() == ExprKind::kConst) return e;
    std::vector<ExprPtr> kids;
    kids.reserve(e->children().size());
    for (const auto& c : e->children()) {
      kids.push_back(SubstituteColumns(c, subs));
    }
    return RebuildExpr(e, kids);
  }

  /// π ∘ π composes row-wise (bag-exact): outer column references are
  /// substituted by the inner items. Collapses the compensating
  /// projections of the join reorderer into the query's own projection,
  /// so pruning can see through them.
  Result<PlanPtr> MergeAdjacentProjects(const PlanPtr& plan) {
    const PlanPtr& inner = plan->input();
    MAYBMS_ASSIGN_OR_RETURN(Schema mid, SchemaOf(inner));
    MAYBMS_ASSIGN_OR_RETURN(Schema in, SchemaOf(inner->input()));
    std::vector<ExprPtr> inner_bound;
    inner_bound.reserve(inner->project_items().size());
    for (const auto& item : inner->project_items()) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr b, item.expr->BindAgainst(in));
      inner_bound.push_back(std::move(b));
    }
    std::vector<ProjectItem> merged;
    merged.reserve(plan->project_items().size());
    for (const auto& item : plan->project_items()) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr b, item.expr->BindAgainst(mid));
      merged.push_back({SubstituteColumns(b, inner_bound), item.name});
    }
    return Plan::Project(inner->input(), std::move(merged));
  }

  Result<PlanPtr> PrunePass(const PlanPtr& plan) {
    if (plan->kind() == PlanKind::kProject) {
      PlanPtr p = plan;
      while (p->kind() == PlanKind::kProject &&
             p->input()->kind() == PlanKind::kProject) {
        MAYBMS_ASSIGN_OR_RETURN(p, MergeAdjacentProjects(p));
      }
      MAYBMS_ASSIGN_OR_RETURN(PlanPtr pruned, PruneProject(p));
      if (pruned == nullptr && p != plan) pruned = p;
      if (pruned != nullptr) {
        std::vector<PlanPtr> kids;
        kids.reserve(pruned->children().size());
        for (const auto& c : pruned->children()) {
          MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, PrunePass(c));
          kids.push_back(std::move(k));
        }
        return RebuildWithChildren(pruned, std::move(kids));
      }
    }
    std::vector<PlanPtr> kids;
    kids.reserve(plan->children().size());
    for (const auto& c : plan->children()) {
      MAYBMS_ASSIGN_OR_RETURN(PlanPtr k, PrunePass(c));
      kids.push_back(std::move(k));
    }
    return RebuildWithChildren(plan, std::move(kids));
  }

  /// π over (a spine of σ over) ⋈/× whose output is wider than the set
  /// of referenced columns: narrows both join inputs to the referenced
  /// columns, so the lifted operators marginalize unused slots before
  /// pairing tuples. Returns nullptr when the rule does not apply.
  Result<PlanPtr> PruneProject(const PlanPtr& plan) {
    MAYBMS_ASSIGN_OR_RETURN(Schema in_schema, SchemaOf(plan->input()));
    // Bind the projection items; walk the select spine (selects preserve
    // the schema, so every predicate binds against the same schema).
    std::vector<ExprPtr> items;
    for (const auto& item : plan->project_items()) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr b, item.expr->BindAgainst(in_schema));
      items.push_back(std::move(b));
    }
    std::vector<ExprPtr> spine;  // top-down select predicates
    PlanPtr cur = plan->input();
    while (cur->kind() == PlanKind::kSelect) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr b,
                              cur->predicate()->BindAgainst(in_schema));
      spine.push_back(std::move(b));
      cur = cur->input();
    }
    if (cur->kind() != PlanKind::kProduct && cur->kind() != PlanKind::kJoin) {
      return PlanPtr(nullptr);
    }
    MAYBMS_ASSIGN_OR_RETURN(Schema lschema, SchemaOf(cur->left()));
    MAYBMS_ASSIGN_OR_RETURN(Schema rschema, SchemaOf(cur->right()));
    const size_t larity = lschema.size();
    ExprPtr join_pred;
    if (cur->kind() == PlanKind::kJoin && cur->predicate()) {
      MAYBMS_ASSIGN_OR_RETURN(join_pred,
                              cur->predicate()->BindAgainst(in_schema));
    }

    std::vector<size_t> needed;
    auto collect = [&needed](const ExprPtr& e) { e->CollectColumns(&needed); };
    for (const auto& e : items) collect(e);
    for (const auto& e : spine) collect(e);
    if (join_pred) collect(join_pred);
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    if (needed.size() >= in_schema.size()) return PlanPtr(nullptr);

    std::vector<size_t> keep_left, keep_right;  // child-local indexes
    for (size_t c : needed) {
      if (c < larity) {
        keep_left.push_back(c);
      } else {
        keep_right.push_back(c - larity);
      }
    }
    // A side that contributes no referenced column still multiplies
    // per-world multiplicities — keep one column to preserve them.
    if (keep_left.empty()) keep_left.push_back(0);
    if (keep_right.empty()) keep_right.push_back(0);
    if (keep_left.size() == larity && keep_right.size() == rschema.size()) {
      return PlanPtr(nullptr);
    }

    auto side_project = [](const PlanPtr& side, const Schema& schema,
                           const std::vector<size_t>& keep) {
      std::vector<ProjectItem> out;
      out.reserve(keep.size());
      for (size_t c : keep) {
        out.push_back({Expr::ColumnIdx(c, schema.attr(c).name),
                       schema.attr(c).name});
      }
      return Plan::Project(side, std::move(out));
    };
    PlanPtr new_left = keep_left.size() == larity
                           ? cur->left()
                           : side_project(cur->left(), lschema, keep_left);
    PlanPtr new_right = keep_right.size() == rschema.size()
                            ? cur->right()
                            : side_project(cur->right(), rschema, keep_right);

    // old concat position → new concat position.
    std::vector<size_t> old2new(in_schema.size(), SIZE_MAX);
    for (size_t p = 0; p < keep_left.size(); ++p) old2new[keep_left[p]] = p;
    for (size_t p = 0; p < keep_right.size(); ++p) {
      old2new[larity + keep_right[p]] = keep_left.size() + p;
    }
    MAYBMS_ASSIGN_OR_RETURN(Schema lp, SchemaOf(new_left));
    MAYBMS_ASSIGN_OR_RETURN(Schema rp, SchemaOf(new_right));
    Schema new_schema = Schema::Concat(lp, rp, DeriveName(new_right));
    auto remap = [&](const ExprPtr& e) {
      return MapColumns(
          e, [&old2new](size_t i) { return old2new[i]; }, &new_schema);
    };

    PlanPtr rebuilt =
        join_pred ? Plan::Join(new_left, new_right, remap(join_pred))
                  : (cur->kind() == PlanKind::kJoin
                         ? Plan::Join(new_left, new_right, nullptr)
                         : Plan::Product(new_left, new_right));
    for (size_t i = spine.size(); i-- > 0;) {
      rebuilt = Plan::Select(rebuilt, remap(spine[i]));
    }
    std::vector<ProjectItem> new_items;
    new_items.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      new_items.push_back({remap(items[i]), plan->project_items()[i].name});
    }
    return Plan::Project(rebuilt, std::move(new_items));
  }

  const WsdDb& db_;
  OptimizerOptions options_;
  std::unordered_map<const Plan*, PlanEst> est_cache_;
  std::vector<PlanPtr> est_keepalive_;
  std::unordered_map<std::string, PlanEst> scan_cache_;
};

}  // namespace

Result<PlanPtr> Optimize(const PlanPtr& plan, const WsdDb& db,
                         const OptimizerOptions& options) {
  if (!options.enable) return plan;
  Optimizer opt(db, options);
  return opt.Run(plan);
}

Result<Schema> PlanSchema(const PlanPtr& plan, const WsdDb& db) {
  Optimizer opt(db, OptimizerOptions{});
  return opt.SchemaOf(plan);
}

Result<double> EstimateRows(const PlanPtr& plan, const WsdDb& db) {
  Optimizer opt(db, OptimizerOptions{});
  MAYBMS_ASSIGN_OR_RETURN(PlanEst est, opt.Estimate(plan));
  return est.rows;
}

Result<std::string> ExplainPlan(const PlanPtr& plan, const WsdDb& db) {
  Optimizer opt(db, OptimizerOptions{});
  return opt.Annotate(plan, 0);
}

}  // namespace sql
}  // namespace maybms
