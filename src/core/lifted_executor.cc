#include "core/lifted_executor.h"

#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "core/factorize.h"
#include "core/lifted.h"
#include "core/lifted_internal.h"
#include "core/normalize.h"

namespace maybms {

namespace {

// Counts how many times each base relation is scanned.
void CountScans(const PlanPtr& plan,
                std::map<std::string, size_t>* counts) {
  if (plan->kind() == PlanKind::kScan) {
    (*counts)[ToLower(plan->relation())]++;
  }
  for (const auto& c : plan->children()) CountScans(c, counts);
}

class LiftedRunner {
 public:
  LiftedRunner(WsdDb* db, const ExecOptions& eval_opts)
      : db_(db), eval_opts_(eval_opts), owners_(*db) {}

  // Pre-instantiates `count` independent scan copies of each base
  // relation, then drops every other relation, so that the working
  // database holds only the scanned relations and the components they
  // reference or are gated by. The copies themselves are not normalized
  // here: each operator normalizes what it reads.
  Status PrepareScans(const std::map<std::string, size_t>& counts) {
    for (const auto& [name, count] : counts) {
      MAYBMS_ASSIGN_OR_RETURN(const WsdRelation* rel, db_->GetRelation(name));
      std::string display = rel->display_name();
      // Copies beyond the first share slots and owners deliberately:
      // multiple scans of one relation are correlated (self-join
      // semantics). The last "copy" moves the base relation instead, so a
      // single scan costs no duplication.
      for (size_t i = 1; i < count; ++i) {
        std::string copy = StrFormat(
            "%s%s_%zu", lifted_internal::kScanCopyPrefix, name.c_str(), i);
        MAYBMS_RETURN_IF_ERROR(db_->CreateRelation(copy, rel->schema()));
        WsdRelation* dst = db_->GetMutableRelation(copy).value();
        const WsdRelation* src = db_->GetRelation(name).value();
        *dst = *src;
        dst->set_name(copy);
        dst->set_display_name(display);
        scan_queue_[name].push_back(copy);
      }
      std::string moved =
          StrFormat("%s%s_0", lifted_internal::kScanCopyPrefix, name.c_str());
      MAYBMS_RETURN_IF_ERROR(RenameRelation(db_, name, moved));
      db_->GetMutableRelation(moved).value()->set_display_name(display);
      scan_queue_[name].push_back(moved);
    }
    NormalizeScope released;
    for (const auto& name : db_->RelationNames()) {
      if (!StartsWith(name, lifted_internal::kScanCopyPrefix)) {
        released.AddRelation(*db_->GetRelation(name).value());
        MAYBMS_RETURN_IF_ERROR(db_->DropRelation(name));
      }
    }
    return Release(released);
  }

  // Normalizes what dropping relations released (their components that
  // nothing else references are collected), or a scan copy the plan
  // reads without an operator.
  Status Release(const NormalizeScope& released) {
    if (released.empty()) return Status::OK();
    return lifted_internal::FinishOperator(db_, released, &owners_);
  }

  Result<std::string> Run(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kScan: {
        auto& queue = scan_queue_[ToLower(plan->relation())];
        if (queue.empty()) {
          return Status::Internal("scan copy exhausted for " +
                                  plan->relation());
        }
        std::string name = queue.back();
        queue.pop_back();
        return name;
      }
      case PlanKind::kSelect: {
        MAYBMS_ASSIGN_OR_RETURN(std::string in, Run(plan->input()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedSelect(db_, in, plan->predicate(), out,
                                            eval_opts_, &owners_));
        return out;
      }
      case PlanKind::kProject: {
        MAYBMS_ASSIGN_OR_RETURN(std::string in, Run(plan->input()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedProject(db_, in, plan->project_items(),
                                             out, eval_opts_, &owners_));
        return out;
      }
      case PlanKind::kProduct: {
        MAYBMS_ASSIGN_OR_RETURN(std::string l, Run(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(std::string r, Run(plan->right()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedProduct(db_, l, r, out, &owners_));
        return out;
      }
      case PlanKind::kJoin: {
        MAYBMS_ASSIGN_OR_RETURN(std::string l, Run(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(std::string r, Run(plan->right()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedJoin(db_, l, r, plan->predicate(), out,
                                          eval_opts_, &owners_));
        return out;
      }
      case PlanKind::kUnion: {
        MAYBMS_ASSIGN_OR_RETURN(std::string l, Run(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(std::string r, Run(plan->right()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedUnion(db_, l, r, out, &owners_));
        return out;
      }
      case PlanKind::kDifference: {
        MAYBMS_ASSIGN_OR_RETURN(std::string l, Run(plan->left()));
        MAYBMS_ASSIGN_OR_RETURN(std::string r, Run(plan->right()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedDifference(db_, l, r, out, &owners_));
        return out;
      }
      case PlanKind::kDistinct: {
        MAYBMS_ASSIGN_OR_RETURN(std::string in, Run(plan->input()));
        std::string out = NextTemp();
        MAYBMS_RETURN_IF_ERROR(LiftedDistinct(db_, in, out, &owners_));
        return out;
      }
      case PlanKind::kSort: {
        MAYBMS_ASSIGN_OR_RETURN(std::string in, Run(plan->input()));
        // Sort normalizes nothing itself. A scan copy it reads directly is
        // the input as stored, where a one-alternative or-set is still a
        // one-row component: normalize it first, so such a key is certain.
        if (StartsWith(in, lifted_internal::kScanCopyPrefix)) {
          NormalizeScope read;
          read.AddRelation(*db_->GetRelation(in).value());
          MAYBMS_RETURN_IF_ERROR(Release(read));
        }
        MAYBMS_RETURN_IF_ERROR(SortCertain(in, plan));
        return in;
      }
      case PlanKind::kLimit:
        return Status::Unsupported(
            "LIMIT over world-sets is not defined (per-world cardinality "
            "varies)");
      case PlanKind::kAggregate:
        return Status::Unsupported(
            "aggregates over world-sets are lowered to confidence "
            "computation by the SQL layer");
    }
    return Status::Internal("unreachable plan kind");
  }

 private:
  std::string NextTemp() { return StrFormat("__t%zu", temp_counter_++); }

  // Sorts template order by certain sort columns; the template order is
  // the presentation order in every world, so this is only defined when
  // the sort keys are world-independent.
  Status SortCertain(const std::string& name, const PlanPtr& plan) {
    MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db_->GetMutableRelation(name));
    std::vector<size_t> idxs;
    for (const auto& col : plan->sort_columns()) {
      MAYBMS_ASSIGN_OR_RETURN(size_t i, rel->schema().Resolve(col));
      idxs.push_back(i);
    }
    for (const auto& t : rel->tuples()) {
      for (size_t i : idxs) {
        if (!t.cells[i].is_certain()) {
          return Status::Unsupported(
              "ORDER BY over uncertain attribute " +
              rel->schema().attr(i).name);
        }
      }
    }
    const auto& desc = plan->sort_descending();
    std::stable_sort(rel->mutable_tuples().begin(),
                     rel->mutable_tuples().end(),
                     [&](const WsdTuple& a, const WsdTuple& b) {
                       for (size_t k = 0; k < idxs.size(); ++k) {
                         int c = a.cells[idxs[k]].value().Compare(
                             b.cells[idxs[k]].value());
                         if (k < desc.size() && desc[k]) c = -c;
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    return Status::OK();
  }

  WsdDb* db_;
  ExecOptions eval_opts_;
  OwnerLocator owners_;
  std::map<std::string, std::vector<std::string>> scan_queue_;
  size_t temp_counter_ = 0;
};

}  // namespace

Result<WsdDb> ExecuteLifted(const PlanPtr& plan, const WsdDb& input,
                            const LiftedExecOptions& options) {
  // A copy-on-write copy: relations and components stay shared with the
  // input until an operator changes them. The runner's owner locator is
  // seeded from the input's reference index before the first mutation
  // drops the copy's.
  WsdDb working = input;
  std::map<std::string, size_t> counts;
  CountScans(plan, &counts);
  LiftedRunner runner(&working, options.eval);
  MAYBMS_RETURN_IF_ERROR(runner.PrepareScans(counts));
  MAYBMS_ASSIGN_OR_RETURN(std::string result, runner.Run(plan));
  // Drop any leftover scan copies (plans that do not consume every copy
  // cannot occur today, but stay defensive). A result that is itself an
  // unread scan copy (a bare scan, or a sort of one) is what the plan
  // reaches, so it is normalized too.
  NormalizeScope rest;
  for (const auto& name : working.RelationNames()) {
    const WsdRelation* rel = working.GetRelation(name).value();
    if (EqualsIgnoreCase(name, result)) {
      if (StartsWith(ToLower(name), lifted_internal::kScanCopyPrefix)) {
        rest.AddRelation(*rel);
      }
      continue;
    }
    rest.AddRelation(*rel);
    MAYBMS_RETURN_IF_ERROR(working.DropRelation(name));
  }
  MAYBMS_RETURN_IF_ERROR(RenameRelation(&working, result,
                                        options.result_name));
  MAYBMS_RETURN_IF_ERROR(runner.Release(rest));
  if (options.factorize_result) {
    MAYBMS_ASSIGN_OR_RETURN(FactorizeStats fs, Factorize(&working));
    (void)fs;
  }
  return working;
}

}  // namespace maybms
