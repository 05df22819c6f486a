#include "core/builder.h"

#include <cmath>

#include "common/string_util.h"

namespace maybms {

CellSpec CellSpec::Certain(Value v) {
  CellSpec s;
  s.kind_ = Kind::kCertain;
  s.alts_ = {{std::move(v), 1.0}};
  return s;
}

CellSpec CellSpec::OrSet(std::vector<Alternative> alts) {
  CellSpec s;
  s.kind_ = Kind::kOrSet;
  s.alts_ = std::move(alts);
  return s;
}

CellSpec CellSpec::UniformOrSet(std::vector<Value> values) {
  CellSpec s;
  s.kind_ = Kind::kOrSet;
  double p = values.empty() ? 1.0 : 1.0 / static_cast<double>(values.size());
  for (auto& v : values) s.alts_.push_back({std::move(v), p});
  return s;
}

CellSpec CellSpec::Pending() {
  CellSpec s;
  s.kind_ = Kind::kPending;
  s.alts_ = {{Value::Null(), 1.0}};
  return s;
}

WsdDb FromCatalog(const Catalog& catalog) {
  WsdDb db;
  for (const auto& name : catalog.Names()) {
    const Relation& rel = *catalog.Get(name).value();
    Status st = db.CreateRelation(rel.name(), rel.schema());
    (void)st;
    WsdRelation* wrel = db.GetMutableRelation(rel.name()).value();
    wrel->Reserve(rel.NumRows());
    for (const auto& row : rel.rows()) {
      WsdTuple t;
      t.cells.reserve(row.size());
      for (const auto& v : row) t.cells.push_back(Cell::Certain(v));
      wrel->Add(std::move(t));
    }
  }
  return db;
}

namespace {
Status ValidateAlternatives(const std::vector<Alternative>& alts) {
  if (alts.empty()) {
    return Status::InvalidArgument("or-set with no alternatives");
  }
  double mass = 0.0;
  for (const auto& a : alts) {
    if (a.prob < 0.0 || a.prob > 1.0 + 1e-9) {
      return Status::OutOfRange(
          StrFormat("alternative probability %g outside [0,1]", a.prob));
    }
    if (a.value.is_bottom()) {
      return Status::InvalidArgument("⊥ cannot be an or-set alternative");
    }
    mass += a.prob;
  }
  if (std::abs(mass - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        StrFormat("or-set probabilities sum to %g, expected 1", mass));
  }
  return Status::OK();
}
}  // namespace

Result<TupleHandle> InsertTuple(WsdDb* db, const std::string& relation,
                                std::vector<CellSpec> cells) {
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db->GetMutableRelation(relation));
  if (cells.size() != rel->schema().size()) {
    return Status::InvalidArgument(
        StrFormat("tuple has %zu cells, schema %s has %zu", cells.size(),
                  relation.c_str(), rel->schema().size()));
  }
  OwnerId owner = db->NextOwner();
  WsdTuple t;
  t.cells.resize(cells.size());
  bool uncertain = false;
  for (size_t c = 0; c < cells.size(); ++c) {
    const CellSpec& spec = cells[c];
    if (spec.is_certain() || spec.is_pending()) {
      if (spec.is_certain() &&
          !ValueFitsType(spec.value(), rel->schema().attr(c).type)) {
        return Status::TypeMismatch(
            StrFormat("value %s does not fit attribute %s",
                      spec.value().ToString().c_str(),
                      rel->schema().attr(c).name.c_str()));
      }
      t.cells[c] = Cell::Certain(spec.value());
    } else {
      MAYBMS_RETURN_IF_ERROR(ValidateAlternatives(spec.alternatives()));
      Component comp;
      comp.AddSlot(
          {owner, StrFormat("%s[%zu].%s", relation.c_str(),
                            rel->base_rows() + rel->NumTuples(),
                            rel->schema().attr(c).name.c_str())},
          Value::Null());
      for (const auto& alt : spec.alternatives()) {
        if (!ValueFitsType(alt.value, rel->schema().attr(c).type)) {
          return Status::TypeMismatch(
              StrFormat("alternative %s does not fit attribute %s",
                        alt.value.ToString().c_str(),
                        rel->schema().attr(c).name.c_str()));
        }
        MAYBMS_RETURN_IF_ERROR(comp.AddRow({{alt.value}, alt.prob}));
      }
      ComponentId cid = db->AddComponent(std::move(comp));
      t.cells[c] = Cell::Ref({cid, 0});
      uncertain = true;
    }
  }
  if (uncertain) t.deps = {owner};
  TupleHandle handle{relation, rel->NumTuples(), owner};
  rel->Add(std::move(t));
  return handle;
}

Result<ComponentId> AddJointComponent(
    WsdDb* db, const std::vector<FieldSpec>& fields,
    const std::vector<std::pair<std::vector<Value>, double>>& rows) {
  if (fields.empty()) {
    return Status::InvalidArgument("joint component needs at least one field");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("joint component needs at least one row");
  }
  double mass = 0.0;
  for (const auto& [values, p] : rows) {
    if (values.size() != fields.size()) {
      return Status::InvalidArgument(
          StrFormat("joint component row arity %zu != field count %zu",
                    values.size(), fields.size()));
    }
    mass += p;
  }
  if (std::abs(mass - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        StrFormat("joint component probabilities sum to %g", mass));
  }
  Component comp;
  struct Target {
    WsdRelation* rel;
    size_t row;
    size_t col;
    OwnerId owner;
  };
  std::vector<Target> targets;
  for (const auto& f : fields) {
    MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel,
                            db->GetMutableRelation(f.tuple.relation));
    if (f.tuple.index >= rel->NumTuples()) {
      return Status::OutOfRange(
          StrFormat("tuple index %zu out of range", f.tuple.index));
    }
    MAYBMS_ASSIGN_OR_RETURN(size_t col, rel->schema().Resolve(f.attr));
    const Cell& cell = rel->tuple(f.tuple.index).cells[col];
    if (cell.is_ref()) {
      return Status::InvalidArgument(
          StrFormat("field %s.%s already covered by a component",
                    f.tuple.relation.c_str(), f.attr.c_str()));
    }
    comp.AddSlot({f.tuple.owner,
                  StrFormat("%s[%zu].%s", f.tuple.relation.c_str(),
                            f.tuple.index, f.attr.c_str())},
                 Value::Null());
    targets.push_back({rel, f.tuple.index, col, f.tuple.owner});
  }
  for (const auto& [values, p] : rows) {
    for (size_t i = 0; i < values.size(); ++i) {
      const auto& schema = targets[i].rel->schema();
      if (!values[i].is_bottom() &&
          !ValueFitsType(values[i], schema.attr(targets[i].col).type)) {
        return Status::TypeMismatch(
            StrFormat("joint value %s does not fit attribute %s",
                      values[i].ToString().c_str(),
                      schema.attr(targets[i].col).name.c_str()));
      }
    }
    MAYBMS_RETURN_IF_ERROR(comp.AddRow({values, p}));
  }
  ComponentId cid = db->AddComponent(std::move(comp));
  for (size_t i = 0; i < targets.size(); ++i) {
    WsdTuple& t = targets[i].rel->mutable_tuple(targets[i].row);
    t.cells[targets[i].col] = Cell::Ref({cid, static_cast<uint32_t>(i)});
    t.AddDep(targets[i].owner);
  }
  return cid;
}

Result<ComponentId> MakeCellUncertain(WsdDb* db, const std::string& relation,
                                      size_t row, size_t col,
                                      std::vector<Alternative> alts) {
  MAYBMS_RETURN_IF_ERROR(ValidateAlternatives(alts));
  MAYBMS_ASSIGN_OR_RETURN(WsdRelation * rel, db->GetMutableRelation(relation));
  if (row >= rel->NumTuples()) {
    return Status::OutOfRange(StrFormat("row %zu out of range", row));
  }
  if (col >= rel->schema().size()) {
    return Status::OutOfRange(StrFormat("col %zu out of range", col));
  }
  WsdTuple& t = rel->mutable_tuple(row);
  if (t.cells[col].is_ref()) {
    return Status::InvalidArgument("cell is already uncertain");
  }
  for (const auto& a : alts) {
    if (!ValueFitsType(a.value, rel->schema().attr(col).type)) {
      return Status::TypeMismatch(
          StrFormat("alternative %s does not fit attribute %s",
                    a.value.ToString().c_str(),
                    rel->schema().attr(col).name.c_str()));
    }
  }
  OwnerId owner = t.deps.empty() ? db->NextOwner() : t.deps[0];
  Component comp;
  comp.AddSlot({owner, StrFormat("%s[%zu].%s", relation.c_str(), row,
                                 rel->schema().attr(col).name.c_str())},
               Value::Null());
  for (const auto& alt : alts) {
    MAYBMS_RETURN_IF_ERROR(comp.AddRow({{alt.value}, alt.prob}));
  }
  ComponentId cid = db->AddComponent(std::move(comp));
  t.cells[col] = Cell::Ref({cid, 0});
  t.AddDep(owner);
  return cid;
}

}  // namespace maybms
