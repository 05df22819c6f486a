#include "core/delta.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "chase/enforce.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/repair.h"
#include "core/wsd.h"
#include "storage/snapshot_io.h"

#if defined(__GNUC__) && !defined(__clang__)
// GCC's -Wmaybe-uninitialized misfires on std::variant relocation during
// vector growth (it warns about members of inactive alternatives); every
// op is fully initialized before it is pushed.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace maybms {

// --- batch construction -----------------------------------------------------

DeltaBatch& DeltaBatch::Insert(std::string relation,
                               std::vector<CellSpec> cells) {
  ops_.push_back(InsertOp{std::move(relation), std::move(cells)});
  return *this;
}

DeltaBatch& DeltaBatch::EvictOldest(std::string relation, size_t count) {
  ops_.push_back(EvictOp{std::move(relation), count});
  return *this;
}

DeltaBatch& DeltaBatch::Reweight(ComponentId cid, std::vector<double> probs) {
  ops_.push_back(ReweightOp{cid, std::move(probs)});
  return *this;
}

DeltaBatch& DeltaBatch::SetCell(ComponentId cid, uint32_t row, uint32_t slot,
                                Value v) {
  SetCellOp op;
  op.cid = cid;
  op.row = row;
  op.slot = slot;
  op.value = std::move(v);
  ops_.push_back(std::move(op));
  return *this;
}

DeltaBatch& DeltaBatch::RepairKey(std::string relation,
                                  std::vector<std::string> key_attrs,
                                  std::string weight_attr) {
  ops_.push_back(RepairOp{std::move(relation), std::move(key_attrs),
                          std::move(weight_attr)});
  return *this;
}

DeltaBatch& DeltaBatch::Enforce(Constraint constraint) {
  ops_.push_back(EnforceOp{std::move(constraint)});
  return *this;
}

DeltaBatch& DeltaBatch::CreateRelation(std::string relation, Schema schema) {
  ops_.push_back(CreateOp{std::move(relation), std::move(schema)});
  return *this;
}

DeltaBatch& DeltaBatch::DropRelation(std::string relation) {
  ops_.push_back(DropOp{std::move(relation)});
  return *this;
}

// --- serialization ----------------------------------------------------------

namespace {

constexpr uint32_t kDeltaVersion = 1;

enum class OpTag : uint8_t {
  kInsert = 1,
  kEvict = 2,
  kReweight = 3,
  kSetCell = 4,
  kRepair = 5,
  kEnforce = 6,
  kCreate = 7,
  kDrop = 8,
};

// Domain predicates deeper than this are refused by Serialize, so the
// recursive decoder's stack use stays bounded on any payload.
constexpr int kMaxExprDepth = 512;

enum class ValueTag : uint8_t {
  kNull = 0,
  kBottom = 1,
  kBool = 2,
  kInt = 3,
  kDouble = 4,
  kString = 5,
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutPod(out, static_cast<uint8_t>(ValueTag::kNull));
  } else if (v.is_bottom()) {
    PutPod(out, static_cast<uint8_t>(ValueTag::kBottom));
  } else if (v.is_bool()) {
    PutPod(out, static_cast<uint8_t>(ValueTag::kBool));
    PutPod(out, static_cast<uint8_t>(v.as_bool() ? 1 : 0));
  } else if (v.is_int()) {
    PutPod(out, static_cast<uint8_t>(ValueTag::kInt));
    PutPod(out, v.as_int());
  } else if (v.is_double()) {
    PutPod(out, static_cast<uint8_t>(ValueTag::kDouble));
    PutPod(out, v.as_double());
  } else {
    PutPod(out, static_cast<uint8_t>(ValueTag::kString));
    PutLenString(out, v.as_string());
  }
}

Result<Value> ReadValue(SnapshotCursor* cur) {
  MAYBMS_ASSIGN_OR_RETURN(uint8_t tag, cur->Read<uint8_t>());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      return Value::Null();
    case ValueTag::kBottom:
      return Value::Bottom();
    case ValueTag::kBool: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t b, cur->Read<uint8_t>());
      return Value::Bool(b != 0);
    }
    case ValueTag::kInt: {
      MAYBMS_ASSIGN_OR_RETURN(int64_t i, cur->Read<int64_t>());
      return Value::Int(i);
    }
    case ValueTag::kDouble: {
      MAYBMS_ASSIGN_OR_RETURN(double d, cur->Read<double>());
      return Value::Double(d);
    }
    case ValueTag::kString: {
      MAYBMS_ASSIGN_OR_RETURN(std::string s, cur->ReadLenString());
      return Value::String(std::move(s));
    }
  }
  return Status::ParseError(StrFormat("unknown delta value tag %u", tag));
}

void PutStringList(std::string* out, const std::vector<std::string>& v) {
  PutPod(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutLenString(out, s);
}

Result<std::vector<std::string>> ReadStringList(SnapshotCursor* cur) {
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n, cur->Read<uint32_t>());
  std::vector<std::string> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(std::string s, cur->ReadLenString());
    out.push_back(std::move(s));
  }
  return out;
}

Status PutCellSpec(std::string* out, const CellSpec& spec) {
  if (spec.is_pending()) {
    return Status::InvalidArgument(
        "pending cells cannot appear in a serialized delta");
  }
  PutPod(out, static_cast<uint8_t>(spec.is_certain() ? 0 : 1));
  if (spec.is_certain()) {
    PutValue(out, spec.value());
    return Status::OK();
  }
  const auto& alts = spec.alternatives();
  PutPod(out, static_cast<uint32_t>(alts.size()));
  for (const Alternative& a : alts) {
    PutValue(out, a.value);
    PutPod(out, a.prob);
  }
  return Status::OK();
}

Result<CellSpec> ReadCellSpec(SnapshotCursor* cur) {
  MAYBMS_ASSIGN_OR_RETURN(uint8_t kind, cur->Read<uint8_t>());
  if (kind == 0) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, ReadValue(cur));
    return CellSpec::Certain(std::move(v));
  }
  if (kind != 1) {
    return Status::ParseError(StrFormat("unknown delta cell kind %u", kind));
  }
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n, cur->Read<uint32_t>());
  std::vector<Alternative> alts;
  alts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, ReadValue(cur));
    MAYBMS_ASSIGN_OR_RETURN(double p, cur->Read<double>());
    alts.push_back({std::move(v), p});
  }
  return CellSpec::OrSet(std::move(alts));
}

// Expression trees (domain predicates): the kind byte, the node's own
// fields, then its children in order — the kind fixes how many.
Status PutExpr(std::string* out, const Expr& e, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::InvalidArgument(StrFormat(
        "domain predicate nests deeper than %d levels", kMaxExprDepth));
  }
  PutPod(out, static_cast<uint8_t>(e.kind()));
  switch (e.kind()) {
    case ExprKind::kConst:
      PutValue(out, e.const_value());
      break;
    case ExprKind::kColumn:
      PutLenString(out, e.column_name());
      PutPod(out, static_cast<uint8_t>(e.is_bound() ? 1 : 0));
      PutPod(out, static_cast<uint64_t>(e.column_index()));
      break;
    case ExprKind::kCompare:
      PutPod(out, static_cast<uint8_t>(e.compare_op()));
      break;
    case ExprKind::kArith:
      PutPod(out, static_cast<uint8_t>(e.arith_op()));
      break;
    case ExprKind::kIsNull:
      PutPod(out, static_cast<uint8_t>(e.is_null_negated() ? 1 : 0));
      break;
    case ExprKind::kIn:
      PutPod(out, static_cast<uint32_t>(e.in_set().size()));
      for (const Value& v : e.in_set()) PutValue(out, v);
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      break;
  }
  for (const ExprPtr& child : e.children()) {
    MAYBMS_RETURN_IF_ERROR(PutExpr(out, *child, depth + 1));
  }
  return Status::OK();
}

Result<ExprPtr> ReadExpr(SnapshotCursor* cur, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::ParseError("delta expression nested too deeply");
  }
  auto child = [&] { return ReadExpr(cur, depth + 1); };
  MAYBMS_ASSIGN_OR_RETURN(uint8_t kind, cur->Read<uint8_t>());
  switch (static_cast<ExprKind>(kind)) {
    case ExprKind::kConst: {
      MAYBMS_ASSIGN_OR_RETURN(Value v, ReadValue(cur));
      return Expr::Const(std::move(v));
    }
    case ExprKind::kColumn: {
      MAYBMS_ASSIGN_OR_RETURN(std::string name, cur->ReadLenString());
      MAYBMS_ASSIGN_OR_RETURN(uint8_t bound, cur->Read<uint8_t>());
      MAYBMS_ASSIGN_OR_RETURN(uint64_t idx, cur->Read<uint64_t>());
      if (bound == 0) return Expr::Column(std::move(name));
      return Expr::ColumnIdx(static_cast<size_t>(idx), std::move(name));
    }
    case ExprKind::kCompare: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t op, cur->Read<uint8_t>());
      if (op > static_cast<uint8_t>(CompareOp::kGe)) break;
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, child());
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, child());
      return Expr::Compare(static_cast<CompareOp>(op), std::move(l),
                           std::move(r));
    }
    case ExprKind::kArith: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t op, cur->Read<uint8_t>());
      if (op > static_cast<uint8_t>(ArithOp::kDiv)) break;
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, child());
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, child());
      return Expr::Arith(static_cast<ArithOp>(op), std::move(l), std::move(r));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, child());
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, child());
      if (static_cast<ExprKind>(kind) == ExprKind::kAnd) {
        return Expr::And(std::move(l), std::move(r));
      }
      return Expr::Or(std::move(l), std::move(r));
    }
    case ExprKind::kNot: {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, child());
      return Expr::Not(std::move(e));
    }
    case ExprKind::kIsNull: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t negated, cur->Read<uint8_t>());
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, child());
      return Expr::IsNull(std::move(e), negated != 0);
    }
    case ExprKind::kIn: {
      MAYBMS_ASSIGN_OR_RETURN(uint32_t n, cur->Read<uint32_t>());
      std::vector<Value> set;
      for (uint32_t i = 0; i < n; ++i) {
        MAYBMS_ASSIGN_OR_RETURN(Value v, ReadValue(cur));
        set.push_back(std::move(v));
      }
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, child());
      return Expr::In(std::move(e), std::move(set));
    }
  }
  return Status::ParseError(
      StrFormat("malformed delta expression node (kind %u)", kind));
}

Status PutConstraint(std::string* out, const Constraint& c) {
  PutPod(out, static_cast<uint8_t>(c.kind()));
  PutLenString(out, c.relation());
  PutLenString(out, c.name());
  PutStringList(out, c.lhs());
  PutStringList(out, c.rhs());
  if (c.kind() == ConstraintKind::kDomain) {
    MAYBMS_RETURN_IF_ERROR(PutExpr(out, *c.predicate(), 0));
  }
  return Status::OK();
}

Result<Constraint> ReadConstraint(SnapshotCursor* cur) {
  MAYBMS_ASSIGN_OR_RETURN(uint8_t kind, cur->Read<uint8_t>());
  MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur->ReadLenString());
  MAYBMS_ASSIGN_OR_RETURN(std::string name, cur->ReadLenString());
  MAYBMS_ASSIGN_OR_RETURN(std::vector<std::string> lhs, ReadStringList(cur));
  MAYBMS_ASSIGN_OR_RETURN(std::vector<std::string> rhs, ReadStringList(cur));
  switch (static_cast<ConstraintKind>(kind)) {
    case ConstraintKind::kFd:
      return Constraint::FunctionalDependency(std::move(relation),
                                              std::move(lhs), std::move(rhs),
                                              std::move(name));
    case ConstraintKind::kKey:
      return Constraint::Key(std::move(relation), std::move(lhs),
                             std::move(name));
    case ConstraintKind::kDomain: {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr pred, ReadExpr(cur, 0));
      return Constraint::Domain(std::move(relation), std::move(pred),
                                std::move(name));
    }
  }
  return Status::ParseError(
      StrFormat("unknown delta constraint kind %u", kind));
}

}  // namespace

Result<std::string> DeltaBatch::Serialize() const {
  std::string out;
  PutPod(&out, kDeltaVersion);
  PutPod(&out, static_cast<uint32_t>(ops_.size()));
  for (const Op& op : ops_) {
    Status st = std::visit(
        [&out](const auto& o) -> Status {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, InsertOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kInsert));
            PutLenString(&out, o.relation);
            PutPod(&out, static_cast<uint32_t>(o.cells.size()));
            for (const CellSpec& c : o.cells) {
              MAYBMS_RETURN_IF_ERROR(PutCellSpec(&out, c));
            }
          } else if constexpr (std::is_same_v<T, EvictOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kEvict));
            PutLenString(&out, o.relation);
            PutPod(&out, static_cast<uint64_t>(o.count));
          } else if constexpr (std::is_same_v<T, ReweightOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kReweight));
            PutPod(&out, static_cast<uint64_t>(o.cid));
            PutPod(&out, static_cast<uint64_t>(o.probs.size()));
            PutArray(&out, o.probs);
          } else if constexpr (std::is_same_v<T, SetCellOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kSetCell));
            PutPod(&out, static_cast<uint64_t>(o.cid));
            PutPod(&out, o.row);
            PutPod(&out, o.slot);
            PutValue(&out, o.value);
          } else if constexpr (std::is_same_v<T, RepairOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kRepair));
            PutLenString(&out, o.relation);
            PutStringList(&out, o.key_attrs);
            PutLenString(&out, o.weight_attr);
          } else if constexpr (std::is_same_v<T, EnforceOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kEnforce));
            MAYBMS_RETURN_IF_ERROR(PutConstraint(&out, o.constraint));
          } else if constexpr (std::is_same_v<T, CreateOp>) {
            PutPod(&out, static_cast<uint8_t>(OpTag::kCreate));
            PutLenString(&out, o.relation);
            PutPod(&out, static_cast<uint32_t>(o.schema.size()));
            for (const Attribute& a : o.schema.attrs()) {
              PutLenString(&out, a.name);
              PutPod(&out, static_cast<uint8_t>(a.type));
            }
          } else {
            static_assert(std::is_same_v<T, DropOp>);
            PutPod(&out, static_cast<uint8_t>(OpTag::kDrop));
            PutLenString(&out, o.relation);
          }
          return Status::OK();
        },
        op);
    MAYBMS_RETURN_IF_ERROR(st);
  }
  return out;
}

Result<DeltaBatch> DeltaBatch::Deserialize(std::string_view payload) {
  SnapshotCursor cur(payload);
  MAYBMS_ASSIGN_OR_RETURN(uint32_t version, cur.Read<uint32_t>());
  if (version != kDeltaVersion) {
    return Status::ParseError(
        StrFormat("unsupported delta version %u", version));
  }
  MAYBMS_ASSIGN_OR_RETURN(uint32_t n_ops, cur.Read<uint32_t>());
  DeltaBatch batch;
  for (uint32_t i = 0; i < n_ops; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(uint8_t tag, cur.Read<uint8_t>());
    switch (static_cast<OpTag>(tag)) {
      case OpTag::kInsert: {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur.ReadLenString());
        MAYBMS_ASSIGN_OR_RETURN(uint32_t n_cells, cur.Read<uint32_t>());
        std::vector<CellSpec> cells;
        cells.reserve(n_cells);
        for (uint32_t c = 0; c < n_cells; ++c) {
          MAYBMS_ASSIGN_OR_RETURN(CellSpec spec, ReadCellSpec(&cur));
          cells.push_back(std::move(spec));
        }
        batch.Insert(std::move(relation), std::move(cells));
        break;
      }
      case OpTag::kEvict: {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur.ReadLenString());
        MAYBMS_ASSIGN_OR_RETURN(uint64_t count, cur.Read<uint64_t>());
        batch.EvictOldest(std::move(relation), static_cast<size_t>(count));
        break;
      }
      case OpTag::kReweight: {
        MAYBMS_ASSIGN_OR_RETURN(uint64_t cid, cur.Read<uint64_t>());
        MAYBMS_ASSIGN_OR_RETURN(uint64_t n_rows, cur.Read<uint64_t>());
        std::vector<double> probs;
        MAYBMS_RETURN_IF_ERROR(
            cur.ReadArray(static_cast<size_t>(n_rows), &probs));
        batch.Reweight(static_cast<ComponentId>(cid), std::move(probs));
        break;
      }
      case OpTag::kSetCell: {
        MAYBMS_ASSIGN_OR_RETURN(uint64_t cid, cur.Read<uint64_t>());
        MAYBMS_ASSIGN_OR_RETURN(uint32_t row, cur.Read<uint32_t>());
        MAYBMS_ASSIGN_OR_RETURN(uint32_t slot, cur.Read<uint32_t>());
        MAYBMS_ASSIGN_OR_RETURN(Value v, ReadValue(&cur));
        batch.SetCell(static_cast<ComponentId>(cid), row, slot, std::move(v));
        break;
      }
      case OpTag::kRepair: {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur.ReadLenString());
        MAYBMS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                                ReadStringList(&cur));
        MAYBMS_ASSIGN_OR_RETURN(std::string weight, cur.ReadLenString());
        batch.RepairKey(std::move(relation), std::move(keys),
                        std::move(weight));
        break;
      }
      case OpTag::kEnforce: {
        MAYBMS_ASSIGN_OR_RETURN(Constraint c, ReadConstraint(&cur));
        batch.Enforce(std::move(c));
        break;
      }
      case OpTag::kCreate: {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur.ReadLenString());
        MAYBMS_ASSIGN_OR_RETURN(uint32_t n_attrs, cur.Read<uint32_t>());
        std::vector<Attribute> attrs;
        for (uint32_t a = 0; a < n_attrs; ++a) {
          MAYBMS_ASSIGN_OR_RETURN(std::string name, cur.ReadLenString());
          MAYBMS_ASSIGN_OR_RETURN(uint8_t type, cur.Read<uint8_t>());
          if (type > static_cast<uint8_t>(ValueType::kString)) {
            return Status::ParseError(
                StrFormat("unknown delta attribute type %u", type));
          }
          attrs.push_back({std::move(name), static_cast<ValueType>(type)});
        }
        batch.CreateRelation(std::move(relation), Schema(std::move(attrs)));
        break;
      }
      case OpTag::kDrop: {
        MAYBMS_ASSIGN_OR_RETURN(std::string relation, cur.ReadLenString());
        batch.DropRelation(std::move(relation));
        break;
      }
      default:
        return Status::ParseError(StrFormat("unknown delta op tag %u", tag));
    }
  }
  if (!cur.AtEnd()) {
    return Status::ParseError("trailing bytes after delta ops");
  }
  return batch;
}

std::string DeltaBatch::ToString() const {
  std::string out;
  for (const Op& op : ops_) {
    std::visit(
        [&out](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, InsertOp>) {
            out += StrFormat("insert %s (%zu cells)\n", o.relation.c_str(),
                             o.cells.size());
          } else if constexpr (std::is_same_v<T, EvictOp>) {
            out += StrFormat("evict %s oldest %zu\n", o.relation.c_str(),
                             o.count);
          } else if constexpr (std::is_same_v<T, ReweightOp>) {
            out += StrFormat("reweight c%u (%zu rows)\n", o.cid,
                             o.probs.size());
          } else if constexpr (std::is_same_v<T, SetCellOp>) {
            out += StrFormat("setcell c%u[%u,%u] = %s\n", o.cid, o.row,
                             o.slot, o.value.ToString().c_str());
          } else if constexpr (std::is_same_v<T, RepairOp>) {
            out += StrFormat("repair key %s (%zu attrs)\n", o.relation.c_str(),
                             o.key_attrs.size());
          } else if constexpr (std::is_same_v<T, EnforceOp>) {
            out += "enforce " + o.constraint.ToString() + "\n";
          } else if constexpr (std::is_same_v<T, CreateOp>) {
            out += "create " + o.relation + " " + o.schema.ToString() + "\n";
          } else {
            static_assert(std::is_same_v<T, DropOp>);
            out += "drop " + o.relation + "\n";
          }
        },
        op);
  }
  return out;
}

// --- application ------------------------------------------------------------

namespace {

Status ApplyInsert(WsdDb* db, const DeltaBatch::InsertOp& op) {
  for (const CellSpec& c : op.cells) {
    if (c.is_pending()) {
      return Status::InvalidArgument(
          "pending cells are not allowed in a delta insert");
    }
  }
  return InsertTuple(db, op.relation, op.cells).status();
}

Status ApplyReweight(WsdDb* db, const DeltaBatch::ReweightOp& op) {
  if (!db->IsLive(op.cid)) {
    return Status::InvalidArgument(
        StrFormat("reweight of dead component %u", op.cid));
  }
  const Component& c = db->component(op.cid);
  if (op.probs.size() != c.NumRows()) {
    return Status::InvalidArgument(
        StrFormat("reweight arity %zu != component %u row count %zu",
                  op.probs.size(), op.cid, c.NumRows()));
  }
  double mass = 0.0;
  for (double p : op.probs) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::OutOfRange(
          StrFormat("reweight probability %g outside [0,1]", p));
    }
    mass += p;
  }
  if (std::abs(mass - 1.0) > 1e-6) {
    return Status::InvalidArgument(
        StrFormat("reweight probabilities sum to %g, expected 1", mass));
  }
  Component& mc = db->mutable_component(op.cid);
  for (size_t r = 0; r < op.probs.size(); ++r) mc.set_prob(r, op.probs[r]);
  return Status::OK();
}

Status ApplySetCell(WsdDb* db, const DeltaBatch::SetCellOp& op) {
  if (!db->IsLive(op.cid)) {
    return Status::InvalidArgument(
        StrFormat("setcell on dead component %u", op.cid));
  }
  const Component& c = db->component(op.cid);
  if (op.row >= c.NumRows() || op.slot >= c.NumSlots()) {
    return Status::OutOfRange(
        StrFormat("setcell (%u,%u) outside component %u (%zu rows, %zu "
                  "slots)",
                  op.row, op.slot, op.cid, c.NumRows(), c.NumSlots()));
  }
  db->mutable_component(op.cid).SetValue(op.row, op.slot, op.value);
  return Status::OK();
}

}  // namespace

Status WsdDb::EvictOldest(const std::string& relation, size_t count,
                          size_t* evicted) {
  auto it = relations_.find(ToLower(relation));
  if (it == relations_.end()) {
    return Status::NotFound("relation not found: " + relation);
  }
  WsdRelation& rel = it->second;
  const size_t from_base = std::min(count, rel.base_rows());
  rel.set_base_rows(rel.base_rows() - from_base);
  *evicted += from_base;
  const size_t n = std::min(count - from_base, rel.NumTuples());
  if (n == 0) return Status::OK();
  RefIndex& index = MutableRefIndex();
  auto release = [](auto* counts, auto key) {
    auto c = counts->find(key);
    MAYBMS_DCHECK(c != counts->end());
    if (--c->second == 0) counts->erase(c);
  };

  // Candidates for GC: the components the evicted prefix references by
  // cell, plus those with a slot owned by an evicted dep (pure existence
  // components have no cell references).
  std::vector<ComponentId> candidates;
  for (size_t i = 0; i < n; ++i) {
    const WsdTuple& t = rel.tuple(i);
    for (const Cell& c : t.cells) {
      if (!c.is_ref()) continue;
      candidates.push_back(c.ref().cid);
      release(&index.cell_refs, c.ref().cid);
    }
    for (OwnerId o : t.deps) {
      auto owned = index.slot_comps.find(o);
      if (owned != index.slot_comps.end()) {
        candidates.insert(candidates.end(), owned->second.begin(),
                          owned->second.end());
      }
      release(&index.gated, o);
    }
  }
  rel.EraseOldest(n);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // A candidate survives when some remaining tuple (of any relation)
  // still references it or is gated by one of its owners.
  for (ComponentId id : candidates) {
    if (!IsLive(id) || index.cell_refs.count(id)) continue;
    const std::vector<Slot>& slots = component(id).slots();
    const bool gates_survivor =
        std::any_of(slots.begin(), slots.end(), [&](const Slot& s) {
          return index.gated.count(s.owner) > 0;
        });
    if (gates_survivor) continue;
    for (const Slot& s : slots) {
      auto owned = index.slot_comps.find(s.owner);
      if (owned == index.slot_comps.end()) continue;  // a repeat owner
      std::vector<ComponentId>& comps = owned->second;
      auto pos = std::find(comps.begin(), comps.end(), id);
      if (pos == comps.end()) continue;  // likewise
      comps.erase(pos);
      if (comps.empty()) index.slot_comps.erase(owned);
    }
    RemoveComponent(id);
  }
  *evicted += n;
  return Status::OK();
}

Result<DeltaEffects> WsdDb::ApplyDelta(const DeltaBatch& batch) {
  MAYBMS_CHECK(delta_scope_ == nullptr) << "nested ApplyDelta";
  DeltaScope scope;
  delta_scope_ = &scope;

  DeltaEffects effects;
  // Relations whose tuple vectors an op touched directly (storage keys);
  // component-driven dirtiness is derived in the epilogue.
  std::vector<std::string> touched_rels;
  Status st = Status::OK();
  for (const DeltaBatch::Op& op : batch.ops()) {
    st = std::visit(
        [&](const auto& o) -> Status {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, DeltaBatch::InsertOp>) {
            const auto first_new =
                static_cast<ComponentId>(component_slot_count());
            const Status inserted = ApplyInsert(this, o);
            if (!inserted.ok()) {
              ref_index_.reset();  // may have left components behind
              return inserted;
            }
            IndexInsert(o.relation, first_new);
            ++effects.tuples_inserted;
            touched_rels.push_back(ToLower(o.relation));
          } else if constexpr (std::is_same_v<T, DeltaBatch::EvictOp>) {
            MAYBMS_RETURN_IF_ERROR(
                EvictOldest(o.relation, o.count, &effects.tuples_evicted));
            touched_rels.push_back(ToLower(o.relation));
          } else if constexpr (std::is_same_v<T, DeltaBatch::ReweightOp>) {
            return ApplyReweight(this, o);
          } else if constexpr (std::is_same_v<T, DeltaBatch::SetCellOp>) {
            return ApplySetCell(this, o);
          } else if constexpr (std::is_same_v<T, DeltaBatch::RepairOp>) {
            ref_index_.reset();
            MAYBMS_ASSIGN_OR_RETURN(
                RepairKeyStats rs,
                maybms::RepairKey(this, o.relation, o.key_attrs,
                                  o.weight_attr));
            effects.repair_groups += rs.groups;
            effects.repair_conflicting_groups += rs.conflicting_groups;
            effects.repair_log2_worlds_added += rs.log2_worlds_added;
            touched_rels.push_back(ToLower(o.relation));
          } else if constexpr (std::is_same_v<T, DeltaBatch::EnforceOp>) {
            ref_index_.reset();
            MAYBMS_ASSIGN_OR_RETURN(EnforceStats es,
                                    maybms::Enforce(this, o.constraint));
            effects.enforce_removed_mass += es.removed_mass;
            effects.enforce_rows_removed += es.rows_removed;
            touched_rels.push_back(ToLower(o.constraint.relation()));
          } else if constexpr (std::is_same_v<T, DeltaBatch::CreateOp>) {
            MAYBMS_RETURN_IF_ERROR(CreateRelation(o.relation, o.schema));
            touched_rels.push_back(ToLower(o.relation));
          } else {
            // Evicting every tuple first collects the components only
            // the dropped relation used, under the eviction GC rule; an
            // empty relation leaves the index unchanged.
            static_assert(std::is_same_v<T, DeltaBatch::DropOp>);
            auto it = relations_.find(ToLower(o.relation));
            if (it == relations_.end()) {
              return Status::NotFound("relation not found: " + o.relation);
            }
            size_t evicted = 0;
            MAYBMS_RETURN_IF_ERROR(EvictOldest(
                o.relation, it->second.base_rows() + it->second.NumTuples(),
                &evicted));
            relations_.erase(it);
          }
          return Status::OK();
        },
        op);
    if (!st.ok()) break;
  }
  delta_scope_ = nullptr;

  // Epilogue — runs even after an op failed: already-applied ops are
  // kept (deterministic partial failure), so their invalidation must
  // happen either way.
  auto sort_unique = [](auto* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  sort_unique(&scope.removed);
  sort_unique(&scope.touched_owners);
  sort_unique(&scope.dirty);
  // Created-then-removed (e.g. merged away) components are not dirty —
  // nothing can reference them anymore.
  scope.dirty.erase(
      std::remove_if(scope.dirty.begin(), scope.dirty.end(),
                     [&](ComponentId id) {
                       return std::binary_search(scope.removed.begin(),
                                                 scope.removed.end(), id);
                     }),
      scope.dirty.end());
  sort_unique(&touched_rels);

  std::vector<ComponentId> touched_comps = scope.dirty;
  touched_comps.insert(touched_comps.end(), scope.removed.begin(),
                       scope.removed.end());
  sort_unique(&touched_comps);

  for (auto& [key, rel] : relations_) {
    bool dirty = std::binary_search(touched_rels.begin(), touched_rels.end(),
                                    key);
    if (!dirty && !touched_comps.empty()) {
      for (const WsdTuple& t : rel.tuples()) {
        for (const Cell& c : t.cells) {
          if (c.is_ref() && std::binary_search(touched_comps.begin(),
                                               touched_comps.end(),
                                               c.ref().cid)) {
            dirty = true;
            break;
          }
        }
        if (!dirty) {
          for (OwnerId o : t.deps) {
            if (std::binary_search(scope.touched_owners.begin(),
                                   scope.touched_owners.end(), o)) {
              dirty = true;
              break;
            }
          }
        }
        if (dirty) break;
      }
    }
    if (dirty) {
      rel.set_cached_shards(nullptr);
      effects.dirty_relations.push_back(key);
    }
  }

  if (!batch.empty()) ++mutation_epoch_;
  if (!st.ok()) return st;

  effects.dirty_components = std::move(scope.dirty);
  effects.removed_components = std::move(scope.removed);
  effects.epoch = mutation_epoch_;
  return effects;
}

}  // namespace maybms
