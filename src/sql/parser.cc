#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/token.h"

namespace maybms {
namespace sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseOne() {
    MAYBMS_ASSIGN_OR_RETURN(Statement s, ParseStatementInternal());
    Accept(";");
    if (!At(TokenKind::kEnd)) {
      return Error("trailing input after statement");
    }
    return s;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!At(TokenKind::kEnd)) {
      if (Accept(";")) continue;
      MAYBMS_ASSIGN_OR_RETURN(Statement s, ParseStatementInternal());
      out.push_back(std::move(s));
      if (!Accept(";") && !At(TokenKind::kEnd)) {
        return Error("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  // --- token helpers -----------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind k) const { return Cur().kind == k; }
  bool AtKeyword(const char* kw) const { return Cur().IsKeyword(kw); }
  bool AtSymbol(const char* s) const { return Cur().IsSymbol(s); }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool Accept(const char* sym) {
    if (AtSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(const char* kw) {
    if (AtKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const char* sym) {
    if (!Accept(sym)) {
      return Error(std::string("expected '") + sym + "'");
    }
    return Status::OK();
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Error(std::string("expected ") + kw);
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdent(const char* what) {
    if (!At(TokenKind::kIdent)) {
      return Error(std::string("expected ") + what);
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }
  Result<double> ExpectNumber(const char* what) {
    if (At(TokenKind::kFloat)) {
      double v = Cur().float_value;
      Advance();
      return v;
    }
    if (At(TokenKind::kInt)) {
      double v = static_cast<double>(Cur().int_value);
      Advance();
      return v;
    }
    return Error(std::string("expected ") + what);
  }
  // Returns a Status that converts implicitly into any Result<T>.
  Status Error(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%s at offset %zu (near '%s')", msg.c_str(), Cur().offset,
                  Cur().text.c_str()));
  }

  // --- statements --------------------------------------------------------
  Result<Statement> ParseStatementInternal() {
    if (AtKeyword("create")) return ParseCreate();
    if (AtKeyword("insert")) return ParseInsert();
    if (AtKeyword("drop")) return ParseDrop();
    if (AtKeyword("explain")) return ParseExplain();
    if (AtKeyword("show")) return ParseShow();
    if (AtKeyword("enforce")) return ParseEnforce();
    if (AtKeyword("repair")) return ParseRepair();
    if (AtKeyword("save")) return ParseSaveDb();
    if (AtKeyword("load")) return ParseLoadDb();
    if (AtKeyword("set")) return ParseSet();
    if (AtKeyword("delete")) return ParseDelete();
    if (AtKeyword("checkpoint")) {
      Advance();
      Statement s;
      s.kind = Statement::Kind::kCheckpoint;
      s.checkpoint = CheckpointStmt{};
      return s;
    }
    if (AtKeyword("select") || AtKeyword("possible") || AtKeyword("certain")) {
      Statement s;
      s.kind = Statement::Kind::kSelect;
      MAYBMS_ASSIGN_OR_RETURN(s.select, ParseSelect());
      return s;
    }
    return Error("expected a statement");
  }

  Result<std::string> ExpectPathLiteral() {
    if (!At(TokenKind::kString)) {
      return Error("expected a quoted file path");
    }
    std::string path = Cur().text;
    Advance();
    if (path.empty()) return Error("file path must not be empty");
    return path;
  }

  Result<Statement> ParseSaveDb() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("save"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("database"));
    Statement s;
    s.kind = Statement::Kind::kSaveDb;
    SaveDbStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.path, ExpectPathLiteral());
    if (AcceptKeyword("format")) {
      if (AcceptKeyword("text")) {
        stmt.binary = false;
      } else if (AcceptKeyword("binary")) {
        stmt.binary = true;
      } else {
        return Error("expected TEXT or BINARY after FORMAT");
      }
    }
    s.save_db = std::move(stmt);
    return s;
  }

  Result<Statement> ParseLoadDb() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("load"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("database"));
    Statement s;
    s.kind = Statement::Kind::kLoadDb;
    LoadDbStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.path, ExpectPathLiteral());
    stmt.mapped = AcceptKeyword("mapped");
    s.load_db = std::move(stmt);
    return s;
  }

  Result<Statement> ParseRepair() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("repair"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("key"));
    Statement s;
    s.kind = Statement::Kind::kRepair;
    RepairStmt stmt;
    bool paren = Accept("(");
    do {
      MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("key column"));
      stmt.key.push_back(std::move(col));
    } while (Accept(","));
    if (paren) MAYBMS_RETURN_IF_ERROR(Expect(")"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("in"));
    MAYBMS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    if (AcceptKeyword("weight")) {
      MAYBMS_RETURN_IF_ERROR(ExpectKeyword("by"));
      MAYBMS_ASSIGN_OR_RETURN(stmt.weight, ExpectIdent("weight column"));
    }
    s.repair = std::move(stmt);
    return s;
  }

  Result<Statement> ParseCreate() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("create"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("table"));
    CreateTableStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("table name"));
    MAYBMS_RETURN_IF_ERROR(Expect("("));
    do {
      MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column name"));
      MAYBMS_ASSIGN_OR_RETURN(std::string type, ExpectIdent("column type"));
      ValueType vt;
      if (EqualsIgnoreCase(type, "int") || EqualsIgnoreCase(type, "integer") ||
          EqualsIgnoreCase(type, "bigint")) {
        vt = ValueType::kInt;
      } else if (EqualsIgnoreCase(type, "double") ||
                 EqualsIgnoreCase(type, "float") ||
                 EqualsIgnoreCase(type, "real")) {
        vt = ValueType::kDouble;
      } else if (EqualsIgnoreCase(type, "string") ||
                 EqualsIgnoreCase(type, "text") ||
                 EqualsIgnoreCase(type, "varchar")) {
        vt = ValueType::kString;
      } else if (EqualsIgnoreCase(type, "bool") ||
                 EqualsIgnoreCase(type, "boolean")) {
        vt = ValueType::kBool;
      } else {
        return Error("unknown type " + type);
      }
      MAYBMS_RETURN_IF_ERROR(stmt.schema.Add({col, vt}));
    } while (Accept(","));
    MAYBMS_RETURN_IF_ERROR(Expect(")"));
    Statement s;
    s.kind = Statement::Kind::kCreateTable;
    s.create_table = std::move(stmt);
    return s;
  }

  Result<Value> ParseLiteral() {
    if (At(TokenKind::kInt)) {
      Value v = Value::Int(Cur().int_value);
      Advance();
      return v;
    }
    if (At(TokenKind::kFloat)) {
      Value v = Value::Double(Cur().float_value);
      Advance();
      return v;
    }
    if (At(TokenKind::kString)) {
      Value v = Value::String(Cur().text);
      Advance();
      return v;
    }
    if (AcceptKeyword("null")) return Value::Null();
    if (AcceptKeyword("true")) return Value::Bool(true);
    if (AcceptKeyword("false")) return Value::Bool(false);
    if (Accept("-")) {
      if (At(TokenKind::kInt)) {
        Value v = Value::Int(-Cur().int_value);
        Advance();
        return v;
      }
      if (At(TokenKind::kFloat)) {
        Value v = Value::Double(-Cur().float_value);
        Advance();
        return v;
      }
      return Error("expected number after '-'");
    }
    return Error("expected literal");
  }

  Result<InsertCell> ParseInsertCell() {
    InsertCell cell;
    if (Accept("{")) {
      cell.is_orset = true;
      do {
        MAYBMS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        cell.alternatives.push_back(std::move(v));
        if (Accept(":")) {
          if (At(TokenKind::kFloat)) {
            cell.probs.push_back(Cur().float_value);
            Advance();
          } else if (At(TokenKind::kInt)) {
            cell.probs.push_back(static_cast<double>(Cur().int_value));
            Advance();
          } else {
            return Error("expected probability after ':'");
          }
        }
      } while (Accept(","));
      MAYBMS_RETURN_IF_ERROR(Expect("}"));
      if (!cell.probs.empty() &&
          cell.probs.size() != cell.alternatives.size()) {
        return Error(
            "either all or none of the or-set alternatives may carry "
            "probabilities");
      }
      return cell;
    }
    MAYBMS_ASSIGN_OR_RETURN(cell.value, ParseLiteral());
    return cell;
  }

  Result<Statement> ParseInsert() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("insert"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("into"));
    InsertStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("values"));
    do {
      MAYBMS_RETURN_IF_ERROR(Expect("("));
      std::vector<InsertCell> row;
      do {
        MAYBMS_ASSIGN_OR_RETURN(InsertCell c, ParseInsertCell());
        row.push_back(std::move(c));
      } while (Accept(","));
      MAYBMS_RETURN_IF_ERROR(Expect(")"));
      stmt.rows.push_back(std::move(row));
    } while (Accept(","));
    Statement s;
    s.kind = Statement::Kind::kInsert;
    s.insert = std::move(stmt);
    return s;
  }

  Result<Statement> ParseDrop() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("drop"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("table"));
    Statement s;
    s.kind = Statement::Kind::kDropTable;
    DropTableStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("table name"));
    s.drop_table = std::move(stmt);
    return s;
  }

  Result<Statement> ParseExplain() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("explain"));
    Statement s;
    s.kind = Statement::Kind::kExplain;
    ExplainStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    s.explain = std::move(stmt);
    return s;
  }

  Result<Statement> ParseShow() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("show"));
    Statement s;
    s.kind = Statement::Kind::kShow;
    ShowStmt stmt;
    if (AcceptKeyword("tables")) {
      stmt.what = ShowStmt::What::kTables;
    } else if (AcceptKeyword("worlds")) {
      stmt.what = ShowStmt::What::kWorlds;
      if (At(TokenKind::kInt)) {
        stmt.max_worlds = static_cast<size_t>(Cur().int_value);
        Advance();
      }
    } else if (AcceptKeyword("relation")) {
      stmt.what = ShowStmt::What::kRelation;
      MAYBMS_ASSIGN_OR_RETURN(stmt.relation, ExpectIdent("relation name"));
    } else if (AcceptKeyword("settings")) {
      stmt.what = ShowStmt::What::kSettings;
    } else {
      return Error("expected TABLES, WORLDS, RELATION or SETTINGS after SHOW");
    }
    s.show = std::move(stmt);
    return s;
  }

  Result<Statement> ParseSet() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("set"));
    Statement s;
    s.kind = Statement::Kind::kSet;
    SetStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("setting name"));
    MAYBMS_RETURN_IF_ERROR(Expect("="));
    MAYBMS_ASSIGN_OR_RETURN(stmt.value, ParseLiteral());
    s.set = std::move(stmt);
    return s;
  }

  Result<Statement> ParseDelete() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("delete"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("from"));
    Statement s;
    s.kind = Statement::Kind::kDelete;
    DeleteStmt stmt;
    MAYBMS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("oldest"));
    if (!At(TokenKind::kInt) || Cur().int_value < 0) {
      return Error("expected a non-negative tuple count after OLDEST");
    }
    stmt.count = static_cast<size_t>(Cur().int_value);
    Advance();
    s.delete_stmt = std::move(stmt);
    return s;
  }

  Result<Statement> ParseEnforce() {
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("enforce"));
    Statement s;
    s.kind = Statement::Kind::kEnforce;
    EnforceStmt stmt;
    if (AcceptKeyword("check")) {
      stmt.kind = EnforceStmt::Kind::kCheck;
      MAYBMS_RETURN_IF_ERROR(Expect("("));
      MAYBMS_ASSIGN_OR_RETURN(stmt.check, ParseExpr());
      MAYBMS_RETURN_IF_ERROR(Expect(")"));
    } else if (AcceptKeyword("key")) {
      stmt.kind = EnforceStmt::Kind::kKey;
      MAYBMS_RETURN_IF_ERROR(Expect("("));
      do {
        MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column"));
        stmt.lhs.push_back(std::move(col));
      } while (Accept(","));
      MAYBMS_RETURN_IF_ERROR(Expect(")"));
    } else if (AcceptKeyword("fd")) {
      stmt.kind = EnforceStmt::Kind::kFd;
      do {
        MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column"));
        stmt.lhs.push_back(std::move(col));
      } while (Accept(","));
      MAYBMS_RETURN_IF_ERROR(Expect("->"));
      do {
        MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column"));
        stmt.rhs.push_back(std::move(col));
      } while (Accept(","));
    } else {
      return Error("expected CHECK, KEY or FD after ENFORCE");
    }
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("on"));
    MAYBMS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("table name"));
    s.enforce = std::move(stmt);
    return s;
  }

  // --- SELECT ------------------------------------------------------------
  Result<SelectPtr> ParseSelect() {
    auto stmt = std::make_shared<SelectStmt>();
    if (AcceptKeyword("possible")) {
      stmt->mode = SelectMode::kPossible;
    } else if (AcceptKeyword("certain")) {
      stmt->mode = SelectMode::kCertain;
    }
    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("select"));
    if (AcceptKeyword("distinct")) stmt->distinct = true;

    do {
      SelectItem item;
      if (Accept("*")) {
        item.kind = SelectItem::Kind::kStar;
      } else if (AtKeyword("prob")) {
        Advance();
        MAYBMS_RETURN_IF_ERROR(Expect("("));
        MAYBMS_RETURN_IF_ERROR(Expect(")"));
        item.kind = SelectItem::Kind::kProb;
        item.alias = "prob";
      } else if (AtKeyword("ecount")) {
        Advance();
        MAYBMS_RETURN_IF_ERROR(Expect("("));
        MAYBMS_RETURN_IF_ERROR(Expect(")"));
        item.kind = SelectItem::Kind::kEcount;
        item.alias = "ecount";
      } else if (AtKeyword("esum")) {
        Advance();
        MAYBMS_RETURN_IF_ERROR(Expect("("));
        MAYBMS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column"));
        MAYBMS_RETURN_IF_ERROR(Expect(")"));
        item.kind = SelectItem::Kind::kEsum;
        item.expr = Expr::Column(col);
        item.alias = "esum";
      } else if (AtKeyword("approx")) {
        Advance();
        MAYBMS_RETURN_IF_ERROR(ExpectKeyword("conf"));
        MAYBMS_RETURN_IF_ERROR(Expect("("));
        MAYBMS_ASSIGN_OR_RETURN(item.approx_eps, ExpectNumber("epsilon"));
        if (Accept(",")) {
          MAYBMS_ASSIGN_OR_RETURN(item.approx_delta, ExpectNumber("delta"));
        }
        MAYBMS_RETURN_IF_ERROR(Expect(")"));
        item.kind = SelectItem::Kind::kApproxConf;
        item.alias = "conf";
      } else {
        MAYBMS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (item.expr->kind() == ExprKind::kColumn) {
          item.alias = item.expr->column_name();
        }
      }
      if (AcceptKeyword("as")) {
        MAYBMS_ASSIGN_OR_RETURN(item.alias, ExpectIdent("alias"));
      }
      if (item.alias.empty() && item.kind == SelectItem::Kind::kExpr) {
        item.alias = "expr" + std::to_string(stmt->items.size() + 1);
      }
      stmt->items.push_back(std::move(item));
    } while (Accept(","));

    MAYBMS_RETURN_IF_ERROR(ExpectKeyword("from"));
    do {
      TableRef ref;
      MAYBMS_ASSIGN_OR_RETURN(ref.table, ExpectIdent("table name"));
      if (AcceptKeyword("as")) {
        MAYBMS_ASSIGN_OR_RETURN(ref.alias, ExpectIdent("alias"));
      } else if (At(TokenKind::kIdent) && !AtKeyword("where") &&
                 !AtKeyword("order") && !AtKeyword("union") &&
                 !AtKeyword("except")) {
        ref.alias = Cur().text;
        Advance();
      }
      stmt->from.push_back(std::move(ref));
    } while (Accept(","));

    if (AcceptKeyword("where")) {
      MAYBMS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("order")) {
      MAYBMS_RETURN_IF_ERROR(ExpectKeyword("by"));
      do {
        OrderItem o;
        MAYBMS_ASSIGN_OR_RETURN(o.column, ExpectIdent("order column"));
        if (AcceptKeyword("desc")) {
          o.descending = true;
        } else {
          AcceptKeyword("asc");
        }
        stmt->order_by.push_back(std::move(o));
      } while (Accept(","));
    }
    if (AcceptKeyword("union")) {
      stmt->compound = SelectStmt::Compound::kUnion;
      MAYBMS_ASSIGN_OR_RETURN(stmt->rhs, ParseSelect());
    } else if (AcceptKeyword("except")) {
      stmt->compound = SelectStmt::Compound::kExcept;
      MAYBMS_ASSIGN_OR_RETURN(stmt->rhs, ParseSelect());
    }
    return stmt;
  }

  // --- expressions ---------------------------------------------------------
  // precedence: OR < AND < NOT < comparison/IN/IS < add < mul < primary
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, ParseAnd());
    while (AcceptKeyword("or")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParseAnd());
      l = Expr::Or(std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseAnd() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, ParseNot());
    while (AcceptKeyword("and")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParseNot());
      l = Expr::And(std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("not")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Expr::Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, ParseAdditive());
    if (AtSymbol("=") || AtSymbol("<>") || AtSymbol("!=") || AtSymbol("<") ||
        AtSymbol("<=") || AtSymbol(">") || AtSymbol(">=")) {
      std::string op = Cur().text;
      Advance();
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParseAdditive());
      CompareOp cmp = CompareOp::kEq;
      if (op == "=") cmp = CompareOp::kEq;
      else if (op == "<>" || op == "!=") cmp = CompareOp::kNe;
      else if (op == "<") cmp = CompareOp::kLt;
      else if (op == "<=") cmp = CompareOp::kLe;
      else if (op == ">") cmp = CompareOp::kGt;
      else if (op == ">=") cmp = CompareOp::kGe;
      return Expr::Compare(cmp, std::move(l), std::move(r));
    }
    if (AtKeyword("is")) {
      Advance();
      bool negated = AcceptKeyword("not");
      MAYBMS_RETURN_IF_ERROR(ExpectKeyword("null"));
      return Expr::IsNull(std::move(l), negated);
    }
    if (AtKeyword("in")) {
      Advance();
      MAYBMS_RETURN_IF_ERROR(Expect("("));
      std::vector<Value> set;
      do {
        MAYBMS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        set.push_back(std::move(v));
      } while (Accept(","));
      MAYBMS_RETURN_IF_ERROR(Expect(")"));
      return Expr::In(std::move(l), std::move(set));
    }
    if (AtKeyword("not")) {
      // l NOT IN (...)
      size_t save = pos_;
      Advance();
      if (AcceptKeyword("in")) {
        MAYBMS_RETURN_IF_ERROR(Expect("("));
        std::vector<Value> set;
        do {
          MAYBMS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
          set.push_back(std::move(v));
        } while (Accept(","));
        MAYBMS_RETURN_IF_ERROR(Expect(")"));
        return Expr::Not(Expr::In(std::move(l), std::move(set)));
      }
      pos_ = save;
    }
    return l;
  }

  Result<ExprPtr> ParseAdditive() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, ParseMultiplicative());
    for (;;) {
      if (Accept("+")) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        l = Expr::Arith(ArithOp::kAdd, std::move(l), std::move(r));
      } else if (Accept("-")) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        l = Expr::Arith(ArithOp::kSub, std::move(l), std::move(r));
      } else {
        return l;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    MAYBMS_ASSIGN_OR_RETURN(ExprPtr l, ParsePrimary());
    for (;;) {
      if (Accept("*")) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParsePrimary());
        l = Expr::Arith(ArithOp::kMul, std::move(l), std::move(r));
      } else if (Accept("/")) {
        MAYBMS_ASSIGN_OR_RETURN(ExprPtr r, ParsePrimary());
        l = Expr::Arith(ArithOp::kDiv, std::move(l), std::move(r));
      } else {
        return l;
      }
    }
  }

  Result<ExprPtr> ParsePrimary() {
    if (Accept("(")) {
      MAYBMS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      MAYBMS_RETURN_IF_ERROR(Expect(")"));
      return e;
    }
    if (At(TokenKind::kInt) || At(TokenKind::kFloat) ||
        At(TokenKind::kString) || AtKeyword("null") || AtKeyword("true") ||
        AtKeyword("false") || AtSymbol("-")) {
      MAYBMS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      return Expr::Const(std::move(v));
    }
    if (At(TokenKind::kIdent)) {
      std::string name = Cur().text;
      Advance();
      return Expr::Column(std::move(name));
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& input) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser p(std::move(tokens));
  return p.ParseOne();
}

Result<std::vector<Statement>> ParseScript(const std::string& input) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser p(std::move(tokens));
  return p.ParseAll();
}

}  // namespace sql
}  // namespace maybms
