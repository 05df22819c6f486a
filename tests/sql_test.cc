// Tests for the SQL front-end: lexer, parser, planner, optimizer, and the
// Session end-to-end (including the paper's query written in the actual
// query language).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "sql/token.h"
#include "storage/io_env.h"
#include "tests/test_util.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace sql {
namespace {

TEST(TokenTest, BasicKinds) {
  auto tokens = Tokenize("select a.b, 'it''s' 1 2.5 <= <> -> {x: 0.4}");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  const auto& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].text, "a.b");
  EXPECT_EQ(t[3].kind, TokenKind::kString);
  EXPECT_EQ(t[3].text, "it's");
  EXPECT_EQ(t[4].int_value, 1);
  EXPECT_DOUBLE_EQ(t[5].float_value, 2.5);
  EXPECT_TRUE(t[6].IsSymbol("<="));
  EXPECT_TRUE(t[7].IsSymbol("<>"));
  EXPECT_TRUE(t[8].IsSymbol("->"));
  EXPECT_TRUE(t.back().kind == TokenKind::kEnd);
}

TEST(TokenTest, CommentsAndErrors) {
  auto tokens = Tokenize("select -- comment\n 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].int_value, 1);
  EXPECT_EQ(Tokenize("select 'open").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Tokenize("select @").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, CreateInsertSelect) {
  auto create = ParseStatement(
      "CREATE TABLE r (a INT, b STRING, c DOUBLE, d BOOL)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(create->create_table->schema.size(), 4u);

  auto insert = ParseStatement(
      "INSERT INTO r VALUES (1, {'x': 0.4, 'y': 0.6}), (2, 'z')");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  ASSERT_EQ(insert->insert->rows.size(), 2u);
  EXPECT_TRUE(insert->insert->rows[0][1].is_orset);
  EXPECT_EQ(insert->insert->rows[0][1].alternatives.size(), 2u);
  EXPECT_DOUBLE_EQ(insert->insert->rows[0][1].probs[1], 0.6);
  EXPECT_FALSE(insert->insert->rows[1][1].is_orset);

  auto select = ParseStatement(
      "SELECT a, prob() FROM r WHERE b = 'x' AND a >= 1 ORDER BY a DESC");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  const SelectStmt& s = *select->select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].kind, SelectItem::Kind::kProb);
  ASSERT_TRUE(s.where != nullptr);
  EXPECT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
}

TEST(ParserTest, ModesAndCompound) {
  auto p = ParseStatement("POSSIBLE SELECT a FROM r");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->select->mode, SelectMode::kPossible);
  auto c = ParseStatement("CERTAIN SELECT a FROM r");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->select->mode, SelectMode::kCertain);
  auto u = ParseStatement("SELECT a FROM r UNION SELECT a FROM s");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->select->compound, SelectStmt::Compound::kUnion);
  auto e = ParseStatement("SELECT a FROM r EXCEPT SELECT a FROM s");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->select->compound, SelectStmt::Compound::kExcept);
}

TEST(ParserTest, EnforceVariants) {
  auto check = ParseStatement("ENFORCE CHECK (age >= 0) ON census");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->enforce->kind, EnforceStmt::Kind::kCheck);
  auto key = ParseStatement("ENFORCE KEY (id) ON census");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->enforce->kind, EnforceStmt::Kind::kKey);
  auto fd = ParseStatement("ENFORCE FD city -> state ON census");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->enforce->kind, EnforceStmt::Kind::kFd);
  EXPECT_EQ(fd->enforce->lhs.size(), 1u);
  EXPECT_EQ(fd->enforce->rhs.size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(ParseStatement("SELECT FROM r").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseStatement("SELECT a").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseStatement("CREATE TABLE r (a BLOB)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseStatement("INSERT INTO r VALUES (1").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseStatement("nonsense").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseStatement("SELECT a FROM r; SELECT").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto script = ParseScript(
      "CREATE TABLE r (a INT); INSERT INTO r VALUES (1); SELECT a FROM r;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 3u);
}

TEST(OptimizerTest, ProductBecomesJoinWithPushdown) {
  WsdDb db;
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "r", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}})));
  MAYBMS_ASSERT_OK(db.CreateRelation(
      "s", Schema({{"a", ValueType::kInt}, {"c", ValueType::kInt}})));
  auto stmt = ParseStatement(
      "SELECT b FROM r, s WHERE r.a = s.a AND b > 1 AND c < 5");
  // Column names: left table keeps bare names (a, b); right side gets
  // prefixed on collision (s.a) and keeps c.
  ASSERT_TRUE(stmt.ok());
  // Fix the predicate names to the actual concat schema: a, b, s.a, c.
  auto stmt2 = ParseStatement(
      "SELECT b FROM r, s WHERE a = s.a AND b > 1 AND c < 5");
  ASSERT_TRUE(stmt2.ok());
  auto planned = PlanSelect(*stmt2->select, db);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto optimized = Optimize(planned->plan, db);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  std::string text = (*optimized)->ToString();
  EXPECT_NE(text.find("Join"), std::string::npos) << text;
  // Pushed selections sit below the join.
  size_t join_pos = text.find("Join");
  EXPECT_NE(text.find("Select", join_pos), std::string::npos) << text;
}

TEST(SessionTest, EndToEndMedicalScenario) {
  Session session;
  auto r1 = session.Execute(
      "CREATE TABLE R (Diagnosis STRING, Test STRING, Symptom STRING)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  // The or-set encoding of the medical example (fields independent here).
  auto r2 = session.Execute(
      "INSERT INTO R VALUES "
      "({'pregnancy': 0.4, 'hypothyroidism': 0.6}, "
      " {'ultrasound': 0.4, 'TSH': 0.6}, "
      " {'weight gain': 0.7, 'fatigue': 0.3}), "
      "('obesity', 'BMI', 'weight gain')");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  auto prob = session.Execute(
      "SELECT Test, prob() FROM R WHERE Diagnosis = 'pregnancy'");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  ASSERT_EQ(prob->kind, StatementResult::Kind::kTable);
  // ultrasound recommended with prob 0.4*0.4 (independent encoding),
  // TSH with 0.4*0.6.
  ASSERT_EQ(prob->table.NumRows(), 2u);
  EXPECT_EQ(prob->table.schema().attr(1).name, "prob");
  double total = prob->table.row(0)[1].as_double() +
                 prob->table.row(1)[1].as_double();
  EXPECT_NEAR(total, 0.4, 1e-9);
}

TEST(SessionTest, PaperJointExampleViaApiThenSql) {
  // Build the exact paper WSD via the builder API, then query in SQL.
  Session session(testing_util::MedicalExample());
  auto prob = session.Execute(
      "SELECT Test, prob() FROM R WHERE Diagnosis = 'pregnancy'");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  ASSERT_EQ(prob->table.NumRows(), 1u);
  EXPECT_EQ(prob->table.row(0)[0], Value::String("ultrasound"));
  EXPECT_NEAR(prob->table.row(0)[1].as_double(), 0.4, 1e-12);

  auto ws = session.Execute(
      "SELECT Test FROM R WHERE Diagnosis = 'pregnancy'");
  ASSERT_TRUE(ws.ok());
  ASSERT_EQ(ws->kind, StatementResult::Kind::kWorldSet);
  auto worlds = EnumerateWorlds(ws->world_set);
  ASSERT_TRUE(worlds.ok());
  auto merged = MergeEqualWorlds(std::move(*worlds));
  EXPECT_EQ(merged.size(), 2u);  // {ultrasound} and {}
}

TEST(SessionTest, PossibleAndCertain) {
  Session session(testing_util::MedicalExample());
  auto possible = session.Execute("POSSIBLE SELECT Symptom FROM R");
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EXPECT_EQ(possible->table.NumRows(), 2u);  // weight gain, fatigue
  auto certain = session.Execute("CERTAIN SELECT Symptom FROM R");
  ASSERT_TRUE(certain.ok());
  ASSERT_EQ(certain->table.NumRows(), 1u);  // r2's weight gain is certain
  EXPECT_EQ(certain->table.row(0)[0], Value::String("weight gain"));
}

TEST(SessionTest, EcountAndDistinct) {
  Session session(testing_util::MedicalExample());
  auto ec = session.Execute(
      "SELECT ecount() FROM R WHERE Symptom = 'weight gain'");
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();
  ASSERT_EQ(ec->table.NumRows(), 1u);
  EXPECT_NEAR(ec->table.row(0)[0].as_double(), 1.7, 1e-12);

  auto d = session.Execute("SELECT DISTINCT Symptom FROM R");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->kind, StatementResult::Kind::kWorldSet);
}

TEST(SessionTest, EnforceStatement) {
  Session session;
  MAYBMS_ASSERT_OK(
      session.Execute("CREATE TABLE p (id INT, age INT)").status());
  MAYBMS_ASSERT_OK(session
                       .Execute("INSERT INTO p VALUES "
                                "(1, {30: 0.6, -5: 0.4}), (2, 12)")
                       .status());
  auto enforce = session.Execute("ENFORCE CHECK (age >= 0) ON p");
  ASSERT_TRUE(enforce.ok()) << enforce.status().ToString();
  EXPECT_NE(enforce->message.find("0.4"), std::string::npos)
      << enforce->message;
  // Now age is certain 30.
  auto certain = session.Execute("CERTAIN SELECT age FROM p WHERE id = 1");
  ASSERT_TRUE(certain.ok());
  ASSERT_EQ(certain->table.NumRows(), 1u);
  EXPECT_EQ(certain->table.row(0)[0], Value::Int(30));
}

TEST(SessionTest, ShowAndExplain) {
  Session session(testing_util::MedicalExample());
  auto tables = session.Execute("SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  EXPECT_NE(tables->message.find("R"), std::string::npos);
  auto worlds = session.Execute("SHOW WORLDS");
  ASSERT_TRUE(worlds.ok());
  EXPECT_NE(worlds->message.find("4 distinct world"), std::string::npos)
      << worlds->message;
  auto explain = session.Execute(
      "EXPLAIN SELECT Test FROM R WHERE Diagnosis = 'pregnancy'");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->message.find("Select"), std::string::npos);
  EXPECT_NE(explain->message.find("Scan R"), std::string::npos);
}

TEST(SessionTest, JoinAcrossTables) {
  Session session;
  MAYBMS_ASSERT_OK(
      session.Execute("CREATE TABLE person (name STRING, city STRING)")
          .status());
  MAYBMS_ASSERT_OK(
      session.Execute("CREATE TABLE geo (city STRING, country STRING)")
          .status());
  MAYBMS_ASSERT_OK(session
                       .Execute("INSERT INTO person VALUES "
                                "('ann', {'berlin': 0.8, 'paris': 0.2}), "
                                "('bob', 'paris')")
                       .status());
  MAYBMS_ASSERT_OK(session
                       .Execute("INSERT INTO geo VALUES "
                                "('berlin', 'de'), ('paris', 'fr')")
                       .status());
  auto prob = session.Execute(
      "SELECT name, country, prob() FROM person, geo "
      "WHERE city = geo.city");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  ASSERT_EQ(prob->table.NumRows(), 3u);
  // (bob, fr) certain; (ann, de) 0.8; (ann, fr) 0.2.
  double p_sum = 0;
  for (const auto& row : prob->table.rows()) p_sum += row[2].as_double();
  EXPECT_NEAR(p_sum, 2.0, 1e-9);
}

TEST(SessionTest, SelfJoinWithAliases) {
  Session session;
  MAYBMS_ASSERT_OK(
      session.Execute("CREATE TABLE r (id INT, v INT)").status());
  MAYBMS_ASSERT_OK(session
                       .Execute("INSERT INTO r VALUES "
                                "(1, {10: 0.5, 20: 0.5}), (2, 10)")
                       .status());
  // Pairs of distinct tuples with equal v: only in 50% of worlds.
  auto prob = session.Execute(
      "SELECT a.id, b.id, prob() FROM r a, r b "
      "WHERE a.v = b.v AND a.id < b.id");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  ASSERT_EQ(prob->table.NumRows(), 1u);
  EXPECT_NEAR(prob->table.row(0)[2].as_double(), 0.5, 1e-9);
}

TEST(SessionTest, ExceptStatement) {
  Session session;
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE a (x INT)").status());
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE b (x INT)").status());
  MAYBMS_ASSERT_OK(
      session.Execute("INSERT INTO a VALUES (1), (2)").status());
  MAYBMS_ASSERT_OK(
      session.Execute("INSERT INTO b VALUES ({1: 0.5, 3: 0.5})").status());
  auto prob =
      session.Execute("SELECT x FROM a EXCEPT SELECT x FROM b");
  ASSERT_TRUE(prob.ok()) << prob.status().ToString();
  auto conf = session.Execute(
      "POSSIBLE SELECT x FROM a EXCEPT SELECT x FROM b");
  ASSERT_TRUE(conf.ok()) << conf.status().ToString();
  // 1 survives in half the worlds, 2 always.
  ASSERT_EQ(conf->table.NumRows(), 2u);
}

TEST(SessionTest, ApproxConfStatement) {
  Session session(testing_util::MedicalExample());
  // Tiny clusters resolve exactly, so the estimate must match PROB().
  auto exact = session.Execute("SELECT Symptom, PROB() FROM R");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  auto approx =
      session.Execute("SELECT Symptom, APPROX CONF(0.01, 0.05) FROM R");
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  // Columns: Symptom, conf, conf_lo, conf_hi.
  ASSERT_EQ(approx->table.schema().size(), 4u);
  EXPECT_EQ(approx->table.schema().attr(1).name, "conf");
  EXPECT_EQ(approx->table.schema().attr(2).name, "conf_lo");
  EXPECT_EQ(approx->table.schema().attr(3).name, "conf_hi");
  ASSERT_EQ(approx->table.NumRows(), exact->table.NumRows());
  for (size_t i = 0; i < approx->table.NumRows(); ++i) {
    const Tuple& a = approx->table.row(i);
    const Tuple& e = exact->table.row(i);
    EXPECT_EQ(a[0], e[0]);
    EXPECT_NEAR(a[1].as_double(), e[1].as_double(), 1e-9);
    EXPECT_LE(a[2].as_double(), a[1].as_double() + 1e-12);
    EXPECT_GE(a[3].as_double(), a[1].as_double() - 1e-12);
  }
  EXPECT_NE(approx->message.find("approx conf"), std::string::npos)
      << approx->message;

  // AS alias renames the estimate and its bound columns together; the
  // δ argument is optional (defaults to 0.05).
  auto aliased =
      session.Execute("SELECT Symptom, APPROX CONF(0.02) AS p FROM R");
  ASSERT_TRUE(aliased.ok()) << aliased.status().ToString();
  ASSERT_EQ(aliased->table.schema().size(), 4u);
  EXPECT_EQ(aliased->table.schema().attr(1).name, "p");
  EXPECT_EQ(aliased->table.schema().attr(2).name, "p_lo");
  EXPECT_EQ(aliased->table.schema().attr(3).name, "p_hi");

  auto explain =
      session.Execute("EXPLAIN SELECT Symptom, APPROX CONF(0.01, 0.05) FROM R");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->message.find("APPROX CONF"), std::string::npos)
      << explain->message;
}

TEST(SessionTest, ApproxConfErrors) {
  Session session(testing_util::MedicalExample());
  // ε and δ must lie in (0, 1).
  EXPECT_EQ(session.Execute("SELECT Symptom, APPROX CONF(0, 0.05) FROM R")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Execute("SELECT Symptom, APPROX CONF(0.01, 1.5) FROM R")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Malformed argument lists are parse errors.
  EXPECT_EQ(session.Execute("SELECT Symptom, APPROX CONF() FROM R")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Execute("SELECT Symptom, APPROX CONF(0.01 FROM R")
                .status()
                .code(),
            StatusCode::kParseError);
  // PROB() and APPROX CONF() in one select list is rejected.
  EXPECT_EQ(
      session.Execute("SELECT Symptom, PROB(), APPROX CONF(0.01) FROM R")
          .status()
          .code(),
      StatusCode::kParseError);
}

TEST(SessionTest, ErrorsSurfaceCleanly) {
  Session session;
  EXPECT_EQ(session.Execute("SELECT x FROM nope").status().code(),
            StatusCode::kNotFound);
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE t (x INT)").status());
  EXPECT_EQ(session.Execute("CREATE TABLE t (x INT)").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(session.Execute("INSERT INTO t VALUES ('str')").status().code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(
      session.Execute("INSERT INTO t VALUES ({1: 0.5, 2: 0.6})")
          .status()
          .code(),
      StatusCode::kInvalidArgument);  // probs sum to 1.1
}

TEST(SessionTest, ScriptExecution) {
  Session session;
  auto results = session.ExecuteScript(
      "CREATE TABLE t (x INT);"
      "INSERT INTO t VALUES ({1: 0.9, 2: 0.1});"
      "POSSIBLE SELECT x FROM t;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[2].table.NumRows(), 2u);
}

TEST(SessionTest, SaveLoadDatabaseRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "maybms_sql_save.wsd")
          .string();
  for (const char* format : {"", " FORMAT BINARY", " FORMAT TEXT"}) {
    Session session;
    MAYBMS_ASSERT_OK(session
                         .ExecuteScript(
                             "CREATE TABLE t (x INT, s STRING);"
                             "INSERT INTO t VALUES ({1: 0.25, 2: 0.75}, 'a');"
                             "INSERT INTO t VALUES (3, {'b': 0.5, 'c': 0.5});")
                         .status());
    auto saved = session.Execute("SAVE DATABASE '" + path + "'" + format);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_NE(saved->message.find("saved database"), std::string::npos);

    // Load into a *fresh* session: the catalog swap must reproduce the
    // answer distribution exactly.
    Session other;
    auto loaded = other.Execute("LOAD DATABASE '" + path + "'");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    testing_util::ExpectDbsExactlyEqual(session.db(), other.db());
    auto conf = other.Execute("SELECT s, PROB() FROM t WHERE x = 1");
    ASSERT_TRUE(conf.ok()) << conf.status().ToString();
    ASSERT_EQ(conf->table.NumRows(), 1u);
    EXPECT_NEAR(conf->table.row(0)[1].as_double(), 0.25, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(SessionTest, SaveLoadDatabaseErrors) {
  Session session;
  // Parse errors.
  EXPECT_EQ(session.Execute("SAVE DATABASE").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Execute("SAVE DATABASE missing_quotes").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      session.Execute("SAVE DATABASE '/tmp/x' FORMAT XML").status().code(),
      StatusCode::kParseError);
  EXPECT_EQ(session.Execute("LOAD DATABASE ''").status().code(),
            StatusCode::kParseError);
  // A failed load leaves the session database untouched.
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE keepme (x INT)").status());
  EXPECT_EQ(
      session.Execute("LOAD DATABASE '/nonexistent/nope.wsd'").status().code(),
      StatusCode::kNotFound);
  EXPECT_TRUE(session.db().HasRelation("keepme"));
}

TEST(SessionTest, SetAndShowSettingsRoundTrip) {
  Session session;
  // Every knob SET through SQL must read back through SHOW SETTINGS.
  MAYBMS_ASSERT_OK(session.Execute("SET conf.num_threads = 3").status());
  MAYBMS_ASSERT_OK(session.Execute("SET materialize_conf = false").status());
  MAYBMS_ASSERT_OK(session.Execute("SET conf.eps = 0.25").status());
  EXPECT_EQ(session.options().conf.num_threads, 3u);
  EXPECT_FALSE(session.options().materialize_conf);
  EXPECT_DOUBLE_EQ(session.options().conf.eps, 0.25);

  auto settings = session.Execute("SHOW SETTINGS");
  ASSERT_TRUE(settings.ok()) << settings.status().ToString();
  bool saw_threads = false, saw_materialize = false;
  for (size_t i = 0; i < settings->table.NumRows(); ++i) {
    const auto& row = settings->table.row(i);
    if (row[0].as_string() == "conf.num_threads") {
      EXPECT_EQ(row[1].as_string(), "3");
      saw_threads = true;
    } else if (row[0].as_string() == "materialize_conf") {
      EXPECT_EQ(row[1].as_string(), "false");
      saw_materialize = true;
    }
  }
  EXPECT_TRUE(saw_threads && saw_materialize);

  // SET acknowledges with the normalized name and rendered value.
  auto ack = session.Execute("SET approx.seed = 99");
  ASSERT_TRUE(ack.ok());
  EXPECT_NE(ack->message.find("approx.seed = 99"), std::string::npos);
}

TEST(SessionTest, SetErrorsAndFingerprint) {
  Session session;
  const uint64_t before = session.SettingsFingerprint();
  // Unknown knob and type mismatches reject without changing anything.
  EXPECT_EQ(session.Execute("SET no.such.knob = 1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Execute("SET conf.num_threads = 'many'").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Execute("SET conf.num_threads = -2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.SettingsFingerprint(), before);
  // A successful SET moves the fingerprint (the server result cache keys
  // on it); restoring the value restores the fingerprint.
  MAYBMS_ASSERT_OK(session.Execute("SET exec.num_threads = 5").status());
  const uint64_t after = session.SettingsFingerprint();
  EXPECT_NE(after, before);
  MAYBMS_ASSERT_OK(
      session
          .Execute("SET exec.num_threads = " +
                   std::to_string(SessionOptions{}.exec.num_threads))
          .status());
  EXPECT_EQ(session.SettingsFingerprint(), before);
}

TEST(SessionTest, DeleteOldestRetiresWindowPrefix) {
  Session session;
  MAYBMS_ASSERT_OK(session.Execute("CREATE TABLE w (x INT)").status());
  MAYBMS_ASSERT_OK(
      session.Execute("INSERT INTO w VALUES (1), (2), (3), (4)").status());
  auto del = session.Execute("DELETE FROM w OLDEST 3");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_NE(del->message.find("evicted 3 tuple(s) from w"),
            std::string::npos);
  auto rest = session.Execute("CERTAIN SELECT x FROM w");
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->table.NumRows(), 1u);
  EXPECT_EQ(rest->table.row(0)[0].as_int(), 4);
  // Over-asking clamps to what exists; a missing table is an error.
  auto drain = session.Execute("DELETE FROM w OLDEST 10");
  ASSERT_TRUE(drain.ok());
  EXPECT_NE(drain->message.find("evicted 1 tuple(s)"), std::string::npos);
  EXPECT_FALSE(session.Execute("DELETE FROM nope OLDEST 1").ok());
  EXPECT_EQ(session.Execute("DELETE FROM w OLDEST -1").status().code(),
            StatusCode::kParseError);
}

// A MAPPED session's SHOW TABLES counts the snapshot's unevicted rows
// plus the rows inserted since the load.
TEST(SessionTest, ShowTablesCountsMappedRowsAcrossWrites) {
  FaultInjectingEnv env;
  {
    Session writer;
    writer.set_env(&env);
    writer.mutable_options().durability.wal_enabled = false;
    MAYBMS_ASSERT_OK(writer
                         .ExecuteScript("CREATE TABLE t (k INT, v STRING);"
                                        "INSERT INTO t VALUES (1, 'a');"
                                        "INSERT INTO t VALUES (2, 'b');"
                                        "SAVE DATABASE 'db';")
                         .status());
  }
  Session s;
  s.set_env(&env);
  s.mutable_options().durability.wal_enabled = false;
  MAYBMS_ASSERT_OK(s.Execute("LOAD DATABASE 'db' MAPPED").status());
  auto count = [&] {
    auto r = s.Execute("SHOW TABLES");
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->message : std::string();
  };
  EXPECT_EQ(count(), "t (k INT, v STRING) — 2 tuple template(s)\n");
  MAYBMS_ASSERT_OK(s.Execute("INSERT INTO t VALUES (3, 'c')").status());
  EXPECT_EQ(count(), "t (k INT, v STRING) — 3 tuple template(s)\n");
  MAYBMS_ASSERT_OK(s.Execute("DELETE FROM t OLDEST 1").status());
  EXPECT_EQ(count(), "t (k INT, v STRING) — 2 tuple template(s)\n");
  MAYBMS_ASSERT_OK(s.Execute("DELETE FROM t OLDEST 2").status());
  EXPECT_EQ(count(), "t (k INT, v STRING) — 0 tuple template(s)\n");
  EXPECT_TRUE(s.is_mapped());
}

TEST(SessionTest, OrderByKeyStoredAsOneAlternativeOrSet) {
  // INSERT stores {1} and {2: 1.0} as one-row components; the key is
  // certain in every world, so ORDER BY over the bare table sorts by it.
  Session session;
  MAYBMS_ASSERT_OK(
      session.Execute("CREATE TABLE t (k INT, v STRING)").status());
  MAYBMS_ASSERT_OK(session
                       .Execute("INSERT INTO t VALUES ({2: 1.0}, 'y'), "
                                "({1}, 'x'), (0, 'z')")
                       .status());
  for (const char* order : {"", " DESC"}) {
    auto r = session.Execute(std::string("SELECT * FROM t ORDER BY k") +
                             order);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->kind, StatementResult::Kind::kWorldSet);
    const WsdRelation* rel = r->world_set.GetRelation("result").value();
    ASSERT_EQ(rel->NumTuples(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(rel->tuple(i).cells[0].is_certain());
      const size_t want = *order == '\0' ? i : 2 - i;
      EXPECT_EQ(rel->tuple(i).cells[0].value(),
                Value::Int(static_cast<int64_t>(want)));
    }
  }
}

}  // namespace
}  // namespace sql
}  // namespace maybms
