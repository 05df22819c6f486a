// Shared helpers for the MayBMS test suite: the paper's running example,
// random world-set generators, and distribution-comparison utilities used
// by the differential (oracle) tests.
#ifndef MAYBMS_TESTS_TEST_UTIL_H_
#define MAYBMS_TESTS_TEST_UTIL_H_

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/builder.h"
#include "core/lifted.h"
#include "core/normalize.h"
#include "core/wsd.h"
#include "ra/executor.h"
#include "worlds/enumerate.h"

namespace maybms {
namespace testing_util {

/// Fails the current test when a Status is not OK.
#define MAYBMS_ASSERT_OK(expr)                                       \
  do {                                                               \
    ::maybms::Status _st = (expr);                                   \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (0)

#define MAYBMS_EXPECT_OK(expr)                                       \
  do {                                                               \
    ::maybms::Status _st = (expr);                                   \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (0)

/// Builds the paper's Section 2 medical example:
///
///   R(Diagnosis, Test, Symptom) with tuples r1, r2 where
///   c1 = {(pregnancy, ultrasound) 0.4, (hypothyroidism, TSH) 0.6}
///        covering r1.Diagnosis, r1.Test
///   c2 = {weight gain 0.7, fatigue 0.3} covering r1.Symptom
///   r2 = (obesity, BMI, weight gain), certain.
///
/// Represents 4 worlds.
inline WsdDb MedicalExample() {
  WsdDb db;
  Schema schema({{"Diagnosis", ValueType::kString},
                 {"Test", ValueType::kString},
                 {"Symptom", ValueType::kString}});
  Status st = db.CreateRelation("R", schema);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto r1 = InsertTuple(
      &db, "R",
      {CellSpec::Pending(), CellSpec::Pending(),
       CellSpec::OrSet({{Value::String("weight gain"), 0.7},
                        {Value::String("fatigue"), 0.3}})});
  EXPECT_TRUE(r1.ok()) << r1.status().ToString();
  auto c1 = AddJointComponent(
      &db, {{*r1, "Diagnosis"}, {*r1, "Test"}},
      {{{Value::String("pregnancy"), Value::String("ultrasound")}, 0.4},
       {{Value::String("hypothyroidism"), Value::String("TSH")}, 0.6}});
  EXPECT_TRUE(c1.ok()) << c1.status().ToString();
  auto r2 = InsertTuple(&db, "R",
                        {CellSpec::Certain(Value::String("obesity")),
                         CellSpec::Certain(Value::String("BMI")),
                         CellSpec::Certain(Value::String("weight gain"))});
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
  return db;
}

/// Canonical text form of a relation's bag of rows (sorted), used to key
/// world-distribution maps.
inline std::string CanonicalBag(const Relation& rel) {
  Relation copy = rel;
  copy.SortRows();
  std::string out;
  for (const auto& row : copy.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out += ",";
      out += row[c].ToString();
    }
    out += ";";
  }
  return out;
}

/// Distribution over canonical relation contents for one relation name.
inline std::map<std::string, double> RelationDistribution(
    const std::vector<World>& worlds, const std::string& rel_name) {
  std::map<std::string, double> dist;
  for (const auto& w : worlds) {
    auto rel = w.catalog.Get(rel_name);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    dist[CanonicalBag(**rel)] += w.prob;
  }
  return dist;
}

/// Asserts that two distributions match within eps.
inline void ExpectDistEq(const std::map<std::string, double>& expected,
                         const std::map<std::string, double>& actual,
                         double eps = 1e-9) {
  for (const auto& [key, p] : expected) {
    auto it = actual.find(key);
    ASSERT_TRUE(it != actual.end()) << "missing world content: [" << key
                                    << "] expected p=" << p;
    EXPECT_NEAR(p, it->second, eps) << "for world content: [" << key << "]";
  }
  for (const auto& [key, p] : actual) {
    EXPECT_TRUE(expected.count(key) > 0 || p < eps)
        << "unexpected world content: [" << key << "] p=" << p;
  }
}

/// Asserts exact structural equality of two world-set databases:
/// options, relation names/schemas, template tuples (deps and cells,
/// with certain values compared by Value equality and refs by id), and
/// components (same live ids, slots, bit-exact probabilities, packed
/// cells). Used by the snapshot round-trip tests, where lossless
/// persistence — not just distribution equality — is the contract.
inline void ExpectDbsExactlyEqual(const WsdDb& a, const WsdDb& b) {
  EXPECT_EQ(a.options().max_component_rows, b.options().max_component_rows);

  ASSERT_EQ(a.LiveComponents(), b.LiveComponents());
  for (ComponentId id : a.LiveComponents()) {
    const Component& ca = a.component(id);
    const Component& cb = b.component(id);
    ASSERT_EQ(ca.NumSlots(), cb.NumSlots()) << "component " << id;
    ASSERT_EQ(ca.NumRows(), cb.NumRows()) << "component " << id;
    for (size_t s = 0; s < ca.NumSlots(); ++s) {
      EXPECT_EQ(ca.slot(s).owner, cb.slot(s).owner);
      EXPECT_EQ(ca.slot(s).label, cb.slot(s).label);
    }
    for (size_t r = 0; r < ca.NumRows(); ++r) {
      // Bit-exact probabilities: memcmp, so -0.0 vs 0.0 or NaN payload
      // changes would be caught.
      double pa = ca.prob(r), pb = cb.prob(r);
      EXPECT_EQ(0, std::memcmp(&pa, &pb, sizeof(double)))
          << "component " << id << " row " << r << ": " << pa << " vs " << pb;
      for (size_t s = 0; s < ca.NumSlots(); ++s) {
        const PackedValue& va = ca.packed(r, s);
        const PackedValue& vb = cb.packed(r, s);
        EXPECT_TRUE(va == vb && va.tag() == vb.tag())
            << "component " << id << " cell (" << r << "," << s << "): "
            << va.ToValue().ToString() << " vs " << vb.ToValue().ToString();
      }
    }
  }

  ASSERT_EQ(a.RelationNames(), b.RelationNames());
  for (const std::string& name : a.RelationNames()) {
    const WsdRelation* ra = a.GetRelation(name).value();
    const WsdRelation* rb = b.GetRelation(name).value();
    EXPECT_EQ(ra->display_name(), rb->display_name());
    ASSERT_TRUE(ra->schema() == rb->schema()) << name;
    ASSERT_EQ(ra->NumTuples(), rb->NumTuples()) << name;
    for (size_t i = 0; i < ra->NumTuples(); ++i) {
      const WsdTuple& ta = ra->tuple(i);
      const WsdTuple& tb = rb->tuple(i);
      EXPECT_EQ(ta.deps, tb.deps) << name << " tuple " << i;
      ASSERT_EQ(ta.cells.size(), tb.cells.size());
      for (size_t c = 0; c < ta.cells.size(); ++c) {
        ASSERT_EQ(ta.cells[c].is_certain(), tb.cells[c].is_certain())
            << name << " tuple " << i << " cell " << c;
        if (ta.cells[c].is_certain()) {
          EXPECT_TRUE(ta.cells[c].value() == tb.cells[c].value())
              << name << " tuple " << i << " cell " << c;
        } else {
          EXPECT_TRUE(ta.cells[c].ref() == tb.cells[c].ref())
              << name << " tuple " << i << " cell " << c;
        }
      }
    }
  }
}

/// The scoped-normalization cross-check: a full Normalize of a copy of
/// `db` must leave it exactly as the scoped one did.
inline void ExpectNormalizeChangesNothing(const WsdDb& db) {
  WsdDb full = db;
  auto stats = Normalize(&full);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectDbsExactlyEqual(full, db);
}

/// While an instance lives, every lifted operator cross-checks its scoped
/// normalization against a full one (SetScopedNormalizeCheckForTesting).
/// Test files that want the check for every test define one at
/// namespace scope.
struct ScopedNormalizeCrossCheck {
  ScopedNormalizeCrossCheck() {
    SetScopedNormalizeCheckForTesting(&ExpectNormalizeChangesNothing);
  }
  ~ScopedNormalizeCrossCheck() { SetScopedNormalizeCheckForTesting(nullptr); }
};

/// Bool-returning variant of ExpectDbsExactlyEqual for callers that need
/// to *test* equality (e.g. "is the recovered state one of the two
/// admissible oracle states?") rather than assert it.
inline bool DbsExactlyEqual(const WsdDb& a, const WsdDb& b) {
  if (a.options().max_component_rows != b.options().max_component_rows) {
    return false;
  }
  if (a.LiveComponents() != b.LiveComponents()) return false;
  for (ComponentId id : a.LiveComponents()) {
    const Component& ca = a.component(id);
    const Component& cb = b.component(id);
    if (ca.NumSlots() != cb.NumSlots() || ca.NumRows() != cb.NumRows()) {
      return false;
    }
    for (size_t s = 0; s < ca.NumSlots(); ++s) {
      if (ca.slot(s).owner != cb.slot(s).owner ||
          ca.slot(s).label != cb.slot(s).label) {
        return false;
      }
    }
    for (size_t r = 0; r < ca.NumRows(); ++r) {
      double pa = ca.prob(r), pb = cb.prob(r);
      if (std::memcmp(&pa, &pb, sizeof(double)) != 0) return false;
      for (size_t s = 0; s < ca.NumSlots(); ++s) {
        const PackedValue& va = ca.packed(r, s);
        const PackedValue& vb = cb.packed(r, s);
        if (!(va == vb) || va.tag() != vb.tag()) return false;
      }
    }
  }
  if (a.RelationNames() != b.RelationNames()) return false;
  for (const std::string& name : a.RelationNames()) {
    const WsdRelation* ra = a.GetRelation(name).value();
    const WsdRelation* rb = b.GetRelation(name).value();
    if (ra->display_name() != rb->display_name()) return false;
    if (!(ra->schema() == rb->schema())) return false;
    if (ra->NumTuples() != rb->NumTuples()) return false;
    for (size_t i = 0; i < ra->NumTuples(); ++i) {
      const WsdTuple& ta = ra->tuple(i);
      const WsdTuple& tb = rb->tuple(i);
      if (ta.deps != tb.deps || ta.cells.size() != tb.cells.size()) {
        return false;
      }
      for (size_t c = 0; c < ta.cells.size(); ++c) {
        if (ta.cells[c].is_certain() != tb.cells[c].is_certain()) {
          return false;
        }
        if (ta.cells[c].is_certain()) {
          if (!(ta.cells[c].value() == tb.cells[c].value())) return false;
        } else if (!(ta.cells[c].ref() == tb.cells[c].ref())) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Options for RandomWsd.
struct RandomWsdOptions {
  size_t num_relations = 1;
  size_t min_tuples = 1;
  size_t max_tuples = 5;
  size_t min_cols = 2;
  size_t max_cols = 4;
  double p_uncertain_cell = 0.35;  ///< chance a cell becomes an or-set
  size_t max_alternatives = 3;
  double p_joint = 0.25;     ///< chance of a joint 2-field component per tuple
  int value_domain = 4;      ///< values drawn from small int/string domain
  bool allow_strings = true;
};

/// Generates a random world-set database with a mix of certain cells,
/// or-set cells and joint components; the total world count stays small
/// enough for enumeration.
inline WsdDb RandomWsd(Rng* rng, const RandomWsdOptions& opt = {}) {
  WsdDb db;
  for (size_t r = 0; r < opt.num_relations; ++r) {
    std::string name = "R" + std::to_string(r);
    size_t cols =
        opt.min_cols + rng->NextBelow(opt.max_cols - opt.min_cols + 1);
    Schema schema;
    std::vector<ValueType> types;
    for (size_t c = 0; c < cols; ++c) {
      ValueType t = (opt.allow_strings && rng->NextBernoulli(0.5))
                        ? ValueType::kString
                        : ValueType::kInt;
      types.push_back(t);
      Status st = schema.Add({"a" + std::to_string(c), t});
      EXPECT_TRUE(st.ok());
    }
    Status st = db.CreateRelation(name, schema);
    EXPECT_TRUE(st.ok());
    size_t tuples =
        opt.min_tuples + rng->NextBelow(opt.max_tuples - opt.min_tuples + 1);
    auto random_value = [&](ValueType t) {
      int v = static_cast<int>(rng->NextBelow(opt.value_domain));
      if (t == ValueType::kString) {
        return Value::String(std::string(1, static_cast<char>('a' + v)));
      }
      return Value::Int(v);
    };
    for (size_t i = 0; i < tuples; ++i) {
      std::vector<CellSpec> cells;
      for (size_t c = 0; c < cols; ++c) {
        if (rng->NextBernoulli(opt.p_uncertain_cell)) {
          size_t k = 2 + rng->NextBelow(opt.max_alternatives - 1);
          std::vector<double> probs = rng->NextProbabilities(static_cast<int>(k));
          std::vector<Alternative> alts;
          for (size_t a = 0; a < k; ++a) {
            alts.push_back({random_value(types[c]), probs[a]});
          }
          cells.push_back(CellSpec::OrSet(std::move(alts)));
        } else {
          cells.push_back(CellSpec::Certain(random_value(types[c])));
        }
      }
      // Occasionally share one joint component across two certain cells.
      bool joint = cols >= 2 && rng->NextBernoulli(opt.p_joint);
      size_t j1 = 0, j2 = 1;
      if (joint) {
        j1 = rng->NextBelow(cols);
        do {
          j2 = rng->NextBelow(cols);
        } while (j2 == j1);
        cells[j1] = CellSpec::Pending();
        cells[j2] = CellSpec::Pending();
      }
      auto handle = InsertTuple(&db, name, std::move(cells));
      EXPECT_TRUE(handle.ok()) << handle.status().ToString();
      if (joint) {
        size_t k = 2 + rng->NextBelow(2);
        std::vector<double> probs = rng->NextProbabilities(static_cast<int>(k));
        std::vector<std::pair<std::vector<Value>, double>> rows;
        for (size_t a = 0; a < k; ++a) {
          rows.push_back(
              {{random_value(types[j1]), random_value(types[j2])}, probs[a]});
        }
        auto cid = AddJointComponent(
            &db,
            {{*handle, "a" + std::to_string(j1)},
             {*handle, "a" + std::to_string(j2)}},
            rows);
        EXPECT_TRUE(cid.ok()) << cid.status().ToString();
      }
    }
  }
  return db;
}

}  // namespace testing_util
}  // namespace maybms

#endif  // MAYBMS_TESTS_TEST_UTIL_H_
