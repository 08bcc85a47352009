// Tests for the cost-based optimizer's transformation rules (paper
// section 3): each rule's alternatives are executed against the original
// plan and must produce identical row multisets; plan-shape assertions
// verify the rules fire on the scenarios the paper describes.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "algebra/props.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "opt/join_choice.h"
#include "opt/join_order.h"
#include "opt/physical.h"
#include "opt/rules.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    dim_ = *catalog_.CreateTable("dim", {{"dk", DataType::kInt64, false},
                                         {"dv", DataType::kInt64, false}});
    dim_->SetPrimaryKey({0});
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          dim_->Append({Value::Int64(i), Value::Int64(i % 2)}).ok());
    }
    fact_ = *catalog_.CreateTable("fact", {{"fk", DataType::kInt64, false},
                                           {"fd", DataType::kInt64, false},
                                           {"fv", DataType::kInt64, true}});
    fact_->SetPrimaryKey({0});
    int id = 0;
    for (int d = 1; d <= 4; ++d) {
      for (int j = 0; j < 5; ++j) {
        ASSERT_TRUE(fact_->Append({Value::Int64(++id), Value::Int64(d),
                                   j == 0 ? Value::Null()
                                          : Value::Int64(j * d)})
                        .ok());
      }
    }
  }

  RelExprPtr Get(Table* table, std::map<std::string, ColumnId>* ids) {
    std::vector<ColumnId> cols;
    for (const ColumnSpec& spec : table->columns()) {
      ColumnId id = columns_->NewColumn(spec.name, spec.type, spec.nullable);
      cols.push_back(id);
      (*ids)[spec.name] = id;
    }
    return MakeGet(table, std::move(cols));
  }

  ScalarExprPtr Ref(const std::map<std::string, ColumnId>& ids,
                    const std::string& name) {
    return CRef(*columns_, ids.at(name));
  }

  /// Applies `rule` at the root and checks every alternative computes the
  /// same multiset over the original tree's output columns (intersected
  /// with the alternative's, which may legally be wider).
  void ExpectAlternativesEquivalent(Rule* rule, const RelExprPtr& tree,
                                    int expect_min_alternatives = 1) {
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alternatives =
        rule->Apply(tree, columns_.get(), &cost);
    EXPECT_GE(static_cast<int>(alternatives.size()),
              expect_min_alternatives)
        << rule->name() << " produced no alternative";
    std::vector<ColumnId> out = tree->OutputColumns();
    Result<std::vector<Row>> expected = ExecLogical(tree, *columns_, out);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const RelExprPtr& alt : alternatives) {
      ColumnSet alt_out = alt->OutputSet();
      for (ColumnId id : out) {
        ASSERT_TRUE(alt_out.Contains(id))
            << rule->name() << " lost column #" << id << "\n"
            << PrintRelTree(*alt, columns_.get());
      }
      Result<std::vector<Row>> actual = ExecLogical(alt, *columns_, out);
      ASSERT_TRUE(actual.ok())
          << rule->name() << ": " << actual.status().ToString();
      EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*actual))
          << rule->name() << " alternative differs:\n"
          << PrintRelTree(*alt, columns_.get());
    }
  }

  /// G[dk, dv](dim ⋈ fact on fk-join) with sum/count over fact.
  RelExprPtr GroupOverJoin(std::map<std::string, ColumnId>* d,
                           std::map<std::string, ColumnId>* f,
                           std::vector<AggItem>* aggs_out = nullptr) {
    RelExprPtr gd = Get(dim_, d);
    RelExprPtr gf = Get(fact_, f);
    RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                               Eq(Ref(*f, "fd"), Ref(*d, "dk")));
    ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
    ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, false);
    std::vector<AggItem> aggs = {
        AggItem{AggFunc::kSum, Ref(*f, "fv"), total, false},
        AggItem{AggFunc::kCountStar, nullptr, cnt, false}};
    if (aggs_out != nullptr) *aggs_out = aggs;
    return MakeGroupBy(join, ColumnSet{d->at("dk"), d->at("dv")}, aggs);
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* dim_ = nullptr;
  Table* fact_ = nullptr;
};

// ---- Join enumeration (opt/join_order.h) ----

/// Tables t0..t(n-1), each (k, a, b, c, d) with k its primary key 1..rows
/// and a..d pseudo-random references into 1..20; table i holds 20 + 7i
/// rows so join orders differ in cost. No indexes: every join hashes or
/// nests, so the plans show the enumerator's choices alone.
class JoinOrderTest : public ::testing::Test {
 protected:
  void MakeTables(int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<ColumnSpec> specs;
      for (const char* name : {"k", "a", "b", "c", "d"}) {
        specs.push_back({name, DataType::kInt64, false});
      }
      Table* table = *catalog_.CreateTable("t" + std::to_string(i), specs);
      table->SetPrimaryKey({0});
      const int rows = 20 + 7 * i;
      for (int k = 1; k <= rows; ++k) {
        Row row = {Value::Int64(k)};
        for (int c = 1; c <= 4; ++c) {
          row.push_back(Value::Int64((k * (2 * c + 1) + i) % 20 + 1));
        }
        ASSERT_TRUE(table->Append(std::move(row)).ok());
      }
    }
  }

  /// Compiles `sql` with the full pipeline (tracing into `trace_`), checks
  /// its answer, and returns the optimized tree. The answer is checked
  /// against the unoptimized FROM-list plan, or, where that plan is too
  /// slow for a unit test (normalization pushes a WHERE clause only a few
  /// joins deep, so long FROM lists cross-join), against `expected_rows`.
  RelExprPtr CompileAndCheck(const std::string& sql,
                             int64_t expected_rows = -1) {
    EngineOptions options = EngineOptions::Full();
    options.optimizer.trace = &trace_;
    QueryEngine engine(&catalog_, options);
    const auto start = std::chrono::steady_clock::now();
    Result<QueryEngine::Compiled> compiled = engine.Compile(sql);
    compile_ms_ = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return nullptr;
    columns_ = compiled->columns;
    Result<QueryResult> actual = engine.ExecuteCompiled(*compiled);
    EXPECT_TRUE(actual.ok()) << actual.status().ToString();
    if (!actual.ok()) return nullptr;
    if (expected_rows >= 0) {
      EXPECT_EQ(static_cast<int64_t>(actual->rows.size()), expected_rows);
      return compiled->optimized;
    }
    EngineOptions naive = EngineOptions::Full();
    naive.optimizer.enable = false;
    Result<QueryResult> expected = QueryEngine(&catalog_, naive).Execute(sql);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    if (expected.ok()) {
      EXPECT_FALSE(expected->rows.empty()) << sql;
      EXPECT_EQ(CanonicalRows(actual->rows), CanonicalRows(expected->rows))
          << sql << "\n" << PrintRelTree(*compiled->optimized, columns_.get());
    }
    return compiled->optimized;
  }

  /// Inner joins with a TRUE predicate: cross products.
  static int CrossProducts(const RelExprPtr& node) {
    int n = node->kind == RelKind::kJoin &&
                    node->join_kind == JoinKind::kInner &&
                    IsTrueLiteral(node->predicate)
                ? 1
                : 0;
    for (const RelExprPtr& child : node->children) n += CrossProducts(child);
    return n;
  }

  bool Traced(const std::string& phase) const {
    for (const TraceEvent& event : trace_.events()) {
      if (event.rule == phase) return true;
    }
    return false;
  }

  Catalog catalog_;
  TraceLog trace_;
  ColumnManagerPtr columns_;
  double compile_ms_ = 0.0;
};

std::string ChainSql(int n) {
  std::string from = "t0";
  std::string where;
  for (int i = 1; i < n; ++i) {
    from += ", t" + std::to_string(i);
    if (i > 1) where += " and ";
    where += "t" + std::to_string(i - 1) + ".a = t" + std::to_string(i) + ".k";
  }
  return "select t0.k, t" + std::to_string(n - 1) + ".k from " + from +
         " where " + where;
}

// A chain written largest table first joins without a cross product.
TEST_F(JoinOrderTest, Chain) {
  MakeTables(5);
  RelExprPtr plan = CompileAndCheck(
      "select t4.k, t0.k from t4, t0, t2, t1, t3 where t0.a = t1.k and "
      "t1.a = t2.k and t2.a = t3.k and t3.a = t4.k");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(plan), 0)
      << PrintRelTree(*plan, columns_.get());
  EXPECT_TRUE(Traced("join_order_dpccp"));
}

// A star over distinct center columns; the FROM list puts two satellites
// first, which the binder's order would cross-join.
TEST_F(JoinOrderTest, Star) {
  MakeTables(5);
  RelExprPtr plan = CompileAndCheck(
      "select t0.k, t1.k, t4.k from t1, t2, t0, t3, t4 where t0.a = t1.k "
      "and t0.b = t2.k and t0.c = t3.k and t0.d = t4.k");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(plan), 0)
      << PrintRelTree(*plan, columns_.get());
}

// A cycle: every cluster input has two join partners.
TEST_F(JoinOrderTest, Cycle) {
  MakeTables(4);
  RelExprPtr plan = CompileAndCheck(
      "select t0.k, t2.k from t0, t2, t1, t3 where t0.a = t1.k and "
      "t1.a = t2.k and t2.a = t3.k and t3.b = t0.k");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(plan), 0)
      << PrintRelTree(*plan, columns_.get());
}

// Two disconnected pairs need exactly one real cross product, between
// the pairs, never inside one.
TEST_F(JoinOrderTest, DisconnectedPair) {
  MakeTables(4);
  RelExprPtr plan = CompileAndCheck(
      "select t0.k, t1.k, t2.k, t3.k from t0, t2, t1, t3 "
      "where t0.a = t1.k and t2.a = t3.k");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(plan), 1)
      << PrintRelTree(*plan, columns_.get());
}

// A LEFT JOIN is a cluster boundary: it keeps exactly its two inputs while
// the inner joins around it are reordered.
TEST_F(JoinOrderTest, OuterJoinBarrier) {
  MakeTables(4);
  RelExprPtr plan = CompileAndCheck(
      "select t0.k, t1.k, t2.k, t3.k from t3, t0 left join t1 on "
      "t0.a = t1.k, t2 where t2.a = t0.k and t3.a = t2.k");
  ASSERT_NE(plan, nullptr);
  int outer_joins = 0;
  std::function<void(const RelExprPtr&)> visit = [&](const RelExprPtr& n) {
    if (n->kind == RelKind::kJoin && n->join_kind == JoinKind::kLeftOuter) {
      ++outer_joins;
      EXPECT_EQ(CountKind(n, RelKind::kGet), 2)
          << PrintRelTree(*n, columns_.get());
    }
    for (const RelExprPtr& child : n->children) visit(child);
  };
  visit(plan);
  EXPECT_EQ(outer_joins, 1) << PrintRelTree(*plan, columns_.get());
  EXPECT_EQ(CrossProducts(plan), 0)
      << PrintRelTree(*plan, columns_.get());
}

// The enumerator, not the FROM list, picks the build side: the smaller
// input is the hash join's right (build) child either way round. An
// expression equality keys a hash join too (ChooseJoin's EquiKey), so the
// enumerator prices it as one; priced as nested loops, both orientations
// would cost the same and the FROM list's order would stand.
TEST_F(JoinOrderTest, OrientationIsCosted) {
  MakeTables(6);
  for (const char* sql :
       {"select t0.k, t5.k from t0, t5 where t5.a = t0.k",
        "select t0.k, t5.k from t5, t0 where t5.a = t0.k",
        "select t0.k, t5.k from t0, t5 where t5.a + 1 = t0.k",
        "select t0.k, t5.k from t5, t0 where t5.a + 1 = t0.k"}) {
    RelExprPtr plan = CompileAndCheck(sql);
    ASSERT_NE(plan, nullptr);
    while (plan->kind != RelKind::kJoin) plan = plan->children[0];
    ASSERT_EQ(plan->children[1]->kind, RelKind::kGet);
    EXPECT_EQ(plan->children[1]->table->name(), "t0")
        << PrintRelTree(*plan, columns_.get());
  }
}

// DPccp over a 10-relation chain stays far inside the compile budget:
// about 0.4 ms in a Release build on a 4-vCPU x86 host; the 100 ms budget
// leaves room for sanitizer builds. Every t0 row has one partner per link.
TEST_F(JoinOrderTest, TenRelationChainCompilesWithinBudget) {
  MakeTables(10);
  RelExprPtr plan = CompileAndCheck(ChainSql(10), /*expected_rows=*/20);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(CrossProducts(plan), 0);
  EXPECT_TRUE(Traced("join_order_dpccp"));
  EXPECT_LT(compile_ms_, 100.0);
}

// Twelve relations exceed DPccp's limit of ten: greedy operator ordering
// joins the star without a cross product.
TEST_F(JoinOrderTest, TwelveRelationStarUsesGoo) {
  MakeTables(12);
  std::string from = "t1";
  std::string where;
  for (int i = 2; i < 12; ++i) from += ", t" + std::to_string(i);
  from += ", t0";
  for (int i = 1; i < 12; ++i) {
    if (i > 1) where += " and ";
    where += "t" + std::to_string(i) + ".k = t0." +
             std::string(1, "abcd"[i % 4]);
  }
  // Every t0 row has one partner in each satellite.
  RelExprPtr plan = CompileAndCheck(
      "select t0.k, t11.k from " + from + " where " + where, 20);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(Traced("join_order_goo"));
  EXPECT_FALSE(Traced("join_order_dpccp"));
  EXPECT_EQ(CrossProducts(plan), 0)
      << PrintRelTree(*plan, columns_.get());
}

int CountJoins(const RelExprPtr& node, JoinKind kind) {
  int n = node->kind == RelKind::kJoin && node->join_kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountJoins(child, kind);
  return n;
}

// A cluster the enumerator leaves as written — more inputs than it
// orders, or inputs sharing a column id — keeps the semi join above it,
// even when the semi join reads a single cluster input.
TEST_F(RuleTest, UnorderableClusterKeepsItsSemiJoin) {
  std::map<std::string, ColumnId> f, d;
  RelExprPtr fact = Get(fact_, &f);
  RelExprPtr shared = Get(dim_, &d);
  // Inputs sharing ids: `shared` twice, and `fact` joined to it.
  RelExprPtr self = MakeJoin(JoinKind::kInner, shared, shared, TrueLiteral());
  RelExprPtr shared_ids = MakeJoin(JoinKind::kInner, self, fact,
                                   Eq(Ref(f, "fd"), Ref(d, "dk")));
  // 65 inputs, one over the enumerator's limit: a chain of dim scans
  // ending in `fact`.
  RelExprPtr oversized = fact;
  ColumnId link = f.at("fd");
  for (int i = 0; i < 64; ++i) {
    std::map<std::string, ColumnId> di;
    RelExprPtr dim = Get(dim_, &di);
    oversized = MakeJoin(JoinKind::kInner, oversized, dim,
                         Eq(CRef(*columns_, link), Ref(di, "dk")));
    link = di.at("dk");
  }
  for (const RelExprPtr& cluster : {shared_ids, oversized}) {
    std::map<std::string, ColumnId> s;
    RelExprPtr sub = Get(dim_, &s);
    RelExprPtr semi = MakeJoin(JoinKind::kLeftSemi, cluster, sub,
                               Eq(Ref(f, "fk"), Ref(s, "dv")));
    CostModel cost(&catalog_);
    RelExprPtr ordered = OrderJoins(semi, columns_.get(), &cost);
    EXPECT_EQ(CountJoins(ordered, JoinKind::kLeftSemi), 1)
        << PrintRelTree(*ordered, columns_.get());
  }
}

TEST_F(RuleTest, GroupByPushBelowJoin) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr tree = GroupOverJoin(&d, &f);
  auto rule = MakeGroupByPushBelowJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  // Shape: the alternative has the GroupBy below the join.
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_FALSE(alts.empty());
  const RelExpr* join = alts[0].get();
  while (join->kind != RelKind::kJoin) join = join->children[0].get();
  EXPECT_TRUE(join->children[0]->kind == RelKind::kGroupBy ||
              join->children[1]->kind == RelKind::kGroupBy);
}

TEST_F(RuleTest, GroupByPushBelowJoinRejectedWithoutKey) {
  // Group only by dv (not a key of dim): condition (2) fails.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr tree =
      MakeGroupBy(join, ColumnSet{d.at("dv")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  auto rule = MakeGroupByPushBelowJoinRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, GroupByPullAboveJoin) {
  // dim ⋈ G[fd](fact): aggregate below the join gets pulled up.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(JoinKind::kInner, gd, group,
                             Eq(Ref(d, "dk"), Ref(f, "fd")));
  auto rule = MakeGroupByPullAboveJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, GroupByPullAboveJoinSplitsAggregatePredicates) {
  // Join predicate references the aggregate output: pulled above, the
  // conjunct must become a filter.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner, gd, group,
      MakeAnd2(Eq(Ref(d, "dk"), Ref(f, "fd")),
               MakeCompare(CompareOp::kGt, CRef(total, DataType::kInt64),
                           LitInt(10))));
  auto rule = MakeGroupByPullAboveJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, GroupByPushBelowOuterJoin) {
  // G[dk,dv](dim LOJ fact): count aggregates need the computing project
  // (paper section 3.2). Row with no fact matches must yield count(*)=1,
  // count(fv)=0, sum=NULL.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  // Restrict fact to fd <= 2 so dim rows 3, 4 are unmatched.
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr fact_filtered = MakeSelect(
      gf, MakeCompare(CompareOp::kLe, Ref(f, "fd"), LitInt(2)));
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gd, fact_filtered,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  ColumnId cnt_star = columns_->NewColumn("cnt", DataType::kInt64, false);
  ColumnId cnt_v = columns_->NewColumn("cntv", DataType::kInt64, false);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{d.at("dk"), d.at("dv")},
      {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false},
       AggItem{AggFunc::kCountStar, nullptr, cnt_star, false},
       AggItem{AggFunc::kCount, Ref(f, "fv"), cnt_v, false}});
  auto rule = MakeGroupByPushBelowOuterJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, LocalAggregateSplit) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr tree = GroupOverJoin(&d, &f);
  auto rule = MakeLocalAggregateSplitRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  // Shape: a LocalGroupBy below the join, global GroupBy above.
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_FALSE(alts.empty());
  EXPECT_EQ(CountKind(alts[0], RelKind::kLocalGroupBy), 1);
  EXPECT_EQ(alts[0]->kind, RelKind::kGroupBy);
}

TEST_F(RuleTest, LocalAggregateSplitScalar) {
  // Scalar aggregate over a join also splits (grouping freedom, 3.3).
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr tree = MakeScalarGroupBy(
      join, {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  auto rule = MakeLocalAggregateSplitRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, LocalAggregateSplitRejectsMax1Row) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId one = columns_->NewColumn("one", DataType::kInt64, true);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{d.at("dk")},
      {AggItem{AggFunc::kMax1Row, Ref(f, "fv"), one, false}});
  auto rule = MakeLocalAggregateSplitRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SemiJoinToJoinDistinct) {
  // dim ⋉ fact -> distinct(dim ⋈ fact) (paper section 2.4); fan-out on
  // fact means the join produces duplicates the GroupBy must collapse.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr semi = MakeJoin(JoinKind::kLeftSemi, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  auto rule = MakeSemiJoinToJoinDistinctRule();
  ExpectAlternativesEquivalent(rule.get(), semi);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kGroupBy), 1);
}

TEST_F(RuleTest, SemiJoinToJoinDistinctNeedsKey) {
  // fact grouped... use a keyless left side: a projection dropping the key.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr keyless = MakeProject(gd, {}, ColumnSet{d.at("dv")});
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr semi = MakeJoin(JoinKind::kLeftSemi, keyless, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dv")));
  auto rule = MakeSemiJoinToJoinDistinctRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(semi, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SemiJoinPushBelowGroupBy) {
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    // (G[fd](fact)) ⋉ dim on fd = dk: the semijoin predicate only uses a
    // grouping column, so it pushes below the aggregate (section 3.1).
    std::map<std::string, ColumnId> d, f;
    RelExprPtr gd = Get(dim_, &d);
    RelExprPtr gf = Get(fact_, &f);
    ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
    RelExprPtr group =
        MakeGroupBy(gf, ColumnSet{f.at("fd")},
                    {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
    RelExprPtr dim_filtered = MakeSelect(
        gd, MakeCompare(CompareOp::kEq, Ref(d, "dv"), LitInt(1)));
    RelExprPtr semi = MakeJoin(kind, group, dim_filtered,
                               Eq(Ref(f, "fd"), Ref(d, "dk")));
    auto rule = MakeSemiJoinPushBelowGroupByRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), semi);
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
    ASSERT_EQ(alts.size(), 1u);
    EXPECT_EQ(alts[0]->kind, RelKind::kGroupBy);
  }
}

TEST_F(RuleTest, SemiJoinNotPushedWhenPredicateUsesAggregate) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr semi = MakeJoin(
      JoinKind::kLeftSemi, group, gd,
      MakeCompare(CompareOp::kGt, CRef(total, DataType::kInt64),
                  Ref(d, "dk")));
  auto rule = MakeSemiJoinPushBelowGroupByRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(semi, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, CorrelatedReintroduction) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    std::map<std::string, ColumnId> d2, f2;
    RelExprPtr gd2 = Get(dim_, &d2);
    RelExprPtr gf2 = Get(fact_, &f2);
    RelExprPtr join =
        MakeJoin(kind, gd2, gf2, Eq(Ref(f2, "fd"), Ref(d2, "dk")));
    auto rule = MakeCorrelatedReintroductionRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), join);
    // And the alternative is an Apply.
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(join, columns_.get(), &cost);
    ASSERT_FALSE(alts.empty());
    EXPECT_EQ(alts[0]->kind, RelKind::kApply);
  }
}

TEST_F(RuleTest, SegmentApplyIntroOnDecorrelatedShape) {
  // G[fk...](fact ⋈ fact2 on fd = fd2) with aggregates over fact2 — the
  // canonical shape correlation removal produces (section 3.4.1).
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gf1, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId avg_sum = columns_->NewColumn("s", DataType::kInt64, true);
  ColumnId avg_cnt = columns_->NewColumn("c", DataType::kInt64, false);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{f1.at("fk"), f1.at("fd"), f1.at("fv")},
      {AggItem{AggFunc::kSum, Ref(f2, "fv"), avg_sum, false},
       AggItem{AggFunc::kCount, Ref(f2, "fv"), avg_cnt, false}});
  auto rule = MakeSegmentApplyIntroRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentRef), 2);
}

// The same shape where correlated re-introduction has turned X's join
// into an index lookup, Apply-cross(dim, sigma_{fd = dk}(fact)), as in
// Q17 once its qualifying parts probe lineitem: the lookup is still the
// join it replaced, so the segment is found inside it.
TEST_F(RuleTest, SegmentApplyIntroSeesThroughIndexLookup) {
  std::map<std::string, ColumnId> d, f1, f2;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr lookup =
      MakeApply(ApplyKind::kCross,
                MakeSelect(gd, Eq(Ref(d, "dv"), LitInt(1))),
                MakeSelect(gf1, Eq(Ref(f1, "fd"), Ref(d, "dk"))));
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, lookup, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId sum = columns_->NewColumn("s", DataType::kInt64, true);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{d.at("dk"), f1.at("fk"), f1.at("fd"), f1.at("fv")},
      {AggItem{AggFunc::kSum, Ref(f2, "fv"), sum, false}});
  auto rule = MakeSegmentApplyIntroRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
  EXPECT_EQ(CountKind(alts[0], RelKind::kApply), 1);
}

TEST_F(RuleTest, SegmentApplyJoinIntroWithResidual) {
  // Pattern B (paper Fig. 6): two fact instances joined, one aggregated,
  // with a residual comparison (fv < total) that moves inside the segment.
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf2, ColumnSet{f2.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f2, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner, gf1, group,
      MakeAnd2(Eq(Ref(f2, "fd"), Ref(f1, "fd")),
               MakeCompare(CompareOp::kLt, Ref(f1, "fv"),
                           CRef(total, DataType::kInt64))));
  auto rule = MakeSegmentApplyJoinIntroRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
}

TEST_F(RuleTest, SegmentApplyIntroRejectsNonEquiPredicate) {
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(
      JoinKind::kLeftOuter, gf1, gf2,
      MakeCompare(CompareOp::kLt, Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId s = columns_->NewColumn("s", DataType::kInt64, true);
  RelExprPtr tree =
      MakeGroupBy(join, ColumnSet{f1.at("fk"), f1.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f2, "fv"), s, false}});
  auto rule = MakeSegmentApplyIntroRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SegmentApplySemiJoinIntro) {
  // "lineitems that are below some other quantity of the same part":
  // fact ⋉ fact2 on fd2 = fd ∧ fv < fv2 — the existential variant of
  // SegmentApply (paper 3.4.1, last paragraph), semi and anti.
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    std::map<std::string, ColumnId> f1, f2;
    RelExprPtr gf1 = Get(fact_, &f1);
    RelExprPtr gf2 = Get(fact_, &f2);
    RelExprPtr semi = MakeJoin(
        kind, gf1, gf2,
        MakeAnd2(Eq(Ref(f2, "fd"), Ref(f1, "fd")),
                 MakeCompare(CompareOp::kLt, Ref(f1, "fv"),
                             Ref(f2, "fv"))));
    auto rule = MakeSegmentApplySemiJoinIntroRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), semi);
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
    ASSERT_EQ(alts.size(), 1u);
    EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
  }
}

TEST_F(RuleTest, JoinPushBelowSegmentApply) {
  // Build an SA via the intro rule, then join it with dim on the segment
  // column and push the join below (paper section 3.4.2).
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gf1, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId s = columns_->NewColumn("s", DataType::kInt64, true);
  RelExprPtr grouped = MakeGroupBy(
      join, ColumnSet{f1.at("fk"), f1.at("fd")},
      {AggItem{AggFunc::kSum, Ref(f2, "fv"), s, false}});
  auto intro = MakeSegmentApplyIntroRule();
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> sa_alts =
      intro->Apply(grouped, columns_.get(), &cost);
  ASSERT_EQ(sa_alts.size(), 1u);
  // Find the SegmentApply under the restoring Project.
  RelExprPtr sa = sa_alts[0];
  while (sa->kind != RelKind::kSegmentApply) sa = sa->children[0];

  std::map<std::string, ColumnId> d;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr outer_join = MakeJoin(
      JoinKind::kInner, sa, gd,
      Eq(Ref(d, "dk"),
         CRef(*columns_, sa->segment_cols.ids()[0])));
  auto push = MakeJoinPushBelowSegmentApplyRule();
  ExpectAlternativesEquivalent(push.get(), outer_join);
  std::vector<RelExprPtr> pushed =
      push->Apply(outer_join, columns_.get(), &cost);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0]->kind, RelKind::kSegmentApply);
  EXPECT_EQ(pushed[0]->children[0]->kind, RelKind::kJoin);
}

// Q17 is the paper's SegmentApply showcase (section 3.4). Join
// enumeration puts the two qualifying parts first, so with index-lookup
// re-correlation on, the optimizer probes lineitem's l_partkey index from
// them instead: section 4's "correlated execution can be the best
// strategy", which the cost model ranks some 20x cheaper here. Without
// re-correlation the plan is the SegmentApply one.
TEST_F(RuleTest, Q17PlanUsesSegmentApply) {
  Catalog tpch;
  TpchGenOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(&tpch, options).ok());
  QueryEngine engine(&tpch, EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled =
      engine.Compile(GetTpchQuery("Q17").sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(CountKind(compiled->optimized, RelKind::kSegmentApply), 1)
      << PrintRelTree(*compiled->optimized, compiled->columns.get());

  // And disabling the technique removes it.
  QueryEngine no_sa(&tpch, EngineOptions::NoSegmentApply());
  Result<QueryEngine::Compiled> compiled2 =
      no_sa.Compile(GetTpchQuery("Q17").sql);
  ASSERT_TRUE(compiled2.ok());
  EXPECT_EQ(CountKind(compiled2->optimized, RelKind::kSegmentApply), 0);
}

// Each join is priced as the operator the physical builder runs it as:
// the cost model and BuildJoin read one ChooseJoin decision. The join's
// cost is its inputs' plus JoinOperatorCost over the rows the same
// predicate keeps as an inner join.
TEST_F(RuleTest, JoinsArePricedAsBuilt) {
  struct Case {
    const char* what;
    JoinKind kind;
    std::function<ScalarExprPtr(const std::map<std::string, ColumnId>&,
                                const std::map<std::string, ColumnId>&)>
        predicate;
    JoinMethod method;
    const char* op;
  };
  auto not_in = [this](const std::map<std::string, ColumnId>& f,
                       const std::map<std::string, ColumnId>& d) {
    ScalarExprPtr eq = Eq(Ref(f, "fv"), Ref(d, "dv"));
    return MakeOr({eq, MakeIsNull(eq)});
  };
  const std::vector<Case> cases = {
      // A correlated NOT IN, decorrelated: the correlation is the key, the
      // NOT IN disjunction the residual. It used to be priced as a hash
      // join and built as nested loops.
      {"anti join with a residual", JoinKind::kLeftAnti,
       [&](const auto& f, const auto& d) {
         return MakeAnd2(Eq(Ref(f, "fd"), Ref(d, "dk")), not_in(f, d));
       },
       JoinMethod::kHash, "HashJoin(anti)"},
      // An expression equality is a hash key; it used to be priced as
      // nested loops.
      {"expression equality", JoinKind::kInner,
       [&](const auto& f, const auto& d) {
         return Eq(MakeArith(ArithOp::kAdd, Ref(f, "fd"), LitInt(1)),
                   Ref(d, "dk"));
       },
       JoinMethod::kHash, "HashJoin(inner)"},
      {"uncorrelated NOT IN", JoinKind::kLeftAnti, not_in,
       JoinMethod::kNullAwareAnti, "HashJoin(null-aware-anti)"},
      {"no equality", JoinKind::kInner,
       [&](const auto& f, const auto& d) {
         return MakeCompare(CompareOp::kLt, Ref(f, "fd"), Ref(d, "dk"));
       },
       JoinMethod::kNestedLoops, "NestedLoopsJoin(inner)"},
  };
  for (const Case& c : cases) {
    std::map<std::string, ColumnId> f, d;
    RelExprPtr fact = Get(fact_, &f);
    RelExprPtr dim = Get(dim_, &d);
    ScalarExprPtr predicate = c.predicate(f, d);
    RelExprPtr join = MakeJoin(c.kind, fact, dim, predicate);
    EXPECT_EQ(ChooseJoin(*join).method, c.method) << c.what;
    Result<PhysicalOpPtr> built =
        BuildPhysicalPlan(join, *columns_, PhysicalBuildOptions());
    ASSERT_TRUE(built.ok()) << c.what << ": " << built.status().ToString();
    EXPECT_EQ((*built)->name(), c.op) << c.what;

    CostModel cost(&catalog_);
    const PlanEstimate& left = cost.Estimate(fact);
    const PlanEstimate& right = cost.Estimate(dim);
    const double kept =
        cost.Estimate(MakeJoin(JoinKind::kInner, fact, dim, predicate)).rows;
    const bool hash = c.method != JoinMethod::kNestedLoops;
    EXPECT_DOUBLE_EQ(cost.Estimate(join).cost,
                     JoinOperatorCost(left, right, kept, hash))
        << c.what;
    EXPECT_NE(cost.Estimate(join).cost,
              JoinOperatorCost(left, right, kept, !hash))
        << c.what;
  }
}

// NOT IN and `<> ALL` over non-NULL columns fold to a plain equality and
// run as a plain hash anti join; over a nullable column they keep the
// null-aware one. A correlated NOT IN runs as a hash anti join keyed on the
// correlation either way. No form is left to nested loops.
TEST_F(RuleTest, NotInPicksItsHashJoin) {
  QueryEngine engine(&catalog_, EngineOptions::Full());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"select fk from fact where fd not in (select dk from dim)",
       "HashJoin(anti)"},
      {"select fk from fact where fd <> all (select dk from dim)",
       "HashJoin(anti)"},
      {"select fk from fact where fv not in (select dv from dim)",
       "HashJoin(null-aware-anti)"},
      {"select fk from fact where fv <> all (select dv from dim)",
       "HashJoin(null-aware-anti)"},
      {"select fk from fact where fv not in "
       "(select dv from dim where dk = fd)",
       "HashJoin(anti)"},
      {"select fk from fact where fv <> all "
       "(select dv from dim where dk = fd)",
       "HashJoin(anti)"},
  };
  for (const auto& [sql, op] : cases) {
    Result<std::string> explain = engine.Explain(sql);
    ASSERT_TRUE(explain.ok()) << sql << ": " << explain.status().ToString();
    EXPECT_NE(explain->find(op), std::string::npos) << sql << "\n"
                                                     << *explain;
    EXPECT_EQ(explain->find("NestedLoopsJoin"), std::string::npos)
        << sql << "\n" << *explain;
  }
}

TEST_F(RuleTest, CostModelPrefersIndexApplyForSmallOuter) {
  // Tiny outer + indexed inner: the optimizer should re-introduce
  // correlated execution (paper: "can actually be the best strategy").
  Catalog tpch;
  TpchGenOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(&tpch, options).ok());
  QueryEngine engine(&tpch, EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select c_custkey from customer "
      "where c_custkey < 5 and 1000 < "
      "(select sum(o_totalprice) from orders where o_custkey = c_custkey)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_GE(CountKind(compiled->optimized, RelKind::kApply), 1)
      << PrintRelTree(*compiled->optimized, compiled->columns.get());
}

}  // namespace
}  // namespace orq
