// Integration tests over generated TPC-H data: every evaluation query must
// run under every engine configuration and produce identical results —
// correctness of each rewrite and the paper's syntax-independence claim.
#include <algorithm>
#include <gtest/gtest.h>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "engine/engine.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

Catalog* SharedTpch() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    TpchGenOptions options;
    options.scale_factor = 0.005;
    Status s = GenerateTpch(c, options);
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString();
    }
    return c;
  }();
  return catalog;
}

std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    // Round doubles so plans that reassociate float additions agree.
    std::string line;
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f|", v.double_value());
        line += buf;
      } else {
        line += v.ToString() + "|";
      }
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class TpchQueryTest : public ::testing::TestWithParam<TpchQuery> {};

TEST_P(TpchQueryTest, AllConfigurationsAgree) {
  const TpchQuery& query = GetParam();
  Catalog* catalog = SharedTpch();

  QueryEngine reference(catalog, EngineOptions::Full());
  Result<QueryResult> expected = reference.Execute(query.sql);
  ASSERT_TRUE(expected.ok()) << query.id << ": "
                             << expected.status().ToString();
  std::vector<std::string> expected_rows = Canonical(*expected);

  struct NamedConfig {
    const char* name;
    EngineOptions options;
  };
  const NamedConfig configs[] = {
      {"correlated-only", EngineOptions::CorrelatedOnly()},
      {"no-groupby-opts", EngineOptions::NoGroupByOptimizations()},
      {"no-segment-apply", EngineOptions::NoSegmentApply()},
  };
  for (const NamedConfig& config : configs) {
    // Q18's IN-with-HAVING subquery is uncorrelated inside; the
    // correlated-only configuration re-aggregates all of lineitem per
    // outer row (minutes even at this scale). That gap *is* the paper's
    // point — it is measured in bench_fig8_suite, not re-verified here.
    if (query.id == "Q18" &&
        std::string(config.name) == "correlated-only") {
      continue;
    }
    QueryEngine engine(catalog, config.options);
    Result<QueryResult> actual = engine.Execute(query.sql);
    ASSERT_TRUE(actual.ok()) << query.id << " [" << config.name
                             << "]: " << actual.status().ToString();
    EXPECT_EQ(Canonical(*actual), expected_rows)
        << query.id << " differs under " << config.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tpch, TpchQueryTest, ::testing::ValuesIn(TpchQuerySet()),
    [](const ::testing::TestParamInfo<TpchQuery>& info) {
      return info.param.id;
    });

/// Every join of `kind` under `node`, pre-order.
void CollectJoins(const RelExprPtr& node, JoinKind kind,
                  std::vector<const RelExpr*>* out) {
  if (node->kind == RelKind::kJoin && node->join_kind == kind) {
    out->push_back(node.get());
  }
  for (const RelExprPtr& child : node->children) {
    CollectJoins(child, kind, out);
  }
}

RelExprPtr NormalizedTpch(const std::string& query_id) {
  for (const TpchQuery& q : TpchQuerySet()) {
    if (q.id != query_id) continue;
    QueryEngine engine(SharedTpch(), EngineOptions::Full());
    Result<QueryEngine::Compiled> compiled = engine.Compile(q.sql);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.ok() ? compiled->normalized : nullptr;
  }
  ADD_FAILURE() << "no TPC-H query " << query_id;
  return nullptr;
}

/// Every outer/semi/anti join in `tree` carries only ON conjuncts that
/// read both inputs.
void ExpectNoSingleSideOnConjuncts(const RelExprPtr& tree) {
  std::vector<const RelExpr*> joins;
  for (JoinKind kind :
       {JoinKind::kLeftOuter, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    CollectJoins(tree, kind, &joins);
  }
  for (const RelExpr* join : joins) {
    const ColumnSet left = join->children[0]->OutputSet();
    const ColumnSet right = join->children[1]->OutputSet();
    for (const ScalarExprPtr& c : SplitConjuncts(join->predicate)) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      EXPECT_TRUE(refs.Intersects(left) && refs.Intersects(right))
          << "single-side conjunct left in an ON clause";
    }
  }
}

/// The single join of `kind` in `tree`, whose right input must be the
/// Select its right-only conjuncts moved into.
const RelExpr* OnlyJoinFilteringRight(const RelExprPtr& tree,
                                      JoinKind kind) {
  std::vector<const RelExpr*> joins;
  CollectJoins(tree, kind, &joins);
  EXPECT_EQ(joins.size(), 1u);
  if (joins.size() != 1) return nullptr;
  EXPECT_EQ(joins[0]->children[1]->kind, RelKind::kSelect);
  return joins[0];
}

// Q18's IN-with-HAVING semi join filters its aggregate (sum > 250) before
// the join rather than probing every order against it.
TEST(TpchShapes, Q18SemiJoinFiltersAggregateFirst) {
  RelExprPtr q18 = NormalizedTpch("Q18");
  ASSERT_NE(q18, nullptr);
  ExpectNoSingleSideOnConjuncts(q18);
  const RelExpr* semi = OnlyJoinFilteringRight(q18, JoinKind::kLeftSemi);
  ASSERT_NE(semi, nullptr);
  EXPECT_EQ(semi->children[1]->children[0]->kind, RelKind::kGroupBy);
}

// Q20's outer join from partsupp to lineitem takes the ship-date range
// into its lineitem input. The semi join's availability test then moves
// above the aggregate, rejects NULL sums, and turns the outer join inner.
TEST(TpchShapes, Q20OuterJoinFiltersLineitemAndSimplifies) {
  RelExprPtr q20 = NormalizedTpch("Q20");
  ASSERT_NE(q20, nullptr);
  ExpectNoSingleSideOnConjuncts(q20);
  std::vector<const RelExpr*> outer;
  CollectJoins(q20, JoinKind::kLeftOuter, &outer);
  EXPECT_TRUE(outer.empty());
  std::vector<const RelExpr*> inner;
  CollectJoins(q20, JoinKind::kInner, &inner);
  int filtered_lineitem = 0;
  for (const RelExpr* join : inner) {
    const RelExprPtr& right = join->children[1];
    if (right->kind == RelKind::kSelect &&
        right->children[0]->kind == RelKind::kGet &&
        right->children[0]->table->name() == "lineitem") {
      ++filtered_lineitem;
    }
  }
  EXPECT_EQ(filtered_lineitem, 1);
}

// Q16's NOT IN anti join filters supplier by its comment before the join.
TEST(TpchShapes, Q16AntiJoinFiltersSupplierFirst) {
  RelExprPtr q16 = NormalizedTpch("Q16");
  ASSERT_NE(q16, nullptr);
  ExpectNoSingleSideOnConjuncts(q16);
  const RelExpr* anti = OnlyJoinFilteringRight(q16, JoinKind::kLeftAnti);
  ASSERT_NE(anti, nullptr);
  EXPECT_EQ(anti->children[1]->children[0]->kind, RelKind::kGet);
}

// Q16's uncorrelated NOT IN compares ps_suppkey with s_suppkey, both
// declared NOT NULL: normalization folds `l = r OR (l = r) IS NULL` to
// `l = r`, and the join runs as a plain hash anti join on that key, neither
// null-aware nor nested loops.
TEST(TpchShapes, Q16NotInOverNotNullKeysRunsAsHashAntiJoin) {
  QueryEngine engine(SharedTpch(), EngineOptions::Full());
  Result<std::string> explain = engine.Explain(GetTpchQuery("Q16").sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("HashJoin(anti)"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("null-aware"), std::string::npos) << *explain;
  EXPECT_EQ(explain->find("NestedLoopsJoin"), std::string::npos) << *explain;
}

RelExprPtr OptimizedTpch(const std::string& query_id) {
  QueryEngine engine(SharedTpch(), EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled =
      engine.Compile(GetTpchQuery(query_id).sql);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.ok() ? compiled->optimized : nullptr;
}

int CountTable(const RelExprPtr& node, const std::string& table) {
  int n = node->kind == RelKind::kGet && node->table->name() == table;
  for (const RelExprPtr& child : node->children) {
    n += CountTable(child, table);
  }
  return n;
}

bool HoldsGroupBy(const RelExprPtr& node) {
  if (node->kind == RelKind::kGroupBy) return true;
  for (const RelExprPtr& child : node->children) {
    if (HoldsGroupBy(child)) return true;
  }
  return false;
}

/// The deepest node of `node`'s subtree for which `holds` is true, given
/// that it holds at `node`.
template <typename Pred>
RelExprPtr Deepest(const RelExprPtr& node, Pred holds) {
  for (const RelExprPtr& child : node->children) {
    if (holds(child)) return Deepest(child, holds);
  }
  return node;
}

// Join order comes from the enumerator, not the FROM list (part, supplier,
// partsupp, ...): Q2 never cross-joins part with supplier.
TEST(TpchShapes, Q2HasNoInnerNestedLoopsJoin) {
  QueryEngine engine(SharedTpch(), EngineOptions::Full());
  Result<std::string> explain = engine.Explain(GetTpchQuery("Q2").sql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->find("NestedLoopsJoin(inner)"), std::string::npos)
      << *explain;
}

// Q21 lists nation last; its one-row filter joins supplier before any
// lineitem rows are read.
TEST(TpchShapes, Q21JoinsNationBeforeLineitem) {
  RelExprPtr q21 = OptimizedTpch("Q21");
  ASSERT_NE(q21, nullptr);
  RelExprPtr joined = Deepest(q21, [](const RelExprPtr& n) {
    return CountTable(n, "nation") > 0 && CountTable(n, "supplier") > 0;
  });
  EXPECT_EQ(CountTable(joined, "lineitem"), 0)
      << PrintRelTree(*q21, nullptr);
}

// Q18's IN (... HAVING ...) filter runs on orders, below the join that
// brings in the outer lineitem rows: the smallest subtree holding orders
// and the HAVING aggregate reads lineitem only inside that aggregate.
TEST(TpchShapes, Q18SemiJoinRunsOnOrdersBelowLineitemJoin) {
  RelExprPtr q18 = OptimizedTpch("Q18");
  ASSERT_NE(q18, nullptr);
  // Below the query's own GroupBy, the topmost one.
  RelExprPtr body = q18;
  while (body->kind != RelKind::kGroupBy) body = body->children[0];
  body = body->children[0];
  RelExprPtr filtered = Deepest(body, [](const RelExprPtr& n) {
    return CountTable(n, "orders") > 0 && HoldsGroupBy(n);
  });
  EXPECT_EQ(CountTable(filtered, "lineitem"), 1)
      << PrintRelTree(*q18, nullptr);
}

TEST(TpchData, GeneratorIsDeterministic) {
  Catalog a, b;
  TpchGenOptions options;
  options.scale_factor = 0.001;
  options.build_indexes = false;
  ASSERT_TRUE(GenerateTpch(&a, options).ok());
  ASSERT_TRUE(GenerateTpch(&b, options).ok());
  for (const std::string& name : a.TableNames()) {
    Table* ta = a.FindTable(name);
    Table* tb = b.FindTable(name);
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << name;
    const std::vector<Row> rows_a = TableRows(*ta);
    const std::vector<Row> rows_b = TableRows(*tb);
    for (size_t i = 0; i < ta->num_rows(); ++i) {
      ASSERT_EQ(RowToString(rows_a[i]), RowToString(rows_b[i]))
          << name << " row " << i;
    }
  }
}

TEST(TpchData, ReferentialIntegrity) {
  Catalog* catalog = SharedTpch();
  QueryEngine engine(catalog);
  // Every order references an existing customer.
  Result<QueryResult> r = engine.Execute(
      "select count(*) from orders where o_custkey not in "
      "(select c_custkey from customer)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int64_value(), 0);
  // Every lineitem references an existing order.
  r = engine.Execute(
      "select count(*) from lineitem where l_orderkey not in "
      "(select o_orderkey from orders)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int64_value(), 0);
}

}  // namespace
}  // namespace orq
