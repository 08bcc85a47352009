// Unit tests for the binder: name resolution, scoping/correlation,
// aggregate handling, DISTINCT normalization, error reporting.
#include <gtest/gtest.h>

#include "algebra/props.h"
#include "catalog/catalog.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace orq {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t = *catalog_.CreateTable("t", {{"a", DataType::kInt64, false},
                                           {"b", DataType::kString, true},
                                           {"c", DataType::kDouble, true}});
    t->SetPrimaryKey({0});
    Table* u = *catalog_.CreateTable("u", {{"a", DataType::kInt64, false},
                                           {"d", DataType::kInt64, true}});
    u->SetPrimaryKey({0});
  }

  Result<BoundQuery> Bind(const std::string& sql) {
    columns_ = std::make_shared<ColumnManager>();
    auto stmt = ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    Binder binder(&catalog_, columns_);
    return binder.Bind(**stmt);
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
};

TEST_F(BinderTest, ResolvesColumns) {
  auto bound = Bind("select a, b from t");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->output_names, (std::vector<std::string>{"a", "b"}));
}

TEST_F(BinderTest, UnknownColumnFails) {
  auto bound = Bind("select nope from t");
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST_F(BinderTest, UnknownTableFails) {
  EXPECT_FALSE(Bind("select 1 from nothere").ok());
}

TEST_F(BinderTest, AmbiguousColumnFails) {
  // Both t and u define column `a`.
  auto bound = Bind("select a from t, u");
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BinderTest, QualifierDisambiguates) {
  EXPECT_TRUE(Bind("select t.a, u.a from t, u").ok());
}

TEST_F(BinderTest, SelfJoinGetsDistinctColumnIds) {
  auto bound = Bind("select t1.a, t2.a from t t1, t t2");
  ASSERT_TRUE(bound.ok());
  EXPECT_NE(bound->output_cols[0], bound->output_cols[1]);
  // The two Get instances must not share ids.
  const RelExpr* join = bound->root.get();
  while (join->kind != RelKind::kJoin) join = join->children[0].get();
  EXPECT_NE(join->children[0]->OutputColumns()[0],
            join->children[1]->OutputColumns()[0]);
}

TEST_F(BinderTest, CorrelationIsOuterReference) {
  auto bound = Bind(
      "select a from t where exists (select * from u where d = t.a)");
  ASSERT_TRUE(bound.ok());
  // The subquery's relational tree must have a free variable: t.a.
  const RelExpr* select = bound->root->children[0].get();
  ASSERT_EQ(select->kind, RelKind::kSelect);
  ASSERT_NE(select->predicate->rel, nullptr);
  EXPECT_FALSE(FreeVariables(*select->predicate->rel).empty());
}

TEST_F(BinderTest, AggregateQueryValidatesGrouping) {
  EXPECT_TRUE(Bind("select a, count(*) from t group by a").ok());
  // b is neither grouped nor aggregated.
  auto bad = Bind("select b, count(*) from t group by a");
  EXPECT_FALSE(bad.ok());
}

TEST_F(BinderTest, AggregateInWhereFails) {
  EXPECT_FALSE(Bind("select a from t where sum(a) > 1").ok());
}

TEST_F(BinderTest, NestedAggregateFails) {
  EXPECT_FALSE(Bind("select sum(count(a)) from t").ok());
}

TEST_F(BinderTest, AvgDecomposesToSumCount) {
  auto bound = Bind("select avg(c) from t");
  ASSERT_TRUE(bound.ok());
  // Walk to the GroupBy: it must carry sum and count, not a native avg.
  const RelExpr* node = bound->root.get();
  while (node->kind != RelKind::kGroupBy) node = node->children[0].get();
  ASSERT_EQ(node->aggs.size(), 2u);
  EXPECT_EQ(node->aggs[0].func, AggFunc::kSum);
  EXPECT_EQ(node->aggs[1].func, AggFunc::kCount);
}

TEST_F(BinderTest, SharedAggregatesAreDeduplicated) {
  auto bound = Bind("select sum(a), sum(a) + 1, avg(a) from t");
  ASSERT_TRUE(bound.ok());
  const RelExpr* node = bound->root.get();
  while (node->kind != RelKind::kGroupBy) node = node->children[0].get();
  // sum(a) shared by all three expressions; count(a) added by avg.
  EXPECT_EQ(node->aggs.size(), 2u);
}

TEST_F(BinderTest, DistinctBecomesGroupBy) {
  auto bound = Bind("select distinct b from t");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->root->kind, RelKind::kGroupBy);
  EXPECT_TRUE(bound->root->aggs.empty());
}

TEST_F(BinderTest, ScalarSubqueryArityEnforced) {
  EXPECT_FALSE(Bind("select (select a, d from u) from t").ok());
}

TEST_F(BinderTest, GroupByExpressionGetsPreProject) {
  auto bound = Bind("select a + 1, count(*) from t group by a + 1");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
}

TEST_F(BinderTest, StarExpansion) {
  auto bound = Bind("select * from t");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->output_names,
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(BinderTest, SetOperationArityMismatchFails) {
  EXPECT_FALSE(Bind("select a, b from t union all select a from u").ok());
}

TEST_F(BinderTest, OrderByOrdinalOutOfRangeFails) {
  EXPECT_FALSE(Bind("select a from t order by 2").ok());
}

TEST_F(BinderTest, SubqueryInOnClauseUnsupported) {
  auto bound = Bind(
      "select t.a from t join u on t.a = (select max(d) from u)");
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kUnsupported);
}

TEST_F(BinderTest, BoundOutputMatchesRootColumns) {
  auto bound = Bind("select a as x, c from t where b = 'k'");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->root->OutputColumns(), bound->output_cols);
}

// ---- result types: one static type per column ----

/// The expression computing output column `i` of a non-aggregate query.
ScalarExprPtr OutputExpr(const BoundQuery& bound, size_t i) {
  for (const ProjectItem& item : bound.root->proj_items) {
    if (item.output == bound.output_cols[i]) return item.expr;
  }
  return nullptr;
}

TEST_F(BinderTest, CaseTakesTheCommonSupertype) {
  // int64 with double gives double; an int64 column branch is widened by
  // a cast, an int64 literal branch folds to a double literal.
  auto bound = Bind("select case when a > 2 then a else c end, "
                    "case when a > 2 then 1 else 2.5 end from t");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(columns_->type(bound->output_cols[i]), DataType::kDouble);
    ASSERT_NE(OutputExpr(*bound, i), nullptr);
    EXPECT_EQ(OutputExpr(*bound, i)->type, DataType::kDouble);
  }
  const ScalarExprPtr cast = OutputExpr(*bound, 0)->children[1];
  EXPECT_EQ(cast->kind, ScalarKind::kCast);
  EXPECT_EQ(cast->children[0]->type, DataType::kInt64);
  const ScalarExprPtr folded = OutputExpr(*bound, 1)->children[1];
  ASSERT_EQ(folded->kind, ScalarKind::kLiteral);
  EXPECT_EQ(folded->literal.type(), DataType::kDouble);
  EXPECT_EQ(folded->literal.double_value(), 1.0);
  // The same type stays that type.
  auto same = Bind("select case when a > 2 then b else 'x' end from t");
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(columns_->type(same->output_cols[0]), DataType::kString);
}

TEST_F(BinderTest, NullBranchTakesTheOtherBranchesType) {
  auto bound = Bind("select case when a > 2 then null else b end, "
                    "case when a > 2 then c end from t");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(columns_->type(bound->output_cols[0]), DataType::kString);
  const ScalarExprPtr null_branch = OutputExpr(*bound, 0)->children[1];
  ASSERT_EQ(null_branch->kind, ScalarKind::kLiteral);
  EXPECT_TRUE(null_branch->literal.is_null());
  EXPECT_EQ(null_branch->type, DataType::kString);
  EXPECT_EQ(columns_->type(bound->output_cols[1]), DataType::kDouble);
}

TEST_F(BinderTest, SetOperationsWidenTheirColumns) {
  for (const char* op : {"union all", "except all"}) {
    SCOPED_TRACE(op);
    auto bound = Bind(std::string("select a, c from t ") + op +
                      " select d, a from u");
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(columns_->type(bound->output_cols[0]), DataType::kInt64);
    EXPECT_EQ(columns_->type(bound->output_cols[1]), DataType::kDouble);
    // The right side computes its int64 `a` anew, as a double.
    const RelExprPtr& right = bound->root->children[1];
    ASSERT_EQ(right->kind, RelKind::kProject);
    ASSERT_EQ(right->proj_items.size(), 1u);
    EXPECT_EQ(right->proj_items[0].expr->kind, ScalarKind::kCast);
    EXPECT_EQ(bound->root->children[0]->kind, RelKind::kProject);
    EXPECT_TRUE(bound->root->children[0]->proj_items.size() == 2u);
  }
  // A bare NULL column takes the other side's type.
  auto nulls = Bind("select null from t union all select b from t");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  EXPECT_EQ(columns_->type(nulls->output_cols[0]), DataType::kString);
}

TEST_F(BinderTest, IncompatibleResultTypesFailToBind) {
  for (const char* sql :
       {"select case when a > 0 then b else 1 end from t",
        "select case when a > 0 then a when a < 0 then b end from t",
        "select a from t union all select b from t",
        "select b from t except all select d from u"}) {
    auto bound = Bind(sql);
    EXPECT_FALSE(bound.ok()) << sql;
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

}  // namespace
}  // namespace orq
