// Tests for Apply introduction (paper section 2.2): the translation of
// each subquery construct into Apply operators, checked by tree shape.
#include <gtest/gtest.h>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "catalog/catalog.h"
#include "sql/apply_intro.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

int CountApplyKind(const RelExprPtr& node, ApplyKind kind) {
  int n =
      node->kind == RelKind::kApply && node->apply_kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) {
    n += CountApplyKind(child, kind);
  }
  return n;
}

bool AnySubqueryLeft(const RelExprPtr& node) {
  auto scalar_has = [](const ScalarExprPtr& e) {
    return e != nullptr && e->HasSubquery();
  };
  if (scalar_has(node->predicate)) return true;
  for (const ProjectItem& item : node->proj_items) {
    if (scalar_has(item.expr)) return true;
  }
  for (const RelExprPtr& child : node->children) {
    if (AnySubqueryLeft(child)) return true;
  }
  return false;
}

class ApplyIntroTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* t = *catalog_.CreateTable("t", {{"a", DataType::kInt64, false},
                                           {"b", DataType::kInt64, true}});
    t->SetPrimaryKey({0});
    Table* u = *catalog_.CreateTable("u", {{"c", DataType::kInt64, false},
                                           {"d", DataType::kInt64, true}});
    u->SetPrimaryKey({0});
  }

  RelExprPtr Introduce(const std::string& sql) {
    columns_ = std::make_shared<ColumnManager>();
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_, columns_);
    auto bound = binder.Bind(**stmt);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto applied = IntroduceApplies(bound->root, columns_.get());
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
    RelExprPtr tree = *applied;
    EXPECT_FALSE(AnySubqueryLeft(tree))
        << PrintRelTree(*tree, columns_.get());
    return tree;
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
};

TEST_F(ApplyIntroTest, ExistsBecomesSemiApply) {
  RelExprPtr tree = Introduce(
      "select a from t where exists (select * from u where d = a)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kSemi), 1);
}

TEST_F(ApplyIntroTest, NotExistsBecomesAntiApply) {
  RelExprPtr tree = Introduce(
      "select a from t where not exists (select * from u where d = a)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kAnti), 1);
}

TEST_F(ApplyIntroTest, InBecomesSemiApplyWithEquality) {
  RelExprPtr tree =
      Introduce("select a from t where a in (select c from u)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kSemi), 1);
}

TEST_F(ApplyIntroTest, NotInBecomesAntiApplyWithNullGuard) {
  RelExprPtr tree =
      Introduce("select a from t where b not in (select d from u)");
  ASSERT_EQ(CountApplyKind(tree, ApplyKind::kAnti), 1);
  // The inner selection's predicate must accept unknown comparisons
  // (OR with IS NULL) so NOT IN's three-valued semantics survive.
  const RelExpr* apply = tree.get();
  while (apply->kind != RelKind::kApply) apply = apply->children[0].get();
  const RelExpr* inner = apply->children[1].get();
  ASSERT_EQ(inner->kind, RelKind::kSelect);
  EXPECT_EQ(inner->predicate->kind, ScalarKind::kOr);
}

TEST_F(ApplyIntroTest, ScalarAggregateSubqueryUsesCrossApply) {
  RelExprPtr tree = Introduce(
      "select a from t where 5 < (select sum(d) from u where c = a)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kCross), 1);
  EXPECT_EQ(CountKind(tree, RelKind::kMax1row), 0);  // exactly-one-row
}

TEST_F(ApplyIntroTest, NonAggregateScalarSubqueryGetsMax1rowGuard) {
  RelExprPtr tree = Introduce(
      "select a, (select d from u where d = b) from t");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kOuter), 1);
  EXPECT_EQ(CountKind(tree, RelKind::kMax1row), 1);
}

TEST_F(ApplyIntroTest, KeyPinnedScalarSubqueryNeedsNoGuard) {
  // c is u's key: the compiler proves at most one row (paper section 2.4,
  // the "reverse the roles" example).
  RelExprPtr tree =
      Introduce("select a, (select d from u where c = a) from t");
  EXPECT_EQ(CountKind(tree, RelKind::kMax1row), 0);
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kOuter), 1);
}

TEST_F(ApplyIntroTest, QuantifiedAllBecomesAntiApply) {
  RelExprPtr tree = Introduce(
      "select a from t where a > all (select d from u where c = a)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kAnti), 1);
}

// `x <> ALL (S)` tests nullness on its negated comparison, so it gets NOT
// IN's exact predicate, `b = d OR (b = d) IS NULL`: the physical builder
// then runs both as the same null-aware hash anti join.
TEST_F(ApplyIntroTest, NotEqualAllSpellsNotInsPredicate) {
  auto inner_predicate = [](const RelExprPtr& tree) {
    const RelExpr* apply = tree.get();
    while (apply->kind != RelKind::kApply) apply = apply->children[0].get();
    return apply->children[1]->predicate;
  };
  ScalarExprPtr not_in = inner_predicate(
      Introduce("select a from t where b not in (select d from u)"));
  ScalarExprPtr ne_all = inner_predicate(
      Introduce("select a from t where b <> all (select d from u)"));
  EXPECT_TRUE(ScalarEquals(not_in, ne_all))
      << ScalarToString(not_in) << " vs " << ScalarToString(ne_all);
}

TEST_F(ApplyIntroTest, QuantifiedAnyBecomesSemiApply) {
  RelExprPtr tree =
      Introduce("select a from t where a > any (select d from u)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kSemi), 1);
}

TEST_F(ApplyIntroTest, ExistsUnderOrUsesCountForm) {
  // Not a top-level conjunct: rewritten through a scalar count aggregate
  // (section 2.4), i.e. a cross apply over a scalar GroupBy.
  RelExprPtr tree = Introduce(
      "select a from t where a = 1 or exists (select * from u where d = a)");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kCross), 1);
  EXPECT_EQ(CountKind(tree, RelKind::kGroupBy), 1);
}

TEST_F(ApplyIntroTest, MultipleSubqueriesStackApplies) {
  RelExprPtr tree = Introduce(
      "select a from t "
      "where exists (select * from u where d = a) "
      "  and b in (select d from u) "
      "  and 3 < (select count(*) from u where c > a)");
  EXPECT_EQ(CountKind(tree, RelKind::kApply), 3);
}

TEST_F(ApplyIntroTest, SelectListBooleanExistsViaCount) {
  RelExprPtr tree = Introduce(
      "select a, case when exists (select * from u where d = a) then 1 "
      "else 0 end from t");
  EXPECT_EQ(CountApplyKind(tree, ApplyKind::kCross), 1);
}

}  // namespace
}  // namespace orq
