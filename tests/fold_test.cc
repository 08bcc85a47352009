// Tests for constant folding and empty-subexpression detection (the
// "query normalization" simplifications of paper section 4).
#include <gtest/gtest.h>

#include <map>

#include "algebra/expr_util.h"
#include "engine/engine.h"
#include "normalize/fold.h"
#include "tests/test_util.h"

namespace orq {
namespace {

TEST(FoldScalarTest, EvaluatesLiteralArithmetic) {
  ScalarExprPtr e = MakeArith(ArithOp::kAdd, LitInt(2),
                              MakeArith(ArithOp::kMul, LitInt(3), LitInt(4)));
  ScalarExprPtr folded = FoldScalar(e);
  ASSERT_EQ(folded->kind, ScalarKind::kLiteral);
  EXPECT_EQ(folded->literal.int64_value(), 14);
}

TEST(FoldScalarTest, EvaluatesLiteralComparison) {
  ScalarExprPtr folded =
      FoldScalar(MakeCompare(CompareOp::kLt, LitInt(1), LitInt(2)));
  ASSERT_EQ(folded->kind, ScalarKind::kLiteral);
  EXPECT_TRUE(folded->literal.bool_value());
}

TEST(FoldScalarTest, AndOrShortcuts) {
  ScalarExprPtr x = CRef(1, DataType::kBool);
  // x AND FALSE = FALSE.
  EXPECT_TRUE(IsFalseOrNullLiteral(FoldScalar(MakeAnd2(x, LitBool(false)))));
  // x AND TRUE = x.
  EXPECT_EQ(FoldScalar(MakeAnd2(x, LitBool(true))), x);
  // x OR TRUE = TRUE.
  EXPECT_TRUE(IsTrueLiteral(FoldScalar(MakeOr({x, LitBool(true)}))));
  // x OR FALSE = x.
  EXPECT_EQ(FoldScalar(MakeOr({x, LitBool(false)})), x);
  // NULL is NOT neutral for AND (x AND NULL is not x): must stay.
  ScalarExprPtr and_null = FoldScalar(MakeAnd2(x, LitNull(DataType::kBool)));
  EXPECT_EQ(and_null->kind, ScalarKind::kAnd);
}

TEST(FoldScalarTest, DoubleNegationDrops) {
  ScalarExprPtr x = CRef(1, DataType::kBool);
  EXPECT_EQ(FoldScalar(MakeNot(MakeNot(x))), x);
}

// With the columns known non-NULL, `cmp IS NULL` over them is FALSE and
// NOT IN's disjunction folds to its equality; a nullable operand keeps it,
// and so does a comparison across comparison classes (an int64 against a
// string is UNKNOWN on every row).
TEST(FoldScalarTest, IsNullOverNotNullColumnsIsFalse) {
  ScalarExprPtr x = CRef(1, DataType::kInt64);
  ScalarExprPtr y = CRef(2, DataType::kInt64);
  ScalarExprPtr eq = Eq(x, y);
  ScalarExprPtr not_in = MakeOr({eq, MakeIsNull(eq)});
  ColumnSet both;
  both.Add(1);
  both.Add(2);
  EXPECT_TRUE(ScalarEquals(FoldScalar(not_in, &both), eq));
  EXPECT_TRUE(IsFalseOrNullLiteral(
      FoldScalar(MakeIsNull(Eq(x, LitInt(3))), &both)));
  ColumnSet only_x;
  only_x.Add(1);
  EXPECT_EQ(FoldScalar(not_in, &only_x), not_in);
  EXPECT_EQ(FoldScalar(not_in), not_in);

  ScalarExprPtr s = CRef(3, DataType::kString);
  ScalarExprPtr d = CRef(4, DataType::kDouble);
  ColumnSet all = both;
  all.Add(3);
  all.Add(4);
  ScalarExprPtr across = Eq(x, s);
  ScalarExprPtr not_in_across = MakeOr({across, MakeIsNull(across)});
  EXPECT_EQ(FoldScalar(not_in_across, &all), not_in_across);
  ScalarExprPtr literal = MakeIsNull(Eq(x, LitString("1")));
  EXPECT_EQ(FoldScalar(literal, &all), literal);
  EXPECT_TRUE(IsFalseOrNullLiteral(FoldScalar(MakeIsNull(Eq(x, d)), &all)));
}

TEST(FoldScalarTest, DivisionByZeroStaysForRuntime) {
  ScalarExprPtr e = MakeArith(ArithOp::kDiv, LitInt(1), LitInt(0));
  EXPECT_EQ(FoldScalar(e)->kind, ScalarKind::kArith);
}

class FoldEmptyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    t_ = *catalog_.CreateTable("t", {{"a", DataType::kInt64, false},
                                     {"b", DataType::kInt64, true}});
    t_->SetPrimaryKey({0});
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(t_->Append({Value::Int64(i), Value::Int64(i)}).ok());
    }
  }

  RelExprPtr Get(std::map<std::string, ColumnId>* ids) {
    std::vector<ColumnId> cols;
    for (const ColumnSpec& spec : t_->columns()) {
      ColumnId id = columns_->NewColumn(spec.name, spec.type, spec.nullable);
      cols.push_back(id);
      (*ids)[spec.name] = id;
    }
    return MakeGet(t_, std::move(cols));
  }

  RelExprPtr Empty(std::map<std::string, ColumnId>* ids) {
    return MakeSelect(Get(ids), LitBool(false));
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* t_ = nullptr;
};

TEST_F(FoldEmptyTest, ContradictionDetectedByFolding) {
  std::map<std::string, ColumnId> t;
  RelExprPtr tree = MakeSelect(
      Get(&t), MakeCompare(CompareOp::kGt, LitInt(1), LitInt(2)));
  RelExprPtr folded = FoldAndDetectEmpty(tree, columns_.get());
  EXPECT_TRUE(IsProvablyEmpty(folded));
}

TEST_F(FoldEmptyTest, InnerJoinWithEmptyInputIsEmpty) {
  std::map<std::string, ColumnId> a, b;
  RelExprPtr join =
      MakeJoin(JoinKind::kInner, Empty(&a), Get(&b), TrueLiteral());
  EXPECT_TRUE(IsProvablyEmpty(FoldAndDetectEmpty(join, columns_.get())));
}

TEST_F(FoldEmptyTest, AntiJoinWithEmptyRightIsLeft) {
  std::map<std::string, ColumnId> a, b;
  RelExprPtr left = Get(&a);
  RelExprPtr anti =
      MakeJoin(JoinKind::kLeftAnti, left, Empty(&b), TrueLiteral());
  RelExprPtr folded = FoldAndDetectEmpty(anti, columns_.get());
  EXPECT_EQ(folded, left);
}

TEST_F(FoldEmptyTest, OuterJoinWithEmptyRightPadsNulls) {
  std::map<std::string, ColumnId> a, b;
  RelExprPtr left = Get(&a);
  RelExprPtr right = Empty(&b);
  RelExprPtr loj =
      MakeJoin(JoinKind::kLeftOuter, left, right,
               Eq(CRef(*columns_, a.at("a")), CRef(*columns_, b.at("a"))));
  RelExprPtr folded = FoldAndDetectEmpty(loj, columns_.get());
  ASSERT_EQ(folded->kind, RelKind::kProject);
  // Semantics preserved: 4 left rows, right columns NULL.
  Result<std::vector<Row>> rows =
      ExecLogical(folded, *columns_, folded->OutputColumns());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_TRUE((*rows)[0][2].is_null());
}

TEST_F(FoldEmptyTest, UnionDropsEmptyBranches) {
  std::map<std::string, ColumnId> a, b, c;
  RelExprPtr live1 = Get(&a);
  RelExprPtr dead = Empty(&b);
  RelExprPtr live2 = Get(&c);
  ColumnId out = columns_->NewColumn("u", DataType::kInt64, true);
  RelExprPtr uni = MakeUnionAll(
      {live1, dead, live2}, {out},
      {{a.at("a")}, {b.at("a")}, {c.at("a")}});
  RelExprPtr folded = FoldAndDetectEmpty(uni, columns_.get());
  ASSERT_EQ(folded->kind, RelKind::kUnionAll);
  EXPECT_EQ(folded->children.size(), 2u);
}

TEST_F(FoldEmptyTest, UnionWithOneSurvivorBecomesRename) {
  std::map<std::string, ColumnId> a, b;
  RelExprPtr live = Get(&a);
  RelExprPtr dead = Empty(&b);
  ColumnId out = columns_->NewColumn("u", DataType::kInt64, true);
  RelExprPtr uni =
      MakeUnionAll({live, dead}, {out}, {{a.at("a")}, {b.at("a")}});
  RelExprPtr folded = FoldAndDetectEmpty(uni, columns_.get());
  EXPECT_EQ(folded->kind, RelKind::kProject);
  EXPECT_EQ(folded->OutputColumns(), (std::vector<ColumnId>{out}));
}

TEST_F(FoldEmptyTest, ScalarAggregateOfEmptySurvives) {
  // Section 1.1: a scalar aggregate of nothing is still one row — the
  // empty marker must NOT propagate through it.
  std::map<std::string, ColumnId> t;
  ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, false);
  RelExprPtr agg = MakeScalarGroupBy(
      Empty(&t), {AggItem{AggFunc::kCountStar, nullptr, cnt, false}});
  RelExprPtr folded = FoldAndDetectEmpty(agg, columns_.get());
  EXPECT_EQ(folded->kind, RelKind::kGroupBy);
  // Vector aggregate of nothing IS nothing.
  std::map<std::string, ColumnId> t2;
  RelExprPtr empty2 = Empty(&t2);
  RelExprPtr vec = MakeGroupBy(
      empty2, ColumnSet{t2.at("a")},
      {AggItem{AggFunc::kCountStar, nullptr,
               columns_->NewColumn("c2", DataType::kInt64, false), false}});
  EXPECT_TRUE(IsProvablyEmpty(FoldAndDetectEmpty(vec, columns_.get())));
}

TEST_F(FoldEmptyTest, EndToEndContradictionShortCircuits) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> result =
      engine.Execute("select a from t where 1 = 2 and b > 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 0u);
  // The plan never opened the scan: no operator produced any rows.
  EXPECT_EQ(result->rows_produced, 0);
}

TEST_F(FoldEmptyTest, EndToEndScalarAggOverContradiction) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> result =
      engine.Execute("select count(*) from t where 1 = 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 0);
}

}  // namespace
}  // namespace orq
