// Additional pushdown/pruning coverage beyond normalize_test: filters
// through UnionAll, Apply and Sort; select-over-project substitution;
// project merging; pruning through set operations.
#include <gtest/gtest.h>

#include <map>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "normalize/pushdown.h"
#include "tests/test_util.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    t_ = *catalog_.CreateTable("t", {{"a", DataType::kInt64, false},
                                     {"b", DataType::kInt64, true}});
    t_->SetPrimaryKey({0});
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE(t_->Append({Value::Int64(i),
                              i % 3 == 0 ? Value::Null()
                                         : Value::Int64(i * 2)})
                      .ok());
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

  /// Pushdown must preserve semantics: execute before/after and compare.
  RelExprPtr CheckedPushdown(const RelExprPtr& tree) {
    std::vector<ColumnId> out = tree->OutputColumns();
    Result<std::vector<Row>> before = ExecLogical(tree, *columns_, out);
    EXPECT_TRUE(before.ok()) << before.status().ToString();
    RelExprPtr pushed = PushdownPredicates(tree, columns_.get());
    Result<std::vector<Row>> after = ExecLogical(pushed, *columns_, out);
    EXPECT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(CanonicalRows(*before), CanonicalRows(*after))
        << PrintRelTree(*pushed, columns_.get());
    return pushed;
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* t_ = nullptr;
};

TEST_F(PushdownTest, SelectThroughProjectSubstitutes) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  ColumnId doubled = columns_->NewColumn("d", DataType::kInt64, true);
  RelExprPtr project = MakeProject(
      get,
      {ProjectItem{doubled, MakeArith(ArithOp::kMul,
                                      CRef(*columns_, t.at("a")),
                                      LitInt(2))}},
      ColumnSet{t.at("a")});
  RelExprPtr tree = MakeSelect(
      project,
      MakeCompare(CompareOp::kGt, CRef(doubled, DataType::kInt64),
                  LitInt(8)));
  RelExprPtr pushed = CheckedPushdown(tree);
  // The filter moved below the project, rewritten over a*2.
  EXPECT_EQ(pushed->kind, RelKind::kProject);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSelect);
}

TEST_F(PushdownTest, SelectDistributesIntoUnionAll) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId out = columns_->NewColumn("u", DataType::kInt64, true);
  RelExprPtr uni =
      MakeUnionAll({g1, g2}, {out}, {{t1.at("a")}, {t2.at("a")}});
  RelExprPtr tree = MakeSelect(
      uni,
      MakeCompare(CompareOp::kLe, CRef(out, DataType::kInt64), LitInt(3)));
  RelExprPtr pushed = CheckedPushdown(tree);
  EXPECT_EQ(pushed->kind, RelKind::kUnionAll);
  EXPECT_EQ(CountKind(pushed, RelKind::kSelect), 2);
}

TEST_F(PushdownTest, OuterColumnsFilterBeforeApply) {
  std::map<std::string, ColumnId> outer, inner;
  RelExprPtr gout = Get(&outer);
  RelExprPtr ginn = Get(&inner);
  RelExprPtr apply = MakeApply(
      ApplyKind::kCross, gout,
      MakeSelect(ginn, Eq(CRef(*columns_, inner.at("a")),
                          CRef(*columns_, outer.at("a")))));
  RelExprPtr tree = MakeSelect(
      apply,
      MakeAnd2(MakeCompare(CompareOp::kLe,
                           CRef(*columns_, outer.at("a")), LitInt(4)),
               MakeCompare(CompareOp::kGt,
                           CRef(*columns_, inner.at("b")), LitInt(0))));
  RelExprPtr pushed = CheckedPushdown(tree);
  // The outer-only conjunct moved below the apply's left input.
  ASSERT_EQ(pushed->kind, RelKind::kSelect);  // inner-side conjunct stays
  const RelExprPtr& new_apply = pushed->children[0];
  ASSERT_EQ(new_apply->kind, RelKind::kApply);
  EXPECT_EQ(new_apply->children[0]->kind, RelKind::kSelect);
}

// ON-clause conjuncts of outer, semi and anti joins. Each case runs the
// join before and after pushdown (CheckedPushdown) and pins where every
// single-side conjunct ended up.
class JoinOnPushdownTest : public PushdownTest {
 protected:
  void SetUp() override {
    PushdownTest::SetUp();
    left_ = Get(&l_);
    right_ = Get(&r_);
  }
  /// left JOIN(kind) right ON l.a = r.a AND extra...
  RelExprPtr Join(JoinKind kind, std::vector<ScalarExprPtr> extra) {
    extra.insert(extra.begin(), Eq(CRef(*columns_, l_.at("a")),
                                   CRef(*columns_, r_.at("a"))));
    return MakeJoin(kind, left_, right_, MakeAnd(std::move(extra)));
  }
  ScalarExprPtr LeftOnly() {
    return MakeCompare(CompareOp::kLe, CRef(*columns_, l_.at("a")),
                       LitInt(5));
  }
  ScalarExprPtr RightOnly() {
    return MakeCompare(CompareOp::kGt, CRef(*columns_, r_.at("b")),
                       LitInt(4));
  }
  /// The join's own ON clause is exactly the key equality.
  static void ExpectOnlyKeyLeft(const RelExprPtr& join) {
    std::vector<ScalarExprPtr> on = SplitConjuncts(join->predicate);
    ASSERT_EQ(on.size(), 1u);
    EXPECT_EQ(on[0]->cmp, CompareOp::kEq);
  }

  std::map<std::string, ColumnId> l_, r_;
  RelExprPtr left_, right_;
};

TEST_F(JoinOnPushdownTest, RightOnlyConjunctFiltersRightInput) {
  for (JoinKind kind :
       {JoinKind::kLeftOuter, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    RelExprPtr pushed = CheckedPushdown(Join(kind, {RightOnly()}));
    ASSERT_EQ(pushed->kind, RelKind::kJoin);
    EXPECT_EQ(pushed->join_kind, kind);
    EXPECT_EQ(pushed->children[0]->kind, RelKind::kGet);
    EXPECT_EQ(pushed->children[1]->kind, RelKind::kSelect);
    ExpectOnlyKeyLeft(pushed);
  }
}

TEST_F(JoinOnPushdownTest, SemiJoinLeftOnlyConjunctFiltersLeftInput) {
  RelExprPtr pushed =
      CheckedPushdown(Join(JoinKind::kLeftSemi, {LeftOnly(), RightOnly()}));
  ASSERT_EQ(pushed->kind, RelKind::kJoin);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSelect);
  EXPECT_EQ(pushed->children[1]->kind, RelKind::kSelect);
  ExpectOnlyKeyLeft(pushed);
}

// An outer or anti join emits the left rows the ON clause rejects, so a
// left-only conjunct must stay in the ON clause; moving it would drop
// those rows.
TEST_F(JoinOnPushdownTest, OuterAndAntiJoinsKeepLeftOnlyConjunct) {
  for (JoinKind kind : {JoinKind::kLeftOuter, JoinKind::kLeftAnti}) {
    RelExprPtr tree = Join(kind, {LeftOnly()});
    RelExprPtr pushed = CheckedPushdown(tree);
    EXPECT_EQ(pushed, tree) << "kind " << static_cast<int>(kind);
    RelExprPtr both = CheckedPushdown(Join(kind, {LeftOnly(), RightOnly()}));
    ASSERT_EQ(both->kind, RelKind::kJoin);
    EXPECT_EQ(both->children[0]->kind, RelKind::kGet);
    EXPECT_EQ(both->children[1]->kind, RelKind::kSelect);
    EXPECT_EQ(SplitConjuncts(both->predicate).size(), 2u);
  }
}

TEST_F(PushdownTest, SortWithLimitBlocksFilterPushdown) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr top = MakeSort(
      get, {SortKey{CRef(*columns_, t.at("a")), true}}, 3);
  RelExprPtr tree = MakeSelect(
      top, MakeCompare(CompareOp::kGt, CRef(*columns_, t.at("a")),
                       LitInt(1)));
  RelExprPtr pushed = CheckedPushdown(tree);
  // Pushing below a TOP would change which rows survive: must not happen.
  EXPECT_EQ(pushed->kind, RelKind::kSelect);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSort);
}

TEST_F(PushdownTest, SortWithoutLimitAllowsFilterPushdown) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr sorted = MakeSort(
      get, {SortKey{CRef(*columns_, t.at("a")), true}}, -1);
  RelExprPtr tree = MakeSelect(
      sorted, MakeCompare(CompareOp::kGt, CRef(*columns_, t.at("a")),
                          LitInt(1)));
  RelExprPtr pushed = PushdownPredicates(tree, columns_.get());
  EXPECT_EQ(pushed->kind, RelKind::kSort);
}

TEST_F(PushdownTest, StackedProjectsMerge) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  ColumnId c1 = columns_->NewColumn("c1", DataType::kInt64, true);
  ColumnId c2 = columns_->NewColumn("c2", DataType::kInt64, true);
  RelExprPtr inner = MakeProject(
      get,
      {ProjectItem{c1, MakeArith(ArithOp::kAdd,
                                 CRef(*columns_, t.at("a")), LitInt(1))}},
      ColumnSet{t.at("a")});
  RelExprPtr outer = MakeProject(
      inner,
      {ProjectItem{c2, MakeArith(ArithOp::kMul, CRef(c1, DataType::kInt64),
                                 LitInt(10))}},
      ColumnSet{t.at("a")});
  RelExprPtr pushed = CheckedPushdown(outer);
  EXPECT_EQ(CountKind(pushed, RelKind::kProject), 1);
}

TEST_F(PushdownTest, IdentityProjectRemoved) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr identity =
      MakeProject(get, {}, ColumnSet{t.at("a"), t.at("b")});
  RelExprPtr pushed = PushdownPredicates(identity, columns_.get());
  EXPECT_EQ(pushed->kind, RelKind::kGet);
}

TEST_F(PushdownTest, PruneThroughUnionAllNarrowsBranches) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId u1 = columns_->NewColumn("u1", DataType::kInt64, true);
  ColumnId u2 = columns_->NewColumn("u2", DataType::kInt64, true);
  RelExprPtr uni = MakeUnionAll({g1, g2}, {u1, u2},
                                {{t1.at("a"), t1.at("b")},
                                 {t2.at("a"), t2.at("b")}});
  // Only u1 is needed above.
  RelExprPtr tree = MakeProject(uni, {}, ColumnSet{u1});
  RelExprPtr pruned = PruneColumns(tree, columns_.get());
  const RelExpr* u = pruned.get();
  while (u->kind != RelKind::kUnionAll) u = u->children[0].get();
  EXPECT_EQ(u->out_cols.size(), 1u);
  EXPECT_EQ(u->input_maps[0].size(), 1u);
}

TEST_F(PushdownTest, PruneKeepsEverythingUnderExceptAll) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId u1 = columns_->NewColumn("u1", DataType::kInt64, true);
  ColumnId u2 = columns_->NewColumn("u2", DataType::kInt64, true);
  RelExprPtr except = MakeExceptAll(g1, g2, {u1, u2},
                                    {{t1.at("a"), t1.at("b")},
                                     {t2.at("a"), t2.at("b")}});
  RelExprPtr tree = MakeProject(except, {}, ColumnSet{u1});
  RelExprPtr pruned = PruneColumns(tree, columns_.get());
  // Bag difference compares whole rows: both columns must survive below.
  const RelExpr* e = pruned.get();
  while (e->kind != RelKind::kExceptAll) e = e->children[0].get();
  EXPECT_EQ(e->out_cols.size(), 2u);
}

}  // namespace
}  // namespace orq
