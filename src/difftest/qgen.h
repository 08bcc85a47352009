#ifndef ORQ_DIFFTEST_QGEN_H_
#define ORQ_DIFFTEST_QGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace orq {

/// A generated query, kept as a bag of independently removable pieces so
/// the minimizer can shrink a failing query by toggling pieces off and
/// re-rendering, without understanding SQL. Pieces are rendered SQL
/// fragments; disabled pieces are skipped by RenderSql.
struct QuerySpec {
  struct Piece {
    std::string sql;
    bool enabled = true;
  };
  /// One FROM-clause table after the base: `JOIN ... ON`, `LEFT OUTER
  /// JOIN ... ON`, or (`comma`) a new comma-separated FROM item whose join
  /// predicates, if any, are WHERE conjuncts.
  struct Join {
    bool left_outer = false;
    std::string table;
    std::string alias;
    std::string on;  // rendered ON condition; empty for a comma item
    bool enabled = true;
    bool comma = false;
  };

  bool distinct = false;
  std::vector<Piece> select_items;  // >= 1 must stay enabled
  std::string base_table;
  std::string base_alias;
  std::vector<Join> joins;
  std::vector<Piece> where;     // WHERE conjuncts
  std::vector<Piece> group_by;  // GROUP BY columns (all-or-nothing-ish:
                                // dropping one may fail binding; the
                                // minimizer relies on bind errors hitting
                                // both paths identically, which reads as
                                // "no divergence" and reverts the toggle)
  std::vector<Piece> having;    // HAVING conjuncts
  std::vector<Piece> order_by;  // ORDER BY keys (bag compare ignores order,
                                // but ORDER BY exercises Sort plumbing)
};

std::string RenderSql(const QuerySpec& spec);

/// Seeded random query generator over the difftest catalog's schema
/// (difftest/dataset.h). Covers the paper's subquery taxonomy: correlated
/// scalar subqueries (SELECT list and WHERE), EXISTS/NOT EXISTS, IN/NOT IN,
/// quantified ANY/ALL, outer joins, scalar and vector GroupBy with HAVING,
/// and SegmentApply-eligible self-correlations. A quarter of the queries
/// list 3-5 tables in a comma FROM clause whose WHERE predicates form a
/// chain, a star or a cycle, a disconnected pair, or inner joins beside a
/// LEFT JOIN: the join graphs join enumeration reorders. Select lists and
/// GROUP BY keys mix int64 and double in CASE branches (some NULL) and in
/// arithmetic, and a UNION ALL derived table has an int64 and a double
/// side: the binder's result-type rules. Deterministic per seed.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : state_(seed * 2 + 1) {}

  QuerySpec Generate();

  /// Raw RNG surface (splitmix64), public so generation helpers in the
  /// implementation file can share the stream.
  uint64_t Next();
  int Uniform(int n);
  bool Chance(int num, int den);

 private:
  uint64_t state_;
  int alias_counter_ = 0;
};

}  // namespace orq

#endif  // ORQ_DIFFTEST_QGEN_H_
