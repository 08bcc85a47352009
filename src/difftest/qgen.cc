#include "difftest/qgen.h"

namespace orq {

namespace {

// ---- schema model (mirrors difftest/dataset.cc) ----------------------

struct ColDef {
  const char* name;
  char kind;  // 'i' int64, 'f' double, 's' string, 'd' date
};

struct TblDef {
  const char* name;
  std::vector<ColDef> cols;
  const char* key;  // single-column integer key ("" = composite/none)
  int rows;         // approximate row count
};

const std::vector<TblDef>& Tables() {
  static const std::vector<TblDef> kTables = {
      {"nation",
       {{"n_nationkey", 'i'}, {"n_name", 's'}, {"n_regionkey", 'i'}},
       "n_nationkey",
       6},
      {"customer",
       {{"c_custkey", 'i'},
        {"c_name", 's'},
        {"c_nationkey", 'i'},
        {"c_acctbal", 'f'},
        {"c_mktsegment", 's'}},
       "c_custkey",
       15},
      {"orders",
       {{"o_orderkey", 'i'},
        {"o_custkey", 'i'},
        {"o_totalprice", 'f'},
        {"o_orderdate", 'd'},
        {"o_shippriority", 'i'}},
       "o_orderkey",
       40},
      {"lineitem",
       {{"l_orderkey", 'i'},
        {"l_linenumber", 'i'},
        {"l_partkey", 'i'},
        {"l_quantity", 'f'},
        {"l_extendedprice", 'f'},
        {"l_shipdate", 'd'},
        {"l_returnflag", 's'}},
       "",
       100},
      {"part",
       {{"p_partkey", 'i'}, {"p_brand", 's'}, {"p_size", 'i'}, {"p_retailprice", 'f'}},
       "p_partkey",
       12},
  };
  return kTables;
}

const TblDef* FindTable(const std::string& name) {
  for (const TblDef& t : Tables()) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

/// Foreign-key edges (child.col references parent.col). Correlated
/// subqueries are generated along these so they sometimes match, sometimes
/// hit empty groups (dangling keys), sometimes hit NULL keys.
struct Edge {
  const char* child_tbl;
  const char* child_col;
  const char* parent_tbl;
  const char* parent_col;
};

const std::vector<Edge>& Edges() {
  static const std::vector<Edge> kEdges = {
      {"orders", "o_custkey", "customer", "c_custkey"},
      {"lineitem", "l_orderkey", "orders", "o_orderkey"},
      {"lineitem", "l_partkey", "part", "p_partkey"},
      {"customer", "c_nationkey", "nation", "n_nationkey"},
  };
  return kEdges;
}

/// Segment columns: correlating a table with itself on these yields the
/// SegmentApply-eligible shapes of paper section 3.4.
struct SelfEdge {
  const char* tbl;
  const char* col;
};

const std::vector<SelfEdge>& SelfEdges() {
  static const std::vector<SelfEdge> kSelf = {
      {"lineitem", "l_orderkey"},
      {"orders", "o_custkey"},
      {"customer", "c_nationkey"},
  };
  return kSelf;
}

struct ScopeEntry {
  std::string alias;
  const TblDef* table;
};

std::string Q(const ScopeEntry& e, const char* col) {
  return e.alias + "." + col;
}

}  // namespace

// ---- rng -------------------------------------------------------------

uint64_t QueryGenerator::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int QueryGenerator::Uniform(int n) { return static_cast<int>(Next() % n); }

bool QueryGenerator::Chance(int num, int den) { return Uniform(den) < num; }

// ---- generation ------------------------------------------------------

namespace {

/// Bounds on a join graph's cross product (the naive reference nests over
/// all of it): overall, and when WHERE may hold subqueries, which that
/// reference evaluates once per cross-product row.
constexpr double kMaxCrossRows = 100000;
constexpr double kMaxCrossRowsWithSubqueries = 5000;

/// Everything below is stateless helpers taking the generator through a
/// tiny interface so they stay free functions.
struct Gen {
  QueryGenerator* g;
  int* alias_counter;
  int depth = 0;  // subquery nesting depth

  int U(int n) const { return gPick(n); }
  int gPick(int n) const;
  bool C(int num, int den) const;
  std::string NewAlias() const {
    return "q" + std::to_string((*alias_counter)++);
  }

  const ColDef* PickCol(const TblDef& t, const char* kinds) const {
    std::vector<const ColDef*> matching;
    for (const ColDef& c : t.cols) {
      for (const char* k = kinds; *k; ++k) {
        if (c.kind == *k) matching.push_back(&c);
      }
    }
    if (matching.empty()) return nullptr;
    return matching[U(static_cast<int>(matching.size()))];
  }

  std::string Literal(const ColDef& col) const {
    switch (col.kind) {
      case 'i': {
        // Keys are dense and small; sizes go to 50.
        if (std::string(col.name) == "p_size") return std::to_string(U(50));
        if (std::string(col.name) == "o_shippriority" ||
            std::string(col.name) == "n_regionkey") {
          return std::to_string(U(4));
        }
        if (std::string(col.name) == "l_linenumber") {
          return std::to_string(1 + U(4));
        }
        return std::to_string(U(24));
      }
      case 'f': {
        static const char* kPrices[] = {"0.0",   "1.5",   "42.25",
                                        "100.0", "850.5", "-17.5"};
        if (std::string(col.name) == "l_quantity") {
          return std::to_string(1 + U(10)) + ".0";
        }
        return kPrices[U(6)];
      }
      case 'd': {
        static const char* kDates[] = {"date '1995-06-17'",
                                       "date '1996-01-01'",
                                       "date '1997-03-15'",
                                       "date '1995-01-01'"};
        return kDates[U(4)];
      }
      case 's':
      default: {
        std::string name = col.name;
        if (name == "c_mktsegment") {
          static const char* kSegs[] = {"'AUTOMOBILE'", "'BUILDING'",
                                        "'FURNITURE'", "'MACHINERY'"};
          return kSegs[U(4)];
        }
        if (name == "l_returnflag") {
          static const char* kFlags[] = {"'A'", "'N'", "'R'"};
          return kFlags[U(3)];
        }
        if (name == "p_brand") {
          static const char* kBrands[] = {"'Brand#11'", "'Brand#12'",
                                          "'Brand#21'", "'Brand#22'"};
          return kBrands[U(4)];
        }
        if (name == "n_name") return "'NATION_" + std::to_string(U(6)) + "'";
        return "'Customer#" + std::to_string(U(15)) + "'";
      }
    }
  }

  std::string CmpOp() const {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[U(6)];
  }

  std::string Agg(const ScopeEntry& e) const {
    int roll = U(10);
    if (roll < 2) return "count(*)";
    const ColDef* col = PickCol(*e.table, "if");
    if (col == nullptr) return "count(*)";
    static const char* kFuncs[] = {"count", "sum", "min", "max", "avg"};
    return std::string(kFuncs[U(5)]) + "(" + Q(e, col->name) + ")";
  }

  /// Simple predicate over in-scope columns: comparisons, IS NULL,
  /// IN-list, occasionally column-to-column.
  std::string SimplePred(const std::vector<ScopeEntry>& scope) const {
    const ScopeEntry& e = scope[U(static_cast<int>(scope.size()))];
    const ColDef* col = &e.table->cols[U(static_cast<int>(e.table->cols.size()))];
    int roll = U(10);
    if (roll < 1) {
      return Q(e, col->name) +
             (C(1, 2) ? " is null" : " is not null");
    }
    if (roll < 3 && col->kind == 'i') {
      std::string list = Literal(*col);
      int n = 1 + U(3);
      for (int i = 0; i < n; ++i) list += ", " + Literal(*col);
      return Q(e, col->name) + (C(1, 3) ? " not in (" : " in (") + list + ")";
    }
    if (roll < 4) {
      // Column-to-column within scope (same kind).
      const ScopeEntry& e2 = scope[U(static_cast<int>(scope.size()))];
      const ColDef* col2 = PickCol(*e2.table, std::string(1, col->kind).c_str());
      if (col2 != nullptr) {
        return Q(e, col->name) + " " + CmpOp() + " " + Q(e2, col2->name);
      }
    }
    if (roll < 5 && (col->kind == 'i' || col->kind == 'f')) {
      // Small arithmetic on the column side.
      return Q(e, col->name) + " + 1 " + CmpOp() + " " + Literal(*col);
    }
    return Q(e, col->name) + " " + CmpOp() + " " + Literal(*col);
  }

  /// An int64 (`kind` 'i') or double ('f') operand over `scope`: a column
  /// of that kind when one is in scope, else a literal.
  std::string NumOperand(const std::vector<ScopeEntry>& scope,
                         char kind) const {
    const ScopeEntry& e = scope[U(static_cast<int>(scope.size()))];
    const ColDef* col = PickCol(*e.table, std::string(1, kind).c_str());
    if (col != nullptr && C(2, 3)) return Q(e, col->name);
    static const char* kInts[] = {"2", "7", "-3", "0"};
    static const char* kDoubles[] = {"2.5", "0.5", "-1.25", "100.0"};
    return kind == 'i' ? kInts[U(4)] : kDoubles[U(4)];
  }

  /// int64 with double arithmetic (no division), e.g. `t0.p_size * 1.5`.
  std::string MixedArith(const std::vector<ScopeEntry>& scope) const {
    static const char* kOps[] = {" + ", " - ", " * "};
    std::string a = NumOperand(scope, 'i');
    std::string b = NumOperand(scope, 'f');
    if (C(1, 2)) std::swap(a, b);
    return "(" + a + kOps[U(3)] + b + ")";
  }

  /// A CASE whose branches are int64 and double, or one of them and NULL
  /// (a NULL first branch, or no ELSE): the result type is their common
  /// type, double or the one typed branch's.
  std::string MixedCase(const std::vector<ScopeEntry>& scope) const {
    std::string a = C(1, 3) ? MixedArith(scope) : NumOperand(scope, 'i');
    std::string b = NumOperand(scope, 'f');
    if (C(1, 2)) std::swap(a, b);
    const std::string when = "case when " + SimplePred(scope) + " then ";
    switch (U(4)) {
      case 0: return when + "null else " + b + " end";
      case 1: return when + a + " end";
      case 2:
        return when + a + " when " + SimplePred(scope) + " then null else " +
               b + " end";
      default: return when + a + " else " + b + " end";
    }
  }

  /// A derived table `(select x as v from ... union all select y from
  /// ...)` over an int64 and a double column (uncorrelated), which the set
  /// operation widens to double; joined on `v` to a numeric column of `to`.
  QuerySpec::Join DerivedUnion(const ScopeEntry& to,
                               const std::string& alias) const {
    const bool int_first = C(1, 2);
    std::string col;
    std::string sides = SubSelectBody({}, int_first ? 'i' : 'f', &col);
    sides.insert(std::string("select ").size() + col.size(), " as v");
    sides += " union all " + SubSelectBody({}, int_first ? 'f' : 'i', &col);
    QuerySpec::Join join;
    join.left_outer = C(1, 3);
    join.table = "(" + sides + ")";
    join.alias = alias;
    join.on = alias + ".v = " + Q(to, PickCol(*to.table, "if")->name);
    return join;
  }

  /// An optional extra predicate inside a subquery body (may nest further
  /// subqueries while depth allows).
  std::string SubqueryBodyPred(const std::vector<ScopeEntry>& scope) const {
    if (depth < 2 && C(15, 100)) {
      Gen nested{g, alias_counter, depth + 1};
      return nested.SubqueryPred(scope);
    }
    return SimplePred(scope);
  }

  /// EXISTS / IN / quantified / scalar-compare predicate whose right-hand
  /// side is a subquery correlated with `scope` (or deliberately
  /// uncorrelated).
  std::string SubqueryPred(const std::vector<ScopeEntry>& scope) const {
    int roll = U(100);
    if (roll < 30) return ExistsPred(scope);
    if (roll < 55) return InSubqueryPred(scope);
    if (roll < 65) return QuantifiedPred(scope);
    return ScalarComparePred(scope);
  }

  /// Picks (sub table, correlation conjunct) options for `scope`:
  /// fk edges in both directions plus self-correlation (segment shapes).
  struct SubLink {
    const TblDef* table;           // subquery's table
    std::string correlation;       // rendered conjunct, "" if none
  };
  SubLink PickLink(const std::vector<ScopeEntry>& scope,
                   const std::string& sub_alias) const {
    struct Option {
      const TblDef* table;
      const char* sub_col;
      std::string outer_col;
    };
    std::vector<Option> options;
    for (const ScopeEntry& e : scope) {
      std::string t = e.table->name;
      for (const Edge& edge : Edges()) {
        if (t == edge.parent_tbl) {
          options.push_back({FindTable(edge.child_tbl), edge.child_col,
                             Q(e, edge.parent_col)});
        }
        if (t == edge.child_tbl) {
          options.push_back({FindTable(edge.parent_tbl), edge.parent_col,
                             Q(e, edge.child_col)});
        }
      }
      for (const SelfEdge& self : SelfEdges()) {
        if (t == self.tbl) {
          options.push_back({e.table, self.col, Q(e, self.col)});
        }
      }
    }
    if (options.empty() || C(15, 100)) {
      // Uncorrelated subquery over a random table.
      const TblDef& t = Tables()[U(static_cast<int>(Tables().size()))];
      return SubLink{&t, ""};
    }
    const Option& opt = options[U(static_cast<int>(options.size()))];
    return SubLink{opt.table,
                   sub_alias + "." + opt.sub_col + " = " + opt.outer_col};
  }

  std::string ExistsPred(const std::vector<ScopeEntry>& scope) const {
    std::string alias = NewAlias();
    SubLink link = PickLink(scope, alias);
    std::vector<ScopeEntry> sub_scope = {{alias, link.table}};
    std::string where;
    if (!link.correlation.empty()) where = link.correlation;
    if (C(2, 5)) {
      std::string extra = SubqueryBodyPred(sub_scope);
      where = where.empty() ? extra : where + " and " + extra;
    }
    std::string sql = std::string(C(2, 5) ? "not exists (" : "exists (") +
                      "select * from " + link.table->name + " " + alias;
    if (!where.empty()) sql += " where " + where;
    return sql + ")";
  }

  std::string SubSelectBody(const std::vector<ScopeEntry>& scope, char kind,
                            std::string* out_col_expr) const {
    std::string alias = NewAlias();
    SubLink link = PickLink(scope, alias);
    std::vector<ScopeEntry> sub_scope = {{alias, link.table}};
    const ColDef* col = PickCol(*link.table, std::string(1, kind).c_str());
    if (col == nullptr) col = &link.table->cols[0];
    *out_col_expr = alias + "." + col->name;
    std::string sql = "select " + *out_col_expr + " from " +
                      std::string(link.table->name) + " " + alias;
    std::string where;
    if (!link.correlation.empty()) where = link.correlation;
    if (C(2, 5)) {
      std::string extra = SubqueryBodyPred(sub_scope);
      where = where.empty() ? extra : where + " and " + extra;
    }
    if (!where.empty()) sql += " where " + where;
    return sql;
  }

  std::string InSubqueryPred(const std::vector<ScopeEntry>& scope) const {
    const ScopeEntry& e = scope[U(static_cast<int>(scope.size()))];
    const ColDef* probe = PickCol(*e.table, C(1, 4) ? "f" : "i");
    if (probe == nullptr) probe = &e.table->cols[0];
    std::string col_expr;
    std::string body = SubSelectBody(scope, probe->kind, &col_expr);
    // Occasionally a UNION ALL body: identity (5) territory.
    if (C(1, 8)) {
      std::string col2;
      Gen nested{g, alias_counter, depth + 1};
      body += " union all " + nested.SubSelectBody(scope, probe->kind, &col2);
    }
    return Q(e, probe->name) + (C(2, 5) ? " not in (" : " in (") + body + ")";
  }

  std::string QuantifiedPred(const std::vector<ScopeEntry>& scope) const {
    const ScopeEntry& e = scope[U(static_cast<int>(scope.size()))];
    const ColDef* probe = PickCol(*e.table, "i");
    if (probe == nullptr) probe = &e.table->cols[0];
    std::string col_expr;
    std::string body = SubSelectBody(scope, probe->kind, &col_expr);
    return Q(e, probe->name) + " " + CmpOp() + (C(1, 2) ? " any (" : " all (") +
           body + ")";
  }

  /// `(select agg(x) from child where child.fk = outer.key)` compared to an
  /// outer column or literal. Rarely generates a bare (non-aggregate)
  /// correlated scalar subquery, whose Max1row guard may trip at run time.
  std::string ScalarComparePred(const std::vector<ScopeEntry>& scope) const {
    std::string sub = ScalarSubquery(scope);
    const ScopeEntry& e = scope[U(static_cast<int>(scope.size()))];
    const ColDef* col = PickCol(*e.table, "if");
    if (col != nullptr && C(1, 2)) {
      return Q(e, col->name) + " " + CmpOp() + " " + sub;
    }
    static const char* kLits[] = {"0", "1", "3", "42.25", "100.0"};
    return sub + " " + CmpOp() + " " + kLits[U(5)];
  }

  /// Tables joinable to `e`: fk edges in both directions plus the
  /// self-correlation columns. `new_col` belongs to the joined table.
  struct Link {
    const TblDef* table;
    const char* new_col;
    std::string old_col;  // rendered, qualified by `e`'s alias
  };
  std::vector<Link> Links(const ScopeEntry& e) const {
    std::vector<Link> out;
    std::string t = e.table->name;
    for (const Edge& edge : Edges()) {
      if (t == edge.parent_tbl) {
        out.push_back({FindTable(edge.child_tbl), edge.child_col,
                       Q(e, edge.parent_col)});
      }
      if (t == edge.child_tbl) {
        out.push_back({FindTable(edge.parent_tbl), edge.parent_col,
                       Q(e, edge.child_col)});
      }
    }
    for (const SelfEdge& self : SelfEdges()) {
      if (t == self.tbl) out.push_back({e.table, self.col, Q(e, self.col)});
    }
    return out;
  }

  /// Appends a FROM table joined to `to` along a random link whose table
  /// keeps the cross product of all FROM tables within kMaxCrossRows (the
  /// naive reference nests over that product): as a comma item with its
  /// equality in WHERE, or (`join_kind` "join" / "left outer join") as an
  /// explicit join whose ON reads `to` only. False when no link fits.
  bool AddLinked(const ScopeEntry& to, int join_kind, QuerySpec* spec,
                 std::vector<ScopeEntry>* scope, double* cross_rows) const {
    std::vector<Link> links;
    for (Link& link : Links(to)) {
      if (*cross_rows * link.table->rows <= kMaxCrossRows) {
        links.push_back(std::move(link));
      }
    }
    if (links.empty()) return false;
    const Link& link = links[U(static_cast<int>(links.size()))];
    QuerySpec::Join join;
    join.table = link.table->name;
    join.alias = "t" + std::to_string(scope->size());
    std::string predicate = join.alias + "." + link.new_col + " = " +
                            link.old_col;
    join.comma = join_kind == 0;
    join.left_outer = join_kind == 2;
    if (join.comma) {
      spec->where.push_back({std::move(predicate), true});
    } else {
      join.on = std::move(predicate);
    }
    spec->joins.push_back(std::move(join));
    scope->push_back({spec->joins.back().alias, link.table});
    *cross_rows *= link.table->rows;
    return true;
  }

  /// Appends an unlinked comma item over a small table.
  void AddUnlinked(QuerySpec* spec, std::vector<ScopeEntry>* scope,
                   double* cross_rows) const {
    static const char* kSmall[] = {"nation", "part", "customer"};
    QuerySpec::Join join;
    join.comma = true;
    join.table = kSmall[U(3)];
    join.alias = "t" + std::to_string(scope->size());
    scope->push_back({join.alias, FindTable(join.table)});
    *cross_rows *= scope->back().table->rows;
    spec->joins.push_back(std::move(join));
  }

  /// Join graphs for join enumeration, starting from the base table in
  /// `scope`: a chain, star or cycle of 3-5 comma items; a disconnected
  /// pair, which needs a real cross product; or a comma item carrying a
  /// LEFT JOIN (and an inner join above it), which enumeration must keep
  /// whole. Returns the cross product of the FROM tables' sizes.
  double AddJoinGraph(QuerySpec* spec, std::vector<ScopeEntry>* scope) const {
    double cross_rows = (*scope)[0].table->rows;
    const size_t tables = 3 + U(3);
    auto grow = [&](bool star) {
      while (scope->size() < tables &&
             AddLinked(ScopeEntry(star ? (*scope)[0] : scope->back()), 0,
                       spec, scope, &cross_rows)) {
      }
    };
    switch (U(5)) {
      case 0:
        grow(/*star=*/false);
        break;
      case 1:
        grow(/*star=*/true);
        break;
      case 2: {  // cycle: a chain closed by an integer equality
        grow(/*star=*/false);
        const ScopeEntry& first = (*scope)[0];
        const ScopeEntry& last = scope->back();
        spec->where.push_back(
            {Q(last, PickCol(*last.table, "i")->name) + " = " +
                 Q(first, PickCol(*first.table, "i")->name),
             true});
        break;
      }
      case 3:  // disconnected: nothing links the base to a small table
        AddUnlinked(spec, scope, &cross_rows);
        if (C(1, 2)) {
          AddLinked(ScopeEntry((*scope)[0]), 0, spec, scope, &cross_rows);
        }
        break;
      default: {  // comma item beside a LEFT JOIN
        if (!AddLinked(ScopeEntry((*scope)[0]), 0, spec, scope,
                       &cross_rows)) {
          break;
        }
        const ScopeEntry item = scope->back();
        AddLinked(item, 2, spec, scope, &cross_rows);
        if (C(1, 2)) AddLinked(item, 1, spec, scope, &cross_rows);
        break;
      }
    }
    return cross_rows;
  }

  std::string ScalarSubquery(const std::vector<ScopeEntry>& scope) const {
    std::string alias = NewAlias();
    SubLink link = PickLink(scope, alias);
    std::vector<ScopeEntry> sub_scope = {{alias, link.table}};
    std::string item;
    if (C(1, 10) && link.table->key[0] != '\0' && !link.correlation.empty()) {
      // Bare column pinned by a (possibly non-unique) correlation: this is
      // the Max1row-guard shape; with a key-pinning correlation the guard
      // folds away, otherwise it can trip at run time on both paths.
      const ColDef* col = PickCol(*link.table, "if");
      item = Q(sub_scope[0], col == nullptr ? link.table->cols[0].name
                                            : col->name);
    } else {
      item = Agg(sub_scope[0]);
    }
    std::string sql = "(select " + item + " from " +
                      std::string(link.table->name) + " " + alias;
    std::string where;
    if (!link.correlation.empty()) where = link.correlation;
    if (C(2, 5)) {
      std::string extra = SubqueryBodyPred(sub_scope);
      where = where.empty() ? extra : where + " and " + extra;
    }
    if (!where.empty()) sql += " where " + where;
    return sql + ")";
  }
};

int Gen::gPick(int n) const { return g->Uniform(n); }

bool Gen::C(int num, int den) const { return gPick(den) < num; }

}  // namespace

QuerySpec QueryGenerator::Generate() {
  QuerySpec spec;
  Gen gen{this, &alias_counter_, 0};

  // FROM: base table, weighted toward the fact tables.
  static const char* kBases[] = {"orders",   "lineitem", "customer",
                                 "orders",   "lineitem", "customer",
                                 "part",     "nation"};
  spec.base_table = kBases[Uniform(8)];
  spec.base_alias = "t0";
  std::vector<ScopeEntry> scope = {{spec.base_alias, FindTable(spec.base_table)}};

  // A comma-FROM join graph, or 0-2 joins along fk edges touching the
  // scope.
  const bool join_graph = Chance(1, 4);
  const double cross_rows = join_graph ? gen.AddJoinGraph(&spec, &scope) : 0;
  int num_joins = join_graph ? 0 : Uniform(3);
  for (int j = 0; j < num_joins; ++j) {
    struct Option {
      const TblDef* table;
      const char* new_col;
      std::string old_col;
    };
    std::vector<Option> options;
    for (const ScopeEntry& e : scope) {
      std::string t = e.table->name;
      for (const Edge& edge : Edges()) {
        if (t == edge.parent_tbl) {
          options.push_back({FindTable(edge.child_tbl), edge.child_col,
                             Q(e, edge.parent_col)});
        }
        if (t == edge.child_tbl) {
          options.push_back({FindTable(edge.parent_tbl), edge.parent_col,
                             Q(e, edge.child_col)});
        }
      }
    }
    if (options.empty()) break;
    const Option& opt = options[Uniform(static_cast<int>(options.size()))];
    QuerySpec::Join join;
    join.left_outer = Chance(2, 5);
    join.table = opt.table->name;
    join.alias = "t" + std::to_string(j + 1);
    join.on = join.alias + "." + opt.new_col + " = " + opt.old_col;
    scope.push_back({join.alias, opt.table});
    spec.joins.push_back(std::move(join));
  }
  // The UNION ALL derived table's one column `v` is a double.
  static const TblDef kDerived = {"derived", {{"v", 'f'}}, "", 40};
  const ScopeEntry& to = scope[Uniform(static_cast<int>(scope.size()))];
  if (!join_graph && Chance(1, 6) && gen.PickCol(*to.table, "if")) {
    spec.joins.push_back(
        gen.DerivedUnion(to, "t" + std::to_string(scope.size())));
    scope.push_back({spec.joins.back().alias, &kDerived});
  }

  // GROUP BY (vector aggregation) or a plain select list.
  bool grouped = Chance(3, 10);
  if (grouped) {
    int num_keys = 1 + Uniform(2);
    for (int k = 0; k < num_keys; ++k) {
      const ScopeEntry& e = scope[Uniform(static_cast<int>(scope.size()))];
      const ColDef* col = gen.PickCol(*e.table, "isd");
      if (col == nullptr) col = &e.table->cols[0];
      std::string rendered = Q(e, col->name);
      bool duplicate = false;
      for (const QuerySpec::Piece& existing : spec.group_by) {
        duplicate |= existing.sql == rendered;
      }
      if (duplicate) continue;
      spec.group_by.push_back({rendered, true});
      spec.select_items.push_back({rendered, true});
    }
    if (Chance(1, 5)) {
      // A CASE grouping key, selected as the same expression.
      const std::string key = gen.MixedCase(scope);
      spec.group_by.push_back({key, true});
      spec.select_items.push_back({key, true});
    }
    int num_aggs = 1 + Uniform(2);
    for (int a = 0; a < num_aggs; ++a) {
      const ScopeEntry& e = scope[Uniform(static_cast<int>(scope.size()))];
      spec.select_items.push_back({gen.Agg(e), true});
    }
    if (Chance(1, 2)) {
      const ScopeEntry& e = scope[Uniform(static_cast<int>(scope.size()))];
      spec.having.push_back(
          {gen.Agg(e) + " " + gen.CmpOp() + " " +
               (Chance(1, 2) ? "1" : "100.0"),
           true});
    }
  } else {
    spec.distinct = Chance(3, 20);
    int num_items = 1 + Uniform(3);
    for (int i = 0; i < num_items; ++i) {
      const ScopeEntry& e = scope[Uniform(static_cast<int>(scope.size()))];
      const ColDef* col =
          &e.table->cols[Uniform(static_cast<int>(e.table->cols.size()))];
      spec.select_items.push_back({Q(e, col->name), true});
    }
    if (Chance(1, 4)) spec.select_items.push_back({gen.MixedCase(scope), true});
    if (Chance(1, 5)) {
      spec.select_items.push_back({gen.MixedArith(scope), true});
    }
    if (!spec.distinct && Chance(1, 4)) {
      // Correlated scalar subquery in the SELECT list.
      spec.select_items.push_back(
          {gen.ScalarSubquery(scope) + " as sub" +
               std::to_string(static_cast<int>(spec.select_items.size())),
           true});
    }
  }

  // WHERE: a mix of plain and subquery conjuncts.
  int num_conjuncts = Uniform(4);
  for (int c = 0; c < num_conjuncts; ++c) {
    const bool subquery = Chance(11, 20) &&
                          cross_rows <= kMaxCrossRowsWithSubqueries;
    std::string conjunct =
        subquery ? gen.SubqueryPred(scope) : gen.SimplePred(scope);
    spec.where.push_back({std::move(conjunct), true});
  }

  // ORDER BY on a scope column (bag compare ignores order; this just
  // exercises the Sort operator on both paths). Under DISTINCT the key
  // must be one of the output columns.
  if (!grouped && Chance(1, 4)) {
    std::string key;
    if (spec.distinct) {
      key = spec.select_items[Uniform(static_cast<int>(
                                  spec.select_items.size()))]
                .sql;
    } else {
      const ScopeEntry& e = scope[Uniform(static_cast<int>(scope.size()))];
      const ColDef* col = gen.PickCol(*e.table, "ifd");
      if (col != nullptr) key = Q(e, col->name);
    }
    if (!key.empty()) {
      spec.order_by.push_back({key + (Chance(1, 2) ? " desc" : ""), true});
    }
  }
  return spec;
}

std::string RenderSql(const QuerySpec& spec) {
  std::string sql = "select ";
  if (spec.distinct) sql += "distinct ";
  bool first = true;
  for (const QuerySpec::Piece& item : spec.select_items) {
    if (!item.enabled) continue;
    if (!first) sql += ", ";
    sql += item.sql;
    first = false;
  }
  if (first) sql += spec.select_items.empty() ? "1" : spec.select_items[0].sql;
  sql += " from " + spec.base_table + " " + spec.base_alias;
  for (const QuerySpec::Join& join : spec.joins) {
    if (!join.enabled) continue;
    if (join.comma) {
      sql += ", " + join.table + " " + join.alias;
      continue;
    }
    sql += join.left_outer ? " left outer join " : " join ";
    sql += join.table + " " + join.alias + " on " + join.on;
  }
  first = true;
  for (const QuerySpec::Piece& conjunct : spec.where) {
    if (!conjunct.enabled) continue;
    sql += first ? " where " : " and ";
    sql += conjunct.sql;
    first = false;
  }
  first = true;
  for (const QuerySpec::Piece& key : spec.group_by) {
    if (!key.enabled) continue;
    sql += first ? " group by " : ", ";
    sql += key.sql;
    first = false;
  }
  first = true;
  for (const QuerySpec::Piece& conjunct : spec.having) {
    if (!conjunct.enabled) continue;
    sql += first ? " having " : " and ";
    sql += conjunct.sql;
    first = false;
  }
  first = true;
  for (const QuerySpec::Piece& key : spec.order_by) {
    if (!key.enabled) continue;
    sql += first ? " order by " : ", ";
    sql += key.sql;
    first = false;
  }
  return sql;
}

}  // namespace orq
