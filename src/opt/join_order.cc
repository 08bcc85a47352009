#include "opt/join_order.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "algebra/expr_util.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/join_choice.h"

namespace orq {

namespace {

/// A set of cluster inputs, bit i standing for input i.
using RelSet = uint64_t;
constexpr int kMaxClusterRelations = 64;
/// Clusters with more inputs than this are ordered greedily (GOO).
constexpr int kMaxDpRelations = 10;

RelSet Bit(int i) { return RelSet{1} << i; }
int Lowest(RelSet s) { return __builtin_ctzll(s); }
int Count(RelSet s) { return __builtin_popcountll(s); }
/// Inputs 0..i.
RelSet UpTo(int i) { return i >= 63 ? ~RelSet{0} : Bit(i + 1) - 1; }

bool IsInnerJoin(const RelExpr& node) {
  return node.kind == RelKind::kJoin &&
         (node.join_kind == JoinKind::kInner ||
          node.join_kind == JoinKind::kCross);
}

/// Inner joins, and filters over them, form a cluster.
bool IsClusterRoot(const RelExprPtr& node) {
  if (IsInnerJoin(*node)) return true;
  return node->kind == RelKind::kSelect && IsClusterRoot(node->children[0]);
}

bool IsColEqCol(const ScalarExprPtr& e) {
  return e->kind == ScalarKind::kCompare && e->cmp == CompareOp::kEq &&
         e->children[0]->kind == ScalarKind::kColumnRef &&
         e->children[1]->kind == ScalarKind::kColumnRef;
}

/// True when `leaf` already filters on `a = b` (either way round).
bool LeafEquates(const RelExprPtr& leaf, ColumnId a, ColumnId b) {
  if (leaf->kind != RelKind::kSelect) return false;
  for (const ScalarExprPtr& c : SplitConjuncts(leaf->predicate)) {
    if (!IsColEqCol(c)) continue;
    ColumnId x = c->children[0]->column;
    ColumnId y = c->children[1]->column;
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

RelExprPtr AddFilter(const RelExprPtr& leaf,
                     std::vector<ScalarExprPtr> conjuncts) {
  if (conjuncts.empty()) return leaf;
  if (leaf->kind == RelKind::kSelect) {
    conjuncts.insert(conjuncts.begin(), leaf->predicate);
    return MakeSelect(leaf->children[0], MakeAnd(std::move(conjuncts)));
  }
  return MakeSelect(leaf, MakeAnd(std::move(conjuncts)));
}

/// The inputs and conjuncts of one inner-join cluster.
struct Cluster {
  std::vector<RelExprPtr> leaves;
  std::vector<ScalarExprPtr> conjuncts;
};

/// Orders one cluster: join graph, DPccp or GOO, then materialization of
/// the chosen tree.
class ClusterSolver {
 public:
  ClusterSolver(const Cluster& cluster, ColumnManager* columns,
                CostModel* cost)
      : columns_(columns), cost_(cost), leaves_(cluster.leaves) {
    n_ = static_cast<int>(leaves_.size());
    all_ = n_ >= 64 ? ~RelSet{0} : Bit(n_) - 1;
    Analyze(cluster.conjuncts);
  }

  /// The cheapest tree found, or null when the inputs share a column id;
  /// `*greedy` reports whether GOO chose any join of it.
  RelExprPtr Solve(bool* greedy) {
    if (!valid_) return nullptr;
    for (int i = 0; i < n_; ++i) {
      const PlanEstimate& e = cost_->Estimate(leaves_[i]);
      plans_[Bit(i)] = Plan{e.rows, e.cost, 0, 0};
    }
    std::vector<RelSet> parts;
    if (n_ <= kMaxDpRelations) {
      Dpccp();
      parts = Components();
    } else {
      for (int i = 0; i < n_; ++i) parts.push_back(Bit(i));
    }
    *greedy = parts.size() > 1;
    Goo(std::move(parts));
    return Build(all_);
  }

 private:
  /// Best plan found for a set of inputs; `left`/`right` are its probe and
  /// build halves (both 0 for a single input). A negative cost marks a set
  /// not planned yet.
  struct Plan {
    double rows = 0.0;
    double cost = -1.0;
    RelSet left = 0;
    RelSet right = 0;
  };

  /// Columns equated across inputs. Per input, its lowest-id member keys
  /// that input's side of a join (the input equates its other members).
  struct EqClass {
    RelSet inputs = 0;
    std::vector<ColumnId> key;      // per input, -1 when absent
    std::vector<double> distinct;   // per input, of `key`
  };

  /// A conjunct other than a cross-input column equality; it is applied at
  /// the first join that covers `inputs`.
  struct Conjunct {
    ScalarExprPtr expr;
    RelSet inputs = 0;
  };

  void Analyze(const std::vector<ScalarExprPtr>& conjuncts) {
    // The input producing each column id (ids are dense), -1 for none.
    std::vector<int> owner(columns_->size(), -1);
    for (int i = 0; i < n_; ++i) {
      for (ColumnId id : leaves_[i]->OutputColumns()) {
        // Two inputs producing one id cannot be told apart: leave the
        // cluster as written.
        if (owner[id] >= 0) return;
        owner[id] = i;
      }
    }
    valid_ = true;
    adjacent_.assign(n_, 0);
    std::vector<std::vector<ScalarExprPtr>> filters(n_);
    std::map<ColumnId, ColumnId> parent;  // union-find over equated columns
    auto find = [&parent](ColumnId id) {
      while (parent.at(id) != id) {
        id = parent.at(id) = parent.at(parent.at(id));
      }
      return id;
    };
    for (const ScalarExprPtr& c : conjuncts) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      RelSet inputs = 0;
      for (ColumnId id : refs) {
        if (id >= 0 && static_cast<size_t>(id) < owner.size() &&
            owner[id] >= 0) {
          inputs |= Bit(owner[id]);
        }
      }
      if (Count(inputs) == 1) {
        filters[Lowest(inputs)].push_back(c);
        continue;
      }
      if (Count(inputs) == 2 && IsColEqCol(c)) {  // both sides owned
        ColumnId a = c->children[0]->column;
        ColumnId b = c->children[1]->column;
        parent.emplace(a, a);
        parent.emplace(b, b);
        parent[find(a)] = find(b);
        continue;
      }
      // Outer references and constants only: apply at the cluster's top.
      if (inputs == 0) inputs = all_;
      if (Count(inputs) == 2) {
        adjacent_[Lowest(inputs)] |= inputs;
        adjacent_[63 - __builtin_clzll(inputs)] |= inputs;
      }
      conjuncts_.push_back(Conjunct{c, inputs});
    }
    // Equivalence classes, in column-id order of their first member.
    std::map<ColumnId, size_t> class_of_root;
    for (const auto& [id, unused] : parent) {
      ColumnId root = find(id);
      auto [it, inserted] = class_of_root.emplace(root, classes_.size());
      if (inserted) {
        classes_.push_back(EqClass{0, std::vector<ColumnId>(n_, -1),
                                   std::vector<double>(n_, 0.0)});
      }
      EqClass& cls = classes_[it->second];
      const int i = owner[id];
      ColumnId& key = cls.key[i];
      if (key >= 0) {
        // A second member in one input: the input itself must equate
        // them, or the one key per join would lose the equality.
        if (!LeafEquates(leaves_[i], key, id)) {
          filters[i].push_back(
              Eq(CRef(*columns_, key), CRef(*columns_, id)));
        }
      }
      cls.inputs |= Bit(i);
      if (key < 0) key = id;
    }
    for (int i = 0; i < n_; ++i) {
      leaves_[i] = AddFilter(leaves_[i], std::move(filters[i]));
    }
    for (EqClass& cls : classes_) {
      for (int i = 0; i < n_; ++i) {
        if (cls.key[i] < 0) continue;
        adjacent_[i] |= cls.inputs & ~Bit(i);
        cls.distinct[i] = cost_->EstimateDistinct(leaves_[i], cls.key[i]);
      }
    }
    for (int i = 0; i < n_; ++i) adjacent_[i] &= ~Bit(i);
  }

  RelSet Neighbors(RelSet s, RelSet excluded) const {
    RelSet out = 0;
    for (RelSet rest = s; rest != 0; rest &= rest - 1) {
      out |= adjacent_[Lowest(rest)];
    }
    return out & ~s & ~excluded;
  }

  /// The input of `s` keying class `cls` (fewest distinct values).
  int KeyInput(const EqClass& cls, RelSet s) const {
    int best = -1;
    for (RelSet rest = s & cls.inputs; rest != 0; rest &= rest - 1) {
      int i = Lowest(rest);
      if (best < 0 || cls.distinct[i] < cls.distinct[best]) best = i;
    }
    return best;
  }

  /// `l` probing, `r` building: estimated rows and cost of the join.
  Plan Combine(RelSet l, RelSet r) const {
    const Plan& a = plans_.at(l);
    const Plan& b = plans_.at(r);
    double sel = 1.0;
    // Hash or nested loops by ChooseJoin's key rule: Build's column
    // equality per class always keys the join, and a placed conjunct does
    // when EquiKey accepts it (`a + 1 = b`).
    bool hash = false;
    for (const EqClass& cls : classes_) {
      if ((cls.inputs & l) == 0 || (cls.inputs & r) == 0) continue;
      sel *= EquiJoinSelectivity(cls.distinct[KeyInput(cls, l)], a.rows,
                                 cls.distinct[KeyInput(cls, r)], b.rows);
      hash = true;
    }
    for (const Conjunct& c : conjuncts_) {
      if (!Places(c, l, r)) continue;
      sel *= kJoinResidualSelectivity;
      hash = hash ||
             EquiKey(c.expr, Columns(l), Columns(r)).has_value();
    }
    const double rows = std::max(1.0, a.rows * b.rows * sel);
    return Plan{rows,
                JoinOperatorCost({a.rows, a.cost}, {b.rows, b.cost}, rows,
                                 hash),
                l, r};
  }

  /// The output columns of the inputs in `s`.
  ColumnSet Columns(RelSet s) const {
    ColumnSet out;
    for (RelSet rest = s; rest != 0; rest &= rest - 1) {
      out.AddAll(leaves_[Lowest(rest)]->OutputSet());
    }
    return out;
  }

  /// `c` applies at the join of `l` and `r` when neither half covers it.
  static bool Places(const Conjunct& c, RelSet l, RelSet r) {
    return (c.inputs & ~(l | r)) == 0 && (c.inputs & ~l) != 0 &&
           (c.inputs & ~r) != 0;
  }

  /// The cheaper orientation of `s1` joined with `s2`.
  Plan BestOrientation(RelSet s1, RelSet s2) const {
    Plan a = Combine(s1, s2);
    Plan b = Combine(s2, s1);
    return b.cost < a.cost ? b : a;
  }

  void Consider(RelSet s1, RelSet s2) {
    Plan p = BestOrientation(s1, s2);
    Plan& slot = plans_[s1 | s2];
    if (slot.cost < 0 || p.cost < slot.cost) slot = p;
  }

  // ---- DPccp: every connected subgraph / connected complement pair ----

  void Dpccp() {
    for (int i = n_ - 1; i >= 0; --i) {
      EmitCsg(Bit(i));
      EnumerateCsgRec(Bit(i), UpTo(i));
    }
    // Pairs in order of joined size: every smaller set is final before a
    // larger one reads it.
    std::stable_sort(pairs_.begin(), pairs_.end(),
                     [](const auto& a, const auto& b) {
                       return Count(a.first | a.second) <
                              Count(b.first | b.second);
                     });
    for (const auto& [s1, s2] : pairs_) Consider(s1, s2);
  }

  template <typename Fn>
  static void ForEachSubset(RelSet set, Fn fn) {
    for (RelSet sub = set; sub != 0; sub = (sub - 1) & set) fn(sub);
  }

  void EnumerateCsgRec(RelSet s, RelSet excluded) {
    const RelSet n = Neighbors(s, excluded);
    if (n == 0) return;
    ForEachSubset(n, [&](RelSet sub) { EmitCsg(s | sub); });
    ForEachSubset(n, [&](RelSet sub) {
      EnumerateCsgRec(s | sub, excluded | n);
    });
  }

  void EmitCsg(RelSet s1) {
    const RelSet excluded = s1 | UpTo(Lowest(s1));
    const RelSet n = Neighbors(s1, excluded);
    for (int i = n_ - 1; i >= 0; --i) {
      if ((n & Bit(i)) == 0) continue;
      pairs_.emplace_back(s1, Bit(i));
      EnumerateCmpRec(s1, Bit(i), excluded | (UpTo(i) & n));
    }
  }

  void EnumerateCmpRec(RelSet s1, RelSet s2, RelSet excluded) {
    const RelSet n = Neighbors(s2, excluded);
    if (n == 0) return;
    ForEachSubset(n, [&](RelSet sub) {
      pairs_.emplace_back(s1, s2 | sub);
    });
    ForEachSubset(n, [&](RelSet sub) {
      EnumerateCmpRec(s1, s2 | sub, excluded | n);
    });
  }

  /// Maximal connected input sets; DPccp has planned each.
  std::vector<RelSet> Components() const {
    std::vector<RelSet> out;
    RelSet seen = 0;
    for (int i = 0; i < n_; ++i) {
      if (seen & Bit(i)) continue;
      RelSet comp = Bit(i);
      for (RelSet grow = Neighbors(comp, 0); grow != 0;
           grow = Neighbors(comp, 0)) {
        comp |= grow;
      }
      seen |= comp;
      out.push_back(comp);
    }
    return out;
  }

  /// Greedy operator ordering: repeatedly join the two parts whose join is
  /// smallest, preferring connected pairs to cross products.
  void Goo(std::vector<RelSet> parts) {
    while (parts.size() > 1) {
      bool any_connected = false;
      for (size_t i = 0; i < parts.size() && !any_connected; ++i) {
        any_connected = Neighbors(parts[i], 0) != 0;
      }
      size_t best_i = 0, best_j = 1;
      Plan best;
      bool found = false;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = i + 1; j < parts.size(); ++j) {
          if (any_connected && (Neighbors(parts[i], 0) & parts[j]) == 0) {
            continue;
          }
          Plan p = BestOrientation(parts[i], parts[j]);
          if (!found || p.rows < best.rows ||
              (p.rows == best.rows && p.cost < best.cost)) {
            best = p;
            best_i = i;
            best_j = j;
            found = true;
          }
        }
      }
      plans_[best.left | best.right] = best;
      parts[best_i] |= parts[best_j];
      parts.erase(parts.begin() + best_j);
    }
  }

  // ---- materialization of the chosen tree ----

  RelExprPtr Build(RelSet s) const {
    if (Count(s) == 1) return leaves_[Lowest(s)];
    const Plan& p = plans_.at(s);
    std::vector<ScalarExprPtr> predicate;
    for (const EqClass& cls : classes_) {
      if ((cls.inputs & p.left) == 0 || (cls.inputs & p.right) == 0) {
        continue;
      }
      predicate.push_back(
          Eq(CRef(*columns_, cls.key[KeyInput(cls, p.left)]),
             CRef(*columns_, cls.key[KeyInput(cls, p.right)])));
    }
    for (const Conjunct& c : conjuncts_) {
      if (Places(c, p.left, p.right)) predicate.push_back(c.expr);
    }
    return MakeJoin(JoinKind::kInner, Build(p.left), Build(p.right),
                    MakeAnd(std::move(predicate)));
  }

  ColumnManager* columns_;
  CostModel* cost_;
  std::vector<RelExprPtr> leaves_;
  int n_ = 0;
  RelSet all_ = 0;
  bool valid_ = false;
  std::vector<RelSet> adjacent_;
  std::vector<EqClass> classes_;
  std::vector<Conjunct> conjuncts_;
  std::unordered_map<RelSet, Plan> plans_;  // by input set
  std::vector<std::pair<RelSet, RelSet>> pairs_;
};

class JoinOrderer {
 public:
  JoinOrderer(ColumnManager* columns, CostModel* cost, TraceLog* trace)
      : columns_(columns), cost_(cost), trace_(trace) {}

  RelExprPtr Order(const RelExprPtr& node) {
    auto memo = memo_.find(node.get());
    if (memo != memo_.end()) return memo->second;
    RelExprPtr out;
    if (IsClusterRoot(node)) {
      Cluster cluster;
      Collect(node, &cluster);
      const int64_t start = Start();
      bool greedy = false;
      out = Solve(cluster, &greedy);
      if (out == nullptr) out = node;
      Record(node, out, greedy, start);
    } else if (node->kind == RelKind::kJoin &&
               (node->join_kind == JoinKind::kLeftSemi ||
                node->join_kind == JoinKind::kLeftAnti) &&
               IsClusterRoot(node->children[0])) {
      out = OrderFilterJoin(node);
    } else {
      std::vector<RelExprPtr> children;
      bool changed = false;
      for (const RelExprPtr& child : node->children) {
        children.push_back(Order(child));
        changed |= children.back() != child;
      }
      out = changed ? CloneWithChildren(*node, std::move(children)) : node;
    }
    memo_.emplace(node.get(), out);
    return out;
  }

 private:
  void Collect(const RelExprPtr& node, Cluster* cluster) {
    if (IsClusterRoot(node)) {
      for (ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
        if (!IsTrueLiteral(c)) cluster->conjuncts.push_back(std::move(c));
      }
      for (const RelExprPtr& child : node->children) Collect(child, cluster);
      return;
    }
    cluster->leaves.push_back(Order(node));
  }

  /// The cluster rebuilt in its cheapest order; null when it cannot be
  /// ordered (too many inputs, or inputs sharing a column id).
  RelExprPtr Solve(const Cluster& cluster, bool* greedy) {
    *greedy = false;
    if (static_cast<int>(cluster.leaves.size()) > kMaxClusterRelations) {
      return nullptr;
    }
    return ClusterSolver(cluster, columns_, cost_).Solve(greedy);
  }

  /// One phase event per ordered cluster: the enumerator that chose its
  /// order, node counts, estimated costs and the wall time since `start`.
  void Record(const RelExprPtr& original, const RelExprPtr& out,
              bool greedy, int64_t start) {
    if (trace_ != nullptr) {
      TraceEvent event{TraceEvent::Stage::kOptimize, TraceEvent::Kind::kPhase,
                       greedy ? "join_order_goo" : "join_order_dpccp",
                       CountRelNodes(*original), CountRelNodes(*out),
                       cost_->Estimate(original).cost,
                       cost_->Estimate(out).cost};
      event.wall_nanos = ObsNowNanos() - start;
      trace_->Record(std::move(event));
    }
  }

  int64_t Start() const { return trace_ != nullptr ? ObsNowNanos() : 0; }

  /// A semi/anti join over a cluster filters the cluster's rows by the
  /// columns its predicate reads. When those all come from one input, the
  /// filter may equally run on that input before the joins (§2.4's
  /// semijoin handling on the join graph); keep whichever tree is cheaper.
  /// A cluster that cannot be ordered keeps the filter above it.
  RelExprPtr OrderFilterJoin(const RelExprPtr& node) {
    Cluster cluster;
    Collect(node->children[0], &cluster);
    RelExprPtr right = Order(node->children[1]);
    const int64_t start = Start();
    bool greedy = false;
    RelExprPtr ordered = Solve(cluster, &greedy);
    RelExprPtr out = MakeJoin(node->join_kind,
                              ordered != nullptr ? ordered : node->children[0],
                              right, node->predicate);
    int reader = SoleReader(cluster, node->predicate);
    if (ordered != nullptr && reader >= 0) {
      Cluster sunk = cluster;
      sunk.leaves[reader] = MakeJoin(
          node->join_kind, cluster.leaves[reader], right, node->predicate);
      bool sunk_greedy = false;
      RelExprPtr below = Solve(sunk, &sunk_greedy);
      if (below != nullptr &&
          cost_->Estimate(below).cost < cost_->Estimate(out).cost) {
        out = below;
        greedy = sunk_greedy;
      }
    }
    Record(node, out, greedy, start);
    return out;
  }

  /// The one cluster input `predicate` reads, or -1 when it reads none or
  /// several.
  static int SoleReader(const Cluster& cluster,
                        const ScalarExprPtr& predicate) {
    ColumnSet refs;
    CollectColumnRefsDeep(predicate, &refs);
    int reader = -1;
    for (size_t i = 0; i < cluster.leaves.size(); ++i) {
      if (!refs.Intersects(cluster.leaves[i]->OutputSet())) continue;
      if (reader >= 0) return -1;
      reader = static_cast<int>(i);
    }
    return reader;
  }

  ColumnManager* columns_;
  CostModel* cost_;
  TraceLog* trace_;
  // Keys are nodes of the input tree, which the caller keeps alive for the
  // whole pass, so their addresses cannot be recycled.
  std::unordered_map<const RelExpr*, RelExprPtr> memo_;
};

}  // namespace

RelExprPtr OrderJoins(const RelExprPtr& root, ColumnManager* columns,
                      CostModel* cost, TraceLog* trace) {
  JoinOrderer orderer(columns, cost, trace);
  return orderer.Order(root);
}

}  // namespace orq
