#include "algebra/expr_util.h"

#include <functional>

#include "algebra/props.h"
#include "catalog/table.h"

namespace orq {

void CollectColumnRefs(const ScalarExprPtr& expr, ColumnSet* out) {
  if (expr == nullptr) return;
  if (expr->kind == ScalarKind::kColumnRef) out->Add(expr->column);
  for (const auto& child : expr->children) CollectColumnRefs(child, out);
}

void CollectColumnRefsDeep(const ScalarExprPtr& expr, ColumnSet* out) {
  if (expr == nullptr) return;
  if (expr->kind == ScalarKind::kColumnRef) out->Add(expr->column);
  for (const auto& child : expr->children) CollectColumnRefsDeep(child, out);
  if (expr->rel != nullptr) out->AddAll(FreeVariables(*expr->rel));
}

ColumnSet NodeScalarRefs(const RelExpr& node) {
  ColumnSet refs;
  CollectColumnRefsDeep(node.predicate, &refs);
  for (const ProjectItem& item : node.proj_items) {
    CollectColumnRefsDeep(item.expr, &refs);
  }
  for (const AggItem& agg : node.aggs) {
    CollectColumnRefsDeep(agg.arg, &refs);
  }
  for (const SortKey& key : node.sort_keys) {
    CollectColumnRefsDeep(key.expr, &refs);
  }
  refs.AddAll(node.group_cols);
  refs.AddAll(node.segment_cols);
  return refs;
}

ScalarExprPtr RemapColumns(const ScalarExprPtr& expr,
                           const std::map<ColumnId, ColumnId>& mapping) {
  std::map<ColumnId, ScalarExprPtr> subst;
  // Lazy conversion: build substitution only for referenced ids.
  std::function<ScalarExprPtr(const ScalarExprPtr&)> walk =
      [&](const ScalarExprPtr& e) -> ScalarExprPtr {
    if (e == nullptr) return nullptr;
    if (e->kind == ScalarKind::kColumnRef) {
      auto it = mapping.find(e->column);
      if (it == mapping.end()) return e;
      auto copy = std::make_shared<ScalarExpr>(*e);
      copy->column = it->second;
      return copy;
    }
    bool changed = false;
    std::vector<ScalarExprPtr> children;
    children.reserve(e->children.size());
    for (const auto& child : e->children) {
      ScalarExprPtr walked = walk(child);
      changed |= walked != child;
      children.push_back(std::move(walked));
    }
    RelExprPtr rel = e->rel;
    if (rel != nullptr) {
      RelExprPtr remapped = RemapRelTree(rel, mapping);
      changed |= remapped != rel;
      rel = remapped;
    }
    if (!changed) return e;
    auto copy = std::make_shared<ScalarExpr>(*e);
    copy->children = std::move(children);
    copy->rel = std::move(rel);
    return copy;
  };
  return walk(expr);
}

ScalarExprPtr SubstituteColumns(
    const ScalarExprPtr& expr,
    const std::map<ColumnId, ScalarExprPtr>& mapping) {
  if (expr == nullptr) return nullptr;
  if (expr->kind == ScalarKind::kColumnRef) {
    auto it = mapping.find(expr->column);
    if (it == mapping.end()) return expr;
    return it->second;
  }
  bool changed = false;
  std::vector<ScalarExprPtr> children;
  children.reserve(expr->children.size());
  for (const auto& child : expr->children) {
    ScalarExprPtr walked = SubstituteColumns(child, mapping);
    changed |= walked != child;
    children.push_back(std::move(walked));
  }
  if (!changed) return expr;
  auto copy = std::make_shared<ScalarExpr>(*expr);
  copy->children = std::move(children);
  return copy;
}

std::vector<ScalarExprPtr> SplitConjuncts(const ScalarExprPtr& expr) {
  std::vector<ScalarExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == ScalarKind::kAnd) {
    for (const auto& child : expr->children) {
      std::vector<ScalarExprPtr> sub = SplitConjuncts(child);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  if (IsTrueLiteral(expr)) return out;
  out.push_back(expr);
  return out;
}

bool IsTrueLiteral(const ScalarExprPtr& expr) {
  return expr != nullptr && expr->kind == ScalarKind::kLiteral &&
         !expr->literal.is_null() && expr->literal.type() == DataType::kBool &&
         expr->literal.bool_value();
}

bool IsFalseOrNullLiteral(const ScalarExprPtr& expr) {
  return expr != nullptr && expr->kind == ScalarKind::kLiteral &&
         (expr->literal.is_null() ||
          (expr->literal.type() == DataType::kBool &&
           !expr->literal.bool_value()));
}

bool ScalarEquals(const ScalarExprPtr& a, const ScalarExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind || a->children.size() != b->children.size()) {
    return false;
  }
  switch (a->kind) {
    case ScalarKind::kColumnRef:
    case ScalarKind::kParam:
      if (a->column != b->column) return false;
      break;
    case ScalarKind::kLiteral:
      if (a->literal.is_null() != b->literal.is_null()) return false;
      if (!a->literal.is_null() &&
          a->literal.TotalCompare(b->literal) != 0) {
        return false;
      }
      if (a->literal.type() != b->literal.type()) return false;
      break;
    case ScalarKind::kCompare:
      if (a->cmp != b->cmp) return false;
      break;
    case ScalarKind::kArith:
      if (a->arith != b->arith) return false;
      break;
    case ScalarKind::kQuantifiedCompare:
      if (a->cmp != b->cmp || a->quantifier != b->quantifier) return false;
      break;
    default:
      break;
  }
  if (a->negated != b->negated) return false;
  if (a->rel != b->rel) return false;  // pointer identity for subquery rels
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!ScalarEquals(a->children[i], b->children[i])) return false;
  }
  return true;
}

size_t ScalarHash(const ScalarExprPtr& expr) {
  if (expr == nullptr) return 0;
  size_t h = static_cast<size_t>(expr->kind) * 1099511628211ull;
  switch (expr->kind) {
    case ScalarKind::kColumnRef:
      h ^= std::hash<int64_t>()(expr->column);
      break;
    case ScalarKind::kParam:
      h ^= std::hash<int64_t>()(expr->column) * 0x9e3779b97f4a7c15ull;
      break;
    case ScalarKind::kLiteral:
      h ^= expr->literal.Hash();
      break;
    case ScalarKind::kCompare:
      h ^= static_cast<size_t>(expr->cmp) << 8;
      break;
    case ScalarKind::kArith:
      h ^= static_cast<size_t>(expr->arith) << 8;
      break;
    default:
      break;
  }
  if (expr->negated) h ^= 0xdeadull;
  for (const auto& child : expr->children) {
    h = h * 31 + ScalarHash(child);
  }
  return h;
}

namespace {

/// Remaps every payload field of a shallow-copied node.
void RemapNodePayload(RelExpr* node,
                      const std::map<ColumnId, ColumnId>& mapping) {
  auto remap_id = [&mapping](ColumnId id) {
    auto it = mapping.find(id);
    return it == mapping.end() ? id : it->second;
  };
  auto remap_ids = [&](std::vector<ColumnId>* ids) {
    for (ColumnId& id : *ids) id = remap_id(id);
  };
  auto remap_set = [&](ColumnSet* set) {
    std::vector<ColumnId> ids = set->ids();
    for (ColumnId& id : ids) id = remap_id(id);
    *set = ColumnSet(std::move(ids));
  };
  remap_ids(&node->get_cols);
  if (node->predicate) node->predicate = RemapColumns(node->predicate, mapping);
  for (ProjectItem& item : node->proj_items) {
    item.output = remap_id(item.output);
    item.expr = RemapColumns(item.expr, mapping);
  }
  remap_set(&node->passthrough);
  remap_set(&node->group_cols);
  for (AggItem& agg : node->aggs) {
    agg.output = remap_id(agg.output);
    if (agg.arg) agg.arg = RemapColumns(agg.arg, mapping);
  }
  remap_set(&node->segment_cols);
  remap_ids(&node->segment_out_cols);
  remap_ids(&node->out_cols);
  for (auto& im : node->input_maps) remap_ids(&im);
  for (SortKey& key : node->sort_keys) {
    key.expr = RemapColumns(key.expr, mapping);
  }
}

}  // namespace

RelExprPtr CloneRelTree(const RelExprPtr& expr, ColumnManager* mgr,
                        std::map<ColumnId, ColumnId>* mapping) {
  // Clone children first so references to their outputs are in `mapping`.
  std::vector<RelExprPtr> children;
  children.reserve(expr->children.size());
  for (const auto& child : expr->children) {
    children.push_back(CloneRelTree(child, mgr, mapping));
  }
  RelExprPtr clone = CloneWithChildren(*expr, std::move(children));
  // Allocate fresh ids for columns this node defines.
  auto fresh = [&](ColumnId old_id) {
    const ColumnDef& def = mgr->def(old_id);
    ColumnId id = mgr->NewColumn(def.name, def.type, def.nullable);
    (*mapping)[old_id] = id;
    return id;
  };
  switch (clone->kind) {
    case RelKind::kGet:
      for (ColumnId& id : clone->get_cols) id = fresh(id);
      break;
    case RelKind::kProject:
      for (ProjectItem& item : clone->proj_items) {
        item.output = fresh(item.output);
      }
      break;
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy:
      for (AggItem& agg : clone->aggs) agg.output = fresh(agg.output);
      break;
    case RelKind::kSegmentRef:
      for (ColumnId& id : clone->segment_out_cols) id = fresh(id);
      break;
    case RelKind::kUnionAll:
    case RelKind::kExceptAll:
      for (ColumnId& id : clone->out_cols) id = fresh(id);
      break;
    default:
      break;
  }
  // Now remap references (defined ids already replaced above are not in the
  // payload reference positions for kGet; for others RemapNodePayload would
  // re-remap outputs — so apply remap to the *reference* fields only by
  // remapping the whole payload after outputs were replaced: outputs now
  // hold fresh ids that are absent from `mapping`, so remapping is a no-op
  // on them).
  RemapNodePayload(clone.get(), *mapping);
  return clone;
}

RelExprPtr RemapRelTree(const RelExprPtr& expr,
                        const std::map<ColumnId, ColumnId>& mapping) {
  std::vector<RelExprPtr> children;
  children.reserve(expr->children.size());
  for (const auto& child : expr->children) {
    children.push_back(RemapRelTree(child, mapping));
  }
  RelExprPtr clone = CloneWithChildren(*expr, std::move(children));
  RemapNodePayload(clone.get(), mapping);
  return clone;
}

std::string ScalarToString(const ScalarExprPtr& expr,
                           const ColumnManager* mgr) {
  if (expr == nullptr) return "<null>";
  switch (expr->kind) {
    case ScalarKind::kColumnRef:
      if (mgr != nullptr) {
        return mgr->name(expr->column) + "#" + std::to_string(expr->column);
      }
      return "#" + std::to_string(expr->column);
    case ScalarKind::kLiteral:
      if (expr->literal.type() == DataType::kString &&
          !expr->literal.is_null()) {
        return "'" + expr->literal.ToString() + "'";
      }
      return expr->literal.ToString();
    case ScalarKind::kParam:
      return "$" + std::to_string(expr->column);
    case ScalarKind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < expr->children.size(); ++i) {
        if (i > 0) out += " AND ";
        out += ScalarToString(expr->children[i], mgr);
      }
      return out + ")";
    }
    case ScalarKind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < expr->children.size(); ++i) {
        if (i > 0) out += " OR ";
        out += ScalarToString(expr->children[i], mgr);
      }
      return out + ")";
    }
    case ScalarKind::kNot:
      return "NOT " + ScalarToString(expr->children[0], mgr);
    case ScalarKind::kCompare:
      return "(" + ScalarToString(expr->children[0], mgr) + " " +
             CompareOpName(expr->cmp) + " " +
             ScalarToString(expr->children[1], mgr) + ")";
    case ScalarKind::kArith:
      return "(" + ScalarToString(expr->children[0], mgr) + " " +
             ArithOpName(expr->arith) + " " +
             ScalarToString(expr->children[1], mgr) + ")";
    case ScalarKind::kNegate:
      return "(-" + ScalarToString(expr->children[0], mgr) + ")";
    case ScalarKind::kCast:
      return "double(" + ScalarToString(expr->children[0], mgr) + ")";
    case ScalarKind::kIsNull:
      return ScalarToString(expr->children[0], mgr) + " IS NULL";
    case ScalarKind::kIsNotNull:
      return ScalarToString(expr->children[0], mgr) + " IS NOT NULL";
    case ScalarKind::kLike:
      return ScalarToString(expr->children[0], mgr) + " LIKE " +
             ScalarToString(expr->children[1], mgr);
    case ScalarKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < expr->children.size(); i += 2) {
        out += " WHEN " + ScalarToString(expr->children[i], mgr) + " THEN " +
               ScalarToString(expr->children[i + 1], mgr);
      }
      if (i < expr->children.size()) {
        out += " ELSE " + ScalarToString(expr->children[i], mgr);
      }
      return out + " END";
    }
    case ScalarKind::kInList: {
      std::string out = ScalarToString(expr->children[0], mgr) + " IN (";
      for (size_t i = 1; i < expr->children.size(); ++i) {
        if (i > 1) out += ", ";
        out += ScalarToString(expr->children[i], mgr);
      }
      return out + ")";
    }
    case ScalarKind::kScalarSubquery:
      return "scalar-subquery(...)";
    case ScalarKind::kExistsSubquery:
      return expr->negated ? "NOT EXISTS(...)" : "EXISTS(...)";
    case ScalarKind::kInSubquery:
      return ScalarToString(expr->children[0], mgr) +
             (expr->negated ? " NOT IN (subquery)" : " IN (subquery)");
    case ScalarKind::kQuantifiedCompare:
      return ScalarToString(expr->children[0], mgr) + " " +
             CompareOpName(expr->cmp) +
             (expr->quantifier == Quantifier::kAll ? " ALL" : " ANY") +
             " (subquery)";
  }
  return "?";
}

int64_t CountRelNodes(const RelExpr& node) {
  int64_t count = 1;
  for (const RelExprPtr& child : node.children) {
    count += CountRelNodes(*child);
  }
  return count;
}

}  // namespace orq
