#include "exec/vector_kernels.h"

#include <cmath>

#include "exec/evaluator.h"

namespace orq {

namespace {

constexpr size_t kRowHashPrime = 1099511628211ull;

/// Folds elem_hash(i) — or the NULL hash where `nulls` marks row i — into
/// the hash of every live row i, in selection order: one tight loop per
/// element type.
template <typename ElemHash>
inline void CombineLive(const ColumnBatch& batch, const uint8_t* nulls,
                        size_t* h, ElemHash elem_hash) {
  const uint32_t m = batch.selected();
  auto fold = [&](uint32_t j, uint32_t i) {
    const size_t v =
        nulls != nullptr && nulls[i] != 0 ? kNullHash : elem_hash(i);
    h[j] = h[j] * kRowHashPrime + v;
  };
  if (batch.has_selection()) {
    const uint32_t* sel = batch.selection().data();
    for (uint32_t j = 0; j < m; ++j) fold(j, sel[j]);
  } else {
    for (uint32_t j = 0; j < m; ++j) fold(j, j);
  }
}

}  // namespace

void InitKeyHashes(const ColumnBatch& batch, std::vector<size_t>* hashes) {
  hashes->assign(batch.selected(), size_t{0x9e3779b97f4a7c15ull});
}

void HashCombineColumn(const ColumnBatch& batch, const ColumnVec& col,
                       std::vector<size_t>* hashes) {
  size_t* h = hashes->data();
  switch (col.rep()) {
    case ColumnRep::kInts: {
      const int64_t* ints = col.ints();
      if (col.type() == DataType::kInt64) {
        CombineLive(batch, col.nulls(), h,
                    [&](uint32_t i) { return HashInt64(ints[i]); });
      } else {
        CombineLive(batch, col.nulls(), h,
                    [&](uint32_t i) { return HashDateOrBool(ints[i]); });
      }
      return;
    }
    case ColumnRep::kDoubles: {
      const double* doubles = col.doubles();
      CombineLive(batch, col.nulls(), h,
                  [&](uint32_t i) { return HashDouble(doubles[i]); });
      return;
    }
    case ColumnRep::kStrings:
      CombineLive(batch, col.nulls(), h, [&](uint32_t i) {
        return std::hash<std::string_view>()(col.StrAt(i));
      });
      return;
  }
}

namespace {

inline int ThreeWayInt(int64_t a, int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// CompareDoubles when the right side is known non-NaN: the fall-through
/// case (none of <, >, == holds) means the left side is NaN, which sorts
/// above everything. Branch-free enough to auto-vectorize.
inline int ThreeWayDoubleVsNonNan(double a, double b) {
  return a < b ? -1 : (a > b ? 1 : (a == b ? 0 : 1));
}

/// Runs `f(i)` over every live row of the batch.
template <typename F>
inline void ForEachLive(const ColumnBatch& b, F f) {
  if (b.has_selection()) {
    for (uint32_t i : b.selection()) f(i);
  } else {
    const uint32_t n = b.num_rows();
    for (uint32_t i = 0; i < n; ++i) f(i);
  }
}

/// Compare emitter: o[i] = op(tw(i)) for live rows, NULL where either
/// input null mask is set. The dense no-null specialization is the loop
/// the compiler vectorizes. Typed reps only (null masks are raw arrays).
template <typename ThreeWay>
void EmitCmp(CompareOp op, const ColumnBatch& b, const uint8_t* ln,
             const uint8_t* rn, int64_t* o, uint8_t* on, bool* any_null,
             ThreeWay tw) {
  auto run = [&](auto pred) {
    const uint32_t n = b.num_rows();
    if (!b.has_selection() && ln == nullptr && rn == nullptr) {
      for (uint32_t i = 0; i < n; ++i) o[i] = pred(tw(i)) ? 1 : 0;
      return;
    }
    auto one = [&](uint32_t i) {
      if ((ln != nullptr && ln[i] != 0) || (rn != nullptr && rn[i] != 0)) {
        on[i] = 1;
        *any_null = true;
      } else {
        o[i] = pred(tw(i)) ? 1 : 0;
      }
    };
    ForEachLive(b, one);
  };
  switch (op) {
    case CompareOp::kEq: run([](int c) { return c == 0; }); break;
    case CompareOp::kNe: run([](int c) { return c != 0; }); break;
    case CompareOp::kLt: run([](int c) { return c < 0; }); break;
    case CompareOp::kLe: run([](int c) { return c <= 0; }); break;
    case CompareOp::kGt: run([](int c) { return c > 0; }); break;
    case CompareOp::kGe: run([](int c) { return c >= 0; }); break;
  }
}

/// Arithmetic emitter: o[i] = f(i) for live rows, NULL propagation from
/// either side's mask.
template <typename Out, typename F>
void EmitLanes(const ColumnBatch& b, const uint8_t* ln, const uint8_t* rn,
               Out* o, uint8_t* on, bool* any_null, F f) {
  const uint32_t n = b.num_rows();
  if (!b.has_selection() && ln == nullptr && rn == nullptr) {
    for (uint32_t i = 0; i < n; ++i) o[i] = f(i);
    return;
  }
  ForEachLive(b, [&](uint32_t i) {
    if ((ln != nullptr && ln[i] != 0) || (rn != nullptr && rn[i] != 0)) {
      on[i] = 1;
      *any_null = true;
    } else {
      o[i] = f(i);
    }
  });
}

/// o[i] = a(i) op c(i) over EmitLanes for add, sub and mul (division
/// never vectorizes).
template <typename Out, typename A, typename C>
void EmitArith(ArithOp op, const ColumnBatch& b, const uint8_t* ln,
               const uint8_t* rn, Out* o, uint8_t* on, bool* any_null, A a,
               C c) {
  switch (op) {
    case ArithOp::kAdd:
      return EmitLanes(b, ln, rn, o, on, any_null,
                       [a, c](uint32_t i) { return a(i) + c(i); });
    case ArithOp::kSub:
      return EmitLanes(b, ln, rn, o, on, any_null,
                       [a, c](uint32_t i) { return a(i) - c(i); });
    default:
      return EmitLanes(b, ln, rn, o, on, any_null,
                       [a, c](uint32_t i) { return a(i) * c(i); });
  }
}

/// An int64 lane: either a column's array or a constant.
struct I64Lane {
  const int64_t* arr = nullptr;
  int64_t c = 0;
  int64_t operator()(uint32_t i) const { return arr != nullptr ? arr[i] : c; }
};

/// A double lane: a double column, an int64 column promoted per element
/// (Value::AsDouble), or a constant already promoted.
struct DblLane {
  const double* darr = nullptr;
  const int64_t* iarr = nullptr;
  double c = 0.0;
  double operator()(uint32_t i) const {
    if (darr != nullptr) return darr[i];
    if (iarr != nullptr) return static_cast<double>(iarr[i]);
    return c;
  }
};

void CompareColConst(CompareOp op, const ColumnVec& col, const Value& cv,
                     const ColumnBatch& b, ColumnVec* out) {
  const uint32_t n = b.num_rows();
  out->PrepareScatter(DataType::kBool, n);
  int64_t* o = out->MutableInts();
  uint8_t* on = out->MutableNulls();
  bool any_null = false;
  bool done = false;
  if (cv.is_null()) {
    ForEachLive(b, [&](uint32_t i) { on[i] = 1; });
    any_null = true;
    done = true;
  } else if (col.rep() == ColumnRep::kInts) {
    if (col.type() == DataType::kInt64 && cv.type() == DataType::kInt64) {
      const int64_t* a = col.ints();
      const int64_t c = cv.int64_value();
      EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null,
              [a, c](uint32_t i) { return ThreeWayInt(a[i], c); });
      done = true;
    } else if (col.type() == DataType::kInt64 &&
               cv.type() == DataType::kDouble) {
      const int64_t* a = col.ints();
      const double c = cv.double_value();
      EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null,
              [a, c](uint32_t i) { return CompareInt64WithDouble(a[i], c); });
      done = true;
    } else if ((col.type() == DataType::kBool ||
                col.type() == DataType::kDate) &&
               cv.type() == col.type()) {
      const int64_t* a = col.ints();
      const int64_t c = cv.type() == DataType::kDate
                            ? static_cast<int64_t>(cv.date_value())
                            : static_cast<int64_t>(cv.bool_value() ? 1 : 0);
      EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null,
              [a, c](uint32_t i) { return ThreeWayInt(a[i], c); });
      done = true;
    }
  } else if (col.rep() == ColumnRep::kDoubles) {
    if (cv.type() == DataType::kDouble) {
      const double* a = col.doubles();
      const double c = cv.double_value();
      if (std::isnan(c)) {
        EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null,
                [a, c](uint32_t i) { return CompareDoubles(a[i], c); });
      } else {
        EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null, [a, c](
                    uint32_t i) { return ThreeWayDoubleVsNonNan(a[i], c); });
      }
      done = true;
    } else if (cv.type() == DataType::kInt64) {
      const double* a = col.doubles();
      const int64_t c = cv.int64_value();
      EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null, [a, c](
                  uint32_t i) { return -CompareInt64WithDouble(c, a[i]); });
      done = true;
    }
  } else if (col.rep() == ColumnRep::kStrings &&
             cv.type() == DataType::kString) {
    const std::string_view c(cv.string_value());
    EmitCmp(op, b, col.nulls(), nullptr, o, on, &any_null,
            [&col, c](uint32_t i) {
              int s = col.StrAt(i).compare(c);
              return s < 0 ? -1 : (s > 0 ? 1 : 0);
            });
    done = true;
  }
  if (!done) {
    // The pairs without a typed loop are the incomparable ones (SqlCompare
    // says NULL): a column holds only its declared type, or only NULLs.
    ForEachLive(b, [&](uint32_t i) { on[i] = 1; });
    any_null = true;
  }
  out->SetAnyNull(any_null);
}

void CompareColCol(CompareOp op, const ColumnVec& l, const ColumnVec& r,
                   const ColumnBatch& b, ColumnVec* out) {
  const uint32_t n = b.num_rows();
  out->PrepareScatter(DataType::kBool, n);
  int64_t* o = out->MutableInts();
  uint8_t* on = out->MutableNulls();
  bool any_null = false;
  bool done = false;
  if (l.rep() == ColumnRep::kInts && r.rep() == ColumnRep::kInts &&
      l.type() == r.type()) {
    const int64_t* a = l.ints();
    const int64_t* c = r.ints();
    EmitCmp(op, b, l.nulls(), r.nulls(), o, on, &any_null,
            [a, c](uint32_t i) { return ThreeWayInt(a[i], c[i]); });
    done = true;
  } else if (l.rep() == ColumnRep::kInts &&
             l.type() == DataType::kInt64 &&
             r.rep() == ColumnRep::kDoubles) {
    const int64_t* a = l.ints();
    const double* c = r.doubles();
    EmitCmp(op, b, l.nulls(), r.nulls(), o, on, &any_null, [a, c](
                uint32_t i) { return CompareInt64WithDouble(a[i], c[i]); });
    done = true;
  } else if (l.rep() == ColumnRep::kDoubles &&
             r.rep() == ColumnRep::kInts && r.type() == DataType::kInt64) {
    const double* a = l.doubles();
    const int64_t* c = r.ints();
    EmitCmp(op, b, l.nulls(), r.nulls(), o, on, &any_null, [a, c](
                uint32_t i) { return -CompareInt64WithDouble(c[i], a[i]); });
    done = true;
  } else if (l.rep() == ColumnRep::kDoubles &&
             r.rep() == ColumnRep::kDoubles) {
    const double* a = l.doubles();
    const double* c = r.doubles();
    EmitCmp(op, b, l.nulls(), r.nulls(), o, on, &any_null,
            [a, c](uint32_t i) { return CompareDoubles(a[i], c[i]); });
    done = true;
  } else if (l.rep() == ColumnRep::kStrings &&
             r.rep() == ColumnRep::kStrings) {
    EmitCmp(op, b, l.nulls(), r.nulls(), o, on, &any_null,
            [&l, &r](uint32_t i) {
              int s = l.StrAt(i).compare(r.StrAt(i));
              return s < 0 ? -1 : (s > 0 ? 1 : 0);
            });
    done = true;
  }
  if (!done) {
    // Incomparable, as in CompareColConst.
    ForEachLive(b, [&](uint32_t i) { on[i] = 1; });
    any_null = true;
  }
  out->SetAnyNull(any_null);
}

/// Makes `out` a column of `type` that is NULL at every live row.
void SetAllNull(DataType type, const ColumnBatch& batch, ColumnVec* out) {
  out->PrepareScatter(type, batch.num_rows());
  uint8_t* on = out->MutableNulls();
  ForEachLive(batch, [&](uint32_t i) { on[i] = 1; });
  out->SetAnyNull(true);
}

/// Whether ArithNode has a kernel for `e`'s declared operand types:
/// numeric pairs, date +/- int64 and date - date.
bool ArithKernel(const ScalarExpr& e) {
  const DataType l = e.children[0]->type;
  const DataType r = e.children[1]->type;
  if (IsNumeric(l) && IsNumeric(r)) return true;
  if (l == DataType::kDate && r == DataType::kInt64) {
    return e.arith == ArithOp::kAdd || e.arith == ArithOp::kSub;
  }
  return l == DataType::kDate && r == DataType::kDate &&
         e.arith == ArithOp::kSub;
}

}  // namespace

void ColumnarEvaluator::Compile(ScalarExprPtr expr,
                                const std::vector<ColumnId>& layout) {
  expr_ = std::move(expr);
  slots_.clear();
  for (size_t i = 0; i < layout.size(); ++i) {
    slots_.emplace(layout[i], static_cast<int>(i));
  }
  pool_pos_ = 0;
  vectorizable_ = expr_ != nullptr && CheckVectorizable(*expr_);
}

bool ColumnarEvaluator::CheckVectorizable(const ScalarExpr& e) const {
  switch (e.kind) {
    case ScalarKind::kColumnRef:
    case ScalarKind::kLiteral:
      return true;
    case ScalarKind::kAnd:
    case ScalarKind::kOr:
    case ScalarKind::kNot:
    case ScalarKind::kCompare:
    case ScalarKind::kIsNull:
    case ScalarKind::kIsNotNull:
      break;
    case ScalarKind::kCast:
      if (e.children[0]->type != DataType::kInt64) return false;
      break;
    case ScalarKind::kNegate:
      if (!IsNumeric(e.children[0]->type)) return false;
      break;
    case ScalarKind::kArith:
      // Division is the one runtime-error site reachable from a bound,
      // typed tree; keep it on the per-row path so errors surface on
      // exactly the rows the row engine would evaluate. Operand types
      // EvalArith rejects go there too.
      if (e.arith == ArithOp::kDiv || !ArithKernel(e)) return false;
      break;
    default:
      return false;  // LIKE / CASE / IN / params / subquery remnants
  }
  for (const auto& child : e.children) {
    if (!CheckVectorizable(*child)) return false;
  }
  return true;
}

ColumnVec* ColumnarEvaluator::NewScratch() {
  if (pool_pos_ == pool_.size()) {
    pool_.push_back(std::make_unique<ColumnVec>());
  }
  return pool_[pool_pos_++].get();
}

const Value* ColumnarEvaluator::ConstOf(const ScalarExpr& e,
                                        ExecContext* ctx) const {
  if (e.kind == ScalarKind::kLiteral) return &e.literal;
  if (e.kind == ScalarKind::kColumnRef &&
      slots_.find(e.column) == slots_.end() && ctx != nullptr) {
    auto it = ctx->params.find(e.column);
    if (it != ctx->params.end()) return &it->second;
  }
  return nullptr;
}

Result<const ColumnVec*> ColumnarEvaluator::Broadcast(
    const Value& v, DataType type, const ColumnBatch& batch) {
  ColumnVec* out = NewScratch();
  out->PrepareScatter(type, batch.num_rows());
  Status status;
  ForEachLive(batch, [&](uint32_t i) {
    if (status.ok()) status = out->ScatterValue(i, v);
  });
  ORQ_RETURN_IF_ERROR(status);
  out->SetAnyNull(v.is_null());
  return out;
}

const ColumnVec* ColumnarEvaluator::AllNull(DataType type,
                                            const ColumnBatch& batch) {
  ColumnVec* out = NewScratch();
  SetAllNull(type, batch, out);
  return out;
}

Result<const ColumnVec*> ColumnarEvaluator::Eval(const ColumnBatch& batch,
                                                 ExecContext* ctx) {
  pool_pos_ = 0;
  return EvalNode(*expr_, batch, ctx);
}

Result<const ColumnVec*> ColumnarEvaluator::EvalOrFallback(
    const ColumnBatch& batch, const Evaluator& row_eval, ExecContext* ctx) {
  if (vectorizable_) return Eval(batch, ctx);
  fallback_.PrepareScatter(expr_->type, batch.num_rows());
  bool any_null = false;
  for (uint32_t j = 0; j < batch.selected(); ++j) {
    const uint32_t i = batch.RowAt(j);
    batch.DecodeRow(i, &decode_);
    ORQ_ASSIGN_OR_RETURN(Value v, row_eval.Eval(decode_, ctx));
    any_null |= v.is_null();
    ORQ_RETURN_IF_ERROR(fallback_.ScatterValue(i, v));
  }
  fallback_.SetAnyNull(any_null);
  return &fallback_;
}

Status ColumnarEvaluator::CompareNode(const ScalarExpr& e,
                                      const ColumnBatch& batch,
                                      ExecContext* ctx, ColumnVec* out) {
  const ScalarExpr& le = *e.children[0];
  const ScalarExpr& re = *e.children[1];
  const Value* lc = ConstOf(le, ctx);
  const Value* rc = ConstOf(re, ctx);
  if (lc != nullptr || rc != nullptr) {
    // Normalize the constant to the right side (flip when it is on the
    // left) and run the column-vs-constant kernel.
    ORQ_ASSIGN_OR_RETURN(const ColumnVec* col,
                         EvalNode(lc != nullptr ? re : le, batch, ctx));
    CompareOp op = lc != nullptr ? FlipCompare(e.cmp) : e.cmp;
    CompareColConst(op, *col, lc != nullptr ? *lc : *rc, batch, out);
    return Status::OK();
  }
  ORQ_ASSIGN_OR_RETURN(const ColumnVec* l, EvalNode(le, batch, ctx));
  ORQ_ASSIGN_OR_RETURN(const ColumnVec* r, EvalNode(re, batch, ctx));
  CompareColCol(e.cmp, *l, *r, batch, out);
  return Status::OK();
}

Status ColumnarEvaluator::ArithNode(const ScalarExpr& e,
                                    const ColumnBatch& batch,
                                    ExecContext* ctx, ColumnVec* out) {
  const ScalarExpr& le = *e.children[0];
  const ScalarExpr& re = *e.children[1];
  const Value* lc = ConstOf(le, ctx);
  const Value* rc = ConstOf(re, ctx);
  const ColumnVec* L = nullptr;
  const ColumnVec* R = nullptr;
  if (lc == nullptr) {
    ORQ_ASSIGN_OR_RETURN(L, EvalNode(le, batch, ctx));
  }
  if (rc == nullptr) {
    ORQ_ASSIGN_OR_RETURN(R, EvalNode(re, batch, ctx));
  }

  const uint32_t n = batch.num_rows();
  const ArithOp op = e.arith;
  const DataType lt = le.type;
  const DataType rt = re.type;
  // A NULL constant annihilates the whole column (EvalArith's NULL
  // propagation), regardless of the other side. So does a column whose
  // type is not its declared one: it holds only NULLs (a row batch typed
  // by the tag of a NULL).
  if ((lc != nullptr && lc->is_null()) || (rc != nullptr && rc->is_null()) ||
      (L != nullptr && L->type() != lt) || (R != nullptr && R->type() != rt)) {
    SetAllNull(e.type, batch, out);
    return Status::OK();
  }

  const uint8_t* ln = L != nullptr ? L->nulls() : nullptr;
  const uint8_t* rn = R != nullptr ? R->nulls() : nullptr;
  bool any_null = false;

  // CheckVectorizable admitted only ArithKernel's type pairs.
  if (lt == DataType::kDate && rt == DataType::kInt64) {
    out->PrepareScatter(DataType::kDate, n);
    I64Lane days{L != nullptr ? L->ints() : nullptr,
                 lc != nullptr ? static_cast<int64_t>(lc->date_value()) : 0};
    I64Lane delta{R != nullptr ? R->ints() : nullptr,
                  rc != nullptr ? rc->int64_value() : 0};
    const bool add = op == ArithOp::kAdd;
    EmitLanes(batch, ln, rn, out->MutableInts(), out->MutableNulls(),
              &any_null, [days, delta, add](uint32_t i) {
                // Value::Date narrows to int32; reproduce the wrap.
                int64_t d = add ? static_cast<int32_t>(days(i)) + delta(i)
                                : static_cast<int32_t>(days(i)) - delta(i);
                return static_cast<int64_t>(static_cast<int32_t>(d));
              });
  } else if (lt == DataType::kDate) {  // date - date
    out->PrepareScatter(DataType::kInt64, n);
    I64Lane a{L != nullptr ? L->ints() : nullptr,
              lc != nullptr ? static_cast<int64_t>(lc->date_value()) : 0};
    I64Lane c{R != nullptr ? R->ints() : nullptr,
              rc != nullptr ? static_cast<int64_t>(rc->date_value()) : 0};
    EmitLanes(batch, ln, rn, out->MutableInts(), out->MutableNulls(),
              &any_null, [a, c](uint32_t i) {
                return static_cast<int64_t>(static_cast<int32_t>(a(i))) -
                       static_cast<int64_t>(static_cast<int32_t>(c(i)));
              });
  } else if (lt == DataType::kInt64 && rt == DataType::kInt64) {
    out->PrepareScatter(DataType::kInt64, n);
    EmitArith(op, batch, ln, rn, out->MutableInts(), out->MutableNulls(),
              &any_null,
              I64Lane{L != nullptr ? L->ints() : nullptr,
                      lc != nullptr ? lc->int64_value() : 0},
              I64Lane{R != nullptr ? R->ints() : nullptr,
                      rc != nullptr ? rc->int64_value() : 0});
  } else {
    auto dbl_lane = [](const ColumnVec* col, const Value* cv) {
      if (col == nullptr) return DblLane{nullptr, nullptr, cv->AsDouble()};
      if (col->rep() == ColumnRep::kDoubles) {
        return DblLane{col->doubles(), nullptr, 0.0};
      }
      return DblLane{nullptr, col->ints(), 0.0};
    };
    out->PrepareScatter(DataType::kDouble, n);
    EmitArith(op, batch, ln, rn, out->MutableDoubles(), out->MutableNulls(),
              &any_null, dbl_lane(L, lc), dbl_lane(R, rc));
  }
  out->SetAnyNull(any_null);
  return Status::OK();
}

Result<const ColumnVec*> ColumnarEvaluator::EvalNode(const ScalarExpr& e,
                                                     const ColumnBatch& batch,
                                                     ExecContext* ctx) {
  switch (e.kind) {
    case ScalarKind::kColumnRef: {
      auto it = slots_.find(e.column);
      if (it != slots_.end()) return &batch.col(it->second);
      if (ctx != nullptr) {
        auto pit = ctx->params.find(e.column);
        if (pit != ctx->params.end()) {
          return Broadcast(pit->second, e.type, batch);
        }
      }
      return Status::Internal("unresolved column #" +
                              std::to_string(e.column));
    }
    case ScalarKind::kLiteral:
      return Broadcast(e.literal, e.type, batch);
    case ScalarKind::kCompare: {
      const Value* lc = ConstOf(*e.children[0], ctx);
      const Value* rc = ConstOf(*e.children[1], ctx);
      if (lc != nullptr && rc != nullptr) {
        std::optional<int> cmp = lc->SqlCompare(*rc);
        return Broadcast(cmp.has_value() ? CompareResult(e.cmp, *cmp)
                                         : Value::Null(DataType::kBool),
                         DataType::kBool, batch);
      }
      ColumnVec* out = NewScratch();
      ORQ_RETURN_IF_ERROR(CompareNode(e, batch, ctx, out));
      return out;
    }
    case ScalarKind::kArith: {
      const Value* lc = ConstOf(*e.children[0], ctx);
      const Value* rc = ConstOf(*e.children[1], ctx);
      if (lc != nullptr && rc != nullptr) {
        ORQ_ASSIGN_OR_RETURN(Value v, EvalArith(e.arith, *lc, *rc, e.type));
        return Broadcast(v, e.type, batch);
      }
      ColumnVec* out = NewScratch();
      ORQ_RETURN_IF_ERROR(ArithNode(e, batch, ctx, out));
      return out;
    }
    case ScalarKind::kAnd:
    case ScalarKind::kOr: {
      const bool is_and = e.kind == ScalarKind::kAnd;
      ColumnVec* out = NewScratch();
      out->PrepareScatter(DataType::kBool, batch.num_rows());
      int64_t* o = out->MutableInts();
      uint8_t* on = out->MutableNulls();
      ForEachLive(batch, [&](uint32_t i) { o[i] = is_and ? 1 : 0; });
      bool any_null = false;
      for (const auto& child : e.children) {
        ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                             EvalNode(*child, batch, ctx));
        ForEachLive(batch, [&](uint32_t i) {
          // Skip rows already at the absorbing element (FALSE / TRUE).
          if (on[i] == 0 && o[i] == (is_and ? 0 : 1)) return;
          const int t = PredTruthElem(*c, i);
          if (is_and) {
            if (t == 0) {
              o[i] = 0;
              on[i] = 0;
            } else if (t < 0) {
              on[i] = 1;
              any_null = true;
            }
          } else {
            if (t == 1) {
              o[i] = 1;
              on[i] = 0;
            } else if (t < 0) {
              on[i] = 1;
              any_null = true;
            }
          }
        });
      }
      out->SetAnyNull(any_null);
      return out;
    }
    case ScalarKind::kNot: {
      const Value* cv = ConstOf(*e.children[0], ctx);
      if (cv != nullptr) {
        return Broadcast(cv->is_null() ? Value::Null(DataType::kBool)
                                       : Value::Bool(!cv->bool_value()),
                         DataType::kBool, batch);
      }
      ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                           EvalNode(*e.children[0], batch, ctx));
      ColumnVec* out = NewScratch();
      out->PrepareScatter(DataType::kBool, batch.num_rows());
      int64_t* o = out->MutableInts();
      uint8_t* on = out->MutableNulls();
      bool any_null = false;
      ForEachLive(batch, [&](uint32_t i) {
        const int t = PredTruthElem(*c, i);
        if (t < 0) {
          on[i] = 1;
          any_null = true;
        } else {
          o[i] = t == 1 ? 0 : 1;
        }
      });
      out->SetAnyNull(any_null);
      return out;
    }
    case ScalarKind::kIsNull:
    case ScalarKind::kIsNotNull: {
      const bool want_null = e.kind == ScalarKind::kIsNull;
      const Value* cv = ConstOf(*e.children[0], ctx);
      if (cv != nullptr) {
        return Broadcast(Value::Bool(cv->is_null() == want_null),
                         DataType::kBool, batch);
      }
      ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                           EvalNode(*e.children[0], batch, ctx));
      ColumnVec* out = NewScratch();
      out->PrepareScatter(DataType::kBool, batch.num_rows());
      int64_t* o = out->MutableInts();
      ForEachLive(batch, [&](uint32_t i) {
        o[i] = c->IsNull(i) == want_null ? 1 : 0;
      });
      out->SetAnyNull(false);
      return out;
    }
    case ScalarKind::kNegate: {
      const Value* cv = ConstOf(*e.children[0], ctx);
      if (cv != nullptr) {
        if (cv->is_null()) return AllNull(e.type, batch);
        return Broadcast(e.type == DataType::kInt64
                             ? Value::Int64(-cv->int64_value())
                             : Value::Double(-cv->double_value()),
                         e.type, batch);
      }
      ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                           EvalNode(*e.children[0], batch, ctx));
      // A column not of its declared type holds only NULLs (see ArithNode).
      if (c->type() != e.type) return AllNull(e.type, batch);
      ColumnVec* out = NewScratch();
      out->PrepareScatter(e.type, batch.num_rows());
      bool any_null = false;
      if (e.type == DataType::kInt64) {
        const int64_t* a = c->ints();
        EmitLanes(batch, c->nulls(), nullptr, out->MutableInts(),
                  out->MutableNulls(), &any_null,
                  [a](uint32_t i) { return -a[i]; });
      } else {
        const double* a = c->doubles();
        EmitLanes(batch, c->nulls(), nullptr, out->MutableDoubles(),
                  out->MutableNulls(), &any_null,
                  [a](uint32_t i) { return -a[i]; });
      }
      out->SetAnyNull(any_null);
      return out;
    }
    case ScalarKind::kCast: {
      const Value* cv = ConstOf(*e.children[0], ctx);
      if (cv != nullptr) {
        if (cv->is_null()) return AllNull(e.type, batch);
        return Broadcast(Value::Double(static_cast<double>(cv->int64_value())),
                         e.type, batch);
      }
      ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                           EvalNode(*e.children[0], batch, ctx));
      if (c->type() != DataType::kInt64) return AllNull(e.type, batch);
      ColumnVec* out = NewScratch();
      out->PrepareScatter(DataType::kDouble, batch.num_rows());
      bool any_null = false;
      const int64_t* a = c->ints();
      EmitLanes(batch, c->nulls(), nullptr, out->MutableDoubles(),
                out->MutableNulls(), &any_null,
                [a](uint32_t i) { return static_cast<double>(a[i]); });
      out->SetAnyNull(any_null);
      return out;
    }
    default:
      return Status::Internal("non-vectorizable node reached ColumnarEvaluator");
  }
}

}  // namespace orq
