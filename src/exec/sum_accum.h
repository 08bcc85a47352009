#ifndef ORQ_EXEC_SUM_ACCUM_H_
#define ORQ_EXEC_SUM_ACCUM_H_

#include <cmath>
#include <cstdint>

#include "common/value.h"

namespace orq {

/// SUM's accumulator. Integer inputs add mod 2^64 (int64 SUM wraps, like
/// the row engine always has). Double inputs add into a double-double
/// (hi_, lo_) on hardware doubles: TwoSum captures each addition's
/// rounding error exactly, and a second TwoSum folds it into the pair,
/// keeping |lo_| within half an ulp of hi_, so hi_ is always the pair's
/// value rounded to a double.
///
/// The contract is order independence. While every partial sum stays
/// below 2^105 times the inputs' finest binary digit (for inputs of
/// magnitude at least 1, sums up to 2^53), every step is exact, so the
/// result is the exact sum rounded once: serial, batched, morsel-parallel
/// and cached executions of the same input agree to the bit in any order.
/// Past that, the error stays near N * 2^-106 of the largest partial sum,
/// which can move the result only when the exact sum lies that close to a
/// rounding boundary. Without this, a query comparing one aggregate
/// against a recomputation of itself (TPC-H Q15's total_revenue =
/// max(total_revenue)) loses rows whenever two plans associate the
/// additions differently.
///
/// A partial sum leaving [-2^1000, 2^1000] (a margin inside double range
/// that keeps every TwoSum intermediate finite), or a non-finite input,
/// escalates the accumulator to a wide sum (`__float128`, 15 exponent
/// bits) for the rest of its life. So DBL_MAX + DBL_MAX - DBL_MAX is
/// DBL_MAX in every order, and NaN and +-inf propagate as IEEE addition
/// says.
class SumAccum {
 public:
  void AddInt(int64_t v) {
    ints_ = static_cast<int64_t>(static_cast<uint64_t>(ints_) +
                                 static_cast<uint64_t>(v));
  }
  void AddDouble(double x) {
    has_double_ = true;
    Add(x);
  }

  /// Folds another accumulator in (the parallel merge).
  void Merge(const SumAccum& other) {
    AddInt(other.ints_);
    has_double_ = has_double_ || other.has_double_;
    if (other.wide_) {
      Escalate();
      wide_sum_ += other.wide_sum_;
      return;
    }
    Add(other.hi_);
    Add(other.lo_);
  }

  /// The SUM of the inputs added so far (at least one): Int64 when every
  /// input was an integer, else the exact total rounded to a double once.
  Value Finalize() const {
    if (!has_double_) return Value::Int64(ints_);
    // The integer part joins exactly: its high and low 32-bit halves are
    // each a double, and TwoSum adds each without loss.
    SumAccum total = *this;
    total.Add(static_cast<double>(ints_ & ~int64_t{0xffffffff}));
    total.Add(static_cast<double>(ints_ & int64_t{0xffffffff}));
    return Value::Double(total.wide_ ? static_cast<double>(total.wide_sum_)
                                     : total.hi_);
  }

 private:
#if defined(__SIZEOF_FLOAT128__)
  using WideSum = __float128;
#else
  using WideSum = long double;
#endif
  static constexpr double kRangeGuard = 0x1p1000;

  void Add(double x) {
    const double s = hi_ + x;
    if (!(std::fabs(s) < kRangeGuard)) [[unlikely]] {
      Escalate();
      wide_sum_ += static_cast<WideSum>(x);
      return;
    }
    // (s, e) = TwoSum(hi_, x), then (hi_, lo_) = TwoSum(s, lo_ + e).
    const double b = s - hi_;
    const double e = (hi_ - (s - b)) + (x - b);
    const double t = lo_ + e;
    hi_ = s + t;
    const double c = hi_ - s;
    lo_ = (s - (hi_ - c)) + (t - c);
  }

  /// Moves the double-double into the wide sum. hi_ becomes +inf, so
  /// every later Add fails the range test and lands in the wide sum.
  void Escalate() {
    if (wide_) return;
    wide_ = true;
    wide_sum_ = static_cast<WideSum>(hi_) + static_cast<WideSum>(lo_);
    hi_ = INFINITY;
    lo_ = 0.0;
  }

  double hi_ = 0.0;
  double lo_ = 0.0;
  int64_t ints_ = 0;
  bool has_double_ = false;
  bool wide_ = false;
  WideSum wide_sum_ = 0;
};

}  // namespace orq

#endif  // ORQ_EXEC_SUM_ACCUM_H_
