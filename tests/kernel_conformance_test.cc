// Conformance matrix for the expression kernels (src/plan/kernels/):
// every kernel must agree with a per-element reference written from
// catalog::Value semantics over adversarial batches — all-NULL /
// null-free / alternating / sparse null maps, identity, sparse,
// dense-offset and empty selection vectors, batch sizes around the
// default batch size, and payloads seeded with NaN, ±0.0, ±inf,
// INT64_MIN/MAX.
//
// The reference semantics:
//   - comparisons use Value::Compare's three-way result, which treats NaN
//     as equal to everything (as catalog::CompareAt does);
//   - a NULL input drops the row from a filter and sets the null byte
//     (exactly 1) in an eval;
//   - int64 `+ - *` wrap around;
//   - doubles round to double after each operation.
// Eval payloads are compared only on rows whose result is non-NULL.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "plan/kernels/kernels.h"

namespace vdb::plan::kernels {
namespace {

using catalog::TypeId;
using catalog::Value;

constexpr CmpOp kAllCmpOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
constexpr ArithOp kAllArithOps[] = {ArithOp::kAdd, ArithOp::kSub,
                                    ArithOp::kMul};
constexpr size_t kBatchSizes[] = {0, 1, 2, 3, 7, 1023, 1024, 1025};

// --- Value-semantics reference -------------------------------------------

Value Boxed(int64_t v, bool is_null) {
  return is_null ? Value::Null(TypeId::kInt64) : Value::Int64(v);
}
Value Boxed(double v, bool is_null) {
  return is_null ? Value::Null(TypeId::kDouble) : Value::Double(v);
}

template <typename T>
Value ColumnValue(const T* vals, const uint8_t* nulls, uint32_t row) {
  return Boxed(vals[row], nulls != nullptr && nulls[row] != 0);
}

/// The SQL comparison `a op b`: NULL (nullopt) when either side is NULL,
/// else decided by Value::Compare's three-way result.
std::optional<bool> RefCompare(CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  const int c = Value::Compare(a, b);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return std::nullopt;
}

/// The rows of `sel`, in order, whose comparison is non-NULL and true.
/// `lhs` / `rhs` map a physical row to its boxed operand.
template <typename Lhs, typename Rhs>
std::vector<uint32_t> RefFilter(CmpOp op, Lhs lhs, Rhs rhs,
                                const std::vector<uint32_t>& sel) {
  std::vector<uint32_t> kept;
  for (uint32_t row : sel) {
    if (RefCompare(op, lhs(row), rhs(row)).value_or(false)) {
      kept.push_back(row);
    }
  }
  return kept;
}

/// Checks an eval kernel's outputs against the reference, element by
/// element; returns "" on agreement, else the first difference.
template <typename Lhs, typename Rhs>
std::string CheckEval(CmpOp op, Lhs lhs, Rhs rhs,
                      const std::vector<uint32_t>& sel,
                      const std::vector<int64_t>& got_vals,
                      const std::vector<uint8_t>& got_nulls) {
  for (size_t i = 0; i < sel.size(); ++i) {
    const std::optional<bool> expect = RefCompare(op, lhs(sel[i]), rhs(sel[i]));
    const uint8_t expect_null = expect.has_value() ? 0 : 1;
    if (got_nulls[i] != expect_null) {
      return "i=" + std::to_string(i) + " null byte " +
             std::to_string(got_nulls[i]) + ", expected " +
             std::to_string(expect_null);
    }
    if (expect.has_value() && got_vals[i] != (*expect ? 1 : 0)) {
      return "i=" + std::to_string(i) + " payload " +
             std::to_string(got_vals[i]) + ", expected " +
             std::to_string(*expect ? 1 : 0);
    }
  }
  return "";
}

// Two's-complement wrap-around, stated through the overflow builtins
// (they store the wrapped result) rather than the kernels' unsigned casts.
int64_t RefArith(ArithOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  switch (op) {
    case ArithOp::kAdd:
      (void)__builtin_add_overflow(a, b, &r);
      break;
    case ArithOp::kSub:
      (void)__builtin_sub_overflow(a, b, &r);
      break;
    case ArithOp::kMul:
      (void)__builtin_mul_overflow(a, b, &r);
      break;
  }
  return r;
}

double RefArith(ArithOp op, double a, double b) {
  // volatile rounds each result to double, even where the compiler could
  // otherwise contract a*b+c into one FMA.
  volatile double r = 0.0;
  switch (op) {
    case ArithOp::kAdd:
      r = a + b;
      break;
    case ArithOp::kSub:
      r = a - b;
      break;
    case ArithOp::kMul:
      r = a * b;
      break;
  }
  return r;
}

template <typename T, typename Operand>
std::optional<T> OperandValue(const Operand& operand, uint32_t row) {
  if (operand.vals == nullptr) return operand.constant;
  if (operand.nulls != nullptr && operand.nulls[row] != 0) return std::nullopt;
  return operand.vals[row];
}

/// `(x inner y) outer z` (or `z outer (x inner y)`) for one row; NULL when
/// any operand is NULL.
template <typename T, typename Operand>
std::optional<T> RefFused(ArithOp inner, ArithOp outer, bool inner_on_left,
                          const Operand& x, const Operand& y,
                          const Operand& z, uint32_t row) {
  const std::optional<T> xv = OperandValue<T>(x, row);
  const std::optional<T> yv = OperandValue<T>(y, row);
  const std::optional<T> zv = OperandValue<T>(z, row);
  if (!xv || !yv || !zv) return std::nullopt;
  const T t = RefArith(inner, *xv, *yv);
  return inner_on_left ? RefArith(outer, t, *zv) : RefArith(outer, *zv, t);
}

/// Checks a fused-arithmetic kernel's outputs against RefFused; payloads
/// compare by bit pattern (NaN and -0.0 included) on non-NULL rows.
template <typename T, typename Operand>
std::string CheckFused(ArithOp inner, ArithOp outer, bool inner_on_left,
                       const Operand& x, const Operand& y, const Operand& z,
                       const std::vector<uint32_t>& sel,
                       const std::vector<T>& got_vals,
                       const std::vector<uint8_t>& got_nulls) {
  for (size_t i = 0; i < sel.size(); ++i) {
    const std::optional<T> expect =
        RefFused<T>(inner, outer, inner_on_left, x, y, z, sel[i]);
    const uint8_t expect_null = expect.has_value() ? 0 : 1;
    if (got_nulls[i] != expect_null) {
      return "i=" + std::to_string(i) + " null byte " +
             std::to_string(got_nulls[i]) + ", expected " +
             std::to_string(expect_null);
    }
    if (expect.has_value() &&
        std::memcmp(&got_vals[i], &*expect, sizeof(T)) != 0) {
      return "i=" + std::to_string(i) + " payload " +
             std::to_string(got_vals[i]) + ", expected " +
             std::to_string(*expect);
    }
  }
  return "";
}

// --- adversarial inputs ----------------------------------------------------

// Null-map shapes the matrix sweeps for each operand.
enum class NullShape { kNone, kAll, kAlternating, kSparse };
constexpr NullShape kNullShapes[] = {NullShape::kNone, NullShape::kAll,
                                     NullShape::kAlternating,
                                     NullShape::kSparse};

std::vector<uint8_t> MakeNulls(NullShape shape, size_t n) {
  std::vector<uint8_t> nulls(n, 0);
  switch (shape) {
    case NullShape::kNone:
      break;
    case NullShape::kAll:
      std::fill(nulls.begin(), nulls.end(), 1);
      break;
    case NullShape::kAlternating:
      for (size_t i = 0; i < n; i += 2) nulls[i] = 1;
      break;
    case NullShape::kSparse:
      for (size_t i = 0; i < n; i += 97) nulls[i] = 1;
      break;
  }
  return nulls;
}

// kNone is passed as a null pointer: the caller's proof of a null-free
// column.
const uint8_t* NullsPtr(NullShape shape, const std::vector<uint8_t>& nulls) {
  return shape == NullShape::kNone ? nullptr : nulls.data();
}

// Selection-vector shapes: identity (fresh scan batches), sparse and
// dense non-identity subsets, and empty.
enum class SelShape { kIdentity, kSparse, kDenseOffset, kEmpty };
constexpr SelShape kSelShapes[] = {SelShape::kIdentity, SelShape::kSparse,
                                   SelShape::kDenseOffset, SelShape::kEmpty};

std::vector<uint32_t> MakeSel(SelShape shape, size_t n) {
  std::vector<uint32_t> sel;
  switch (shape) {
    case SelShape::kIdentity:
      for (size_t i = 0; i < n; ++i) sel.push_back(static_cast<uint32_t>(i));
      break;
    case SelShape::kSparse:
      for (size_t i = 0; i < n; i += 3) sel.push_back(static_cast<uint32_t>(i));
      break;
    case SelShape::kDenseOffset:
      // Dense run that skips row 0, so SelIsIdentity is false even though
      // consecutive rows are adjacent.
      for (size_t i = 1; i < n; ++i) sel.push_back(static_cast<uint32_t>(i));
      break;
    case SelShape::kEmpty:
      break;
  }
  return sel;
}

std::vector<int64_t> MakeInt64Payload(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0:
        vals[i] = 0;
        break;
      case 1:
        vals[i] = std::numeric_limits<int64_t>::min();
        break;
      case 2:
        vals[i] = std::numeric_limits<int64_t>::max();
        break;
      case 3:
        vals[i] = -1;
        break;
      case 4:
        vals[i] = 42;
        break;
      default:
        vals[i] = static_cast<int64_t>(rng());
        break;
    }
  }
  return vals;
}

std::vector<double> MakeDoublePayload(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  std::vector<double> vals(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 8) {
      case 0:
        vals[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        vals[i] = 0.0;
        break;
      case 2:
        vals[i] = -0.0;
        break;
      case 3:
        vals[i] = std::numeric_limits<double>::infinity();
        break;
      case 4:
        vals[i] = -std::numeric_limits<double>::infinity();
        break;
      case 5:
        vals[i] = 42.5;
        break;
      default:
        vals[i] = dist(rng);
        break;
    }
  }
  return vals;
}

std::string CaseLabel(size_t n, int null_shape, int sel_shape, int op) {
  return "n=" + std::to_string(n) + " nulls=" + std::to_string(null_shape) +
         " sel=" + std::to_string(sel_shape) + " op=" + std::to_string(op);
}

// --- the matrix --------------------------------------------------------------

TEST(KernelConformance, FilterInt64ColConst) {
  for (size_t n : kBatchSizes) {
    const std::vector<int64_t> vals = MakeInt64Payload(n, 0x1234 + n);
    for (NullShape null_shape : kNullShapes) {
      const std::vector<uint8_t> nulls = MakeNulls(null_shape, n);
      const uint8_t* nulls_ptr = NullsPtr(null_shape, nulls);
      auto lhs = [&](uint32_t row) {
        return ColumnValue(vals.data(), nulls_ptr, row);
      };
      for (SelShape sel_shape : kSelShapes) {
        const std::vector<uint32_t> base_sel = MakeSel(sel_shape, n);
        for (CmpOp op : kAllCmpOps) {
          for (int64_t constant :
               {int64_t{0}, int64_t{42}, std::numeric_limits<int64_t>::min(),
                std::numeric_limits<int64_t>::max()}) {
            auto rhs = [&](uint32_t) { return Value::Int64(constant); };
            std::vector<uint32_t> got_sel = base_sel;
            got_sel.resize(FilterI64ColConst(op, vals.data(), nulls_ptr,
                                             got_sel.data(), got_sel.size(),
                                             constant));
            ASSERT_EQ(RefFilter(op, lhs, rhs, base_sel), got_sel)
                << CaseLabel(n, static_cast<int>(null_shape),
                             static_cast<int>(sel_shape), static_cast<int>(op))
                << " const=" << constant;
          }
        }
      }
    }
  }
}

TEST(KernelConformance, FilterDoubleColConst) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n : kBatchSizes) {
    const std::vector<double> vals = MakeDoublePayload(n, 0x9876 + n);
    for (NullShape null_shape : kNullShapes) {
      const std::vector<uint8_t> nulls = MakeNulls(null_shape, n);
      const uint8_t* nulls_ptr = NullsPtr(null_shape, nulls);
      auto lhs = [&](uint32_t row) {
        return ColumnValue(vals.data(), nulls_ptr, row);
      };
      for (SelShape sel_shape : kSelShapes) {
        const std::vector<uint32_t> base_sel = MakeSel(sel_shape, n);
        for (CmpOp op : kAllCmpOps) {
          for (double constant : {0.0, -0.0, 42.5, kNan}) {
            auto rhs = [&](uint32_t) { return Value::Double(constant); };
            std::vector<uint32_t> got_sel = base_sel;
            got_sel.resize(FilterF64ColConst(op, vals.data(), nulls_ptr,
                                             got_sel.data(), got_sel.size(),
                                             constant));
            ASSERT_EQ(RefFilter(op, lhs, rhs, base_sel), got_sel)
                << CaseLabel(n, static_cast<int>(null_shape),
                             static_cast<int>(sel_shape), static_cast<int>(op))
                << " const=" << constant;
          }
        }
      }
    }
  }
}

TEST(KernelConformance, FilterColCol) {
  for (size_t n : kBatchSizes) {
    const std::vector<int64_t> ia = MakeInt64Payload(n, 0x11 + n);
    const std::vector<int64_t> ib = MakeInt64Payload(n, 0x22 + n);
    const std::vector<double> da = MakeDoublePayload(n, 0x33 + n);
    const std::vector<double> db = MakeDoublePayload(n, 0x44 + n);
    for (NullShape a_shape : kNullShapes) {
      const std::vector<uint8_t> a_nulls = MakeNulls(a_shape, n);
      const uint8_t* a_ptr = NullsPtr(a_shape, a_nulls);
      for (NullShape b_shape : {NullShape::kNone, NullShape::kAlternating}) {
        const std::vector<uint8_t> b_nulls = MakeNulls(b_shape, n);
        const uint8_t* b_ptr = NullsPtr(b_shape, b_nulls);
        for (SelShape sel_shape : kSelShapes) {
          const std::vector<uint32_t> base_sel = MakeSel(sel_shape, n);
          for (CmpOp op : kAllCmpOps) {
            const std::string label =
                CaseLabel(n, static_cast<int>(a_shape),
                          static_cast<int>(sel_shape), static_cast<int>(op)) +
                " b_nulls=" + std::to_string(static_cast<int>(b_shape));
            {
              auto lhs = [&](uint32_t r) {
                return ColumnValue(ia.data(), a_ptr, r);
              };
              auto rhs = [&](uint32_t r) {
                return ColumnValue(ib.data(), b_ptr, r);
              };
              std::vector<uint32_t> got_sel = base_sel;
              got_sel.resize(FilterI64ColCol(op, ia.data(), a_ptr, ib.data(),
                                             b_ptr, got_sel.data(),
                                             got_sel.size()));
              ASSERT_EQ(RefFilter(op, lhs, rhs, base_sel), got_sel)
                  << "i64 " << label;
            }
            {
              auto lhs = [&](uint32_t r) {
                return ColumnValue(da.data(), a_ptr, r);
              };
              auto rhs = [&](uint32_t r) {
                return ColumnValue(db.data(), b_ptr, r);
              };
              std::vector<uint32_t> got_sel = base_sel;
              got_sel.resize(FilterF64ColCol(op, da.data(), a_ptr, db.data(),
                                             b_ptr, got_sel.data(),
                                             got_sel.size()));
              ASSERT_EQ(RefFilter(op, lhs, rhs, base_sel), got_sel)
                  << "f64 " << label;
            }
          }
        }
      }
    }
  }
}

TEST(KernelConformance, EvalCompareByteIdentical) {
  for (size_t n : kBatchSizes) {
    const std::vector<int64_t> ia = MakeInt64Payload(n, 0x55 + n);
    const std::vector<int64_t> ib = MakeInt64Payload(n, 0x66 + n);
    const std::vector<double> da = MakeDoublePayload(n, 0x77 + n);
    const std::vector<double> db = MakeDoublePayload(n, 0x88 + n);
    for (NullShape a_shape : kNullShapes) {
      const std::vector<uint8_t> a_nulls = MakeNulls(a_shape, n);
      const uint8_t* a_ptr = NullsPtr(a_shape, a_nulls);
      for (NullShape b_shape : {NullShape::kNone, NullShape::kAlternating}) {
        const std::vector<uint8_t> b_nulls = MakeNulls(b_shape, n);
        const uint8_t* b_ptr = NullsPtr(b_shape, b_nulls);
        for (SelShape sel_shape : kSelShapes) {
          const std::vector<uint32_t> sel = MakeSel(sel_shape, n);
          const size_t out_n = sel.size();
          for (CmpOp op : kAllCmpOps) {
            const std::string label =
                CaseLabel(n, static_cast<int>(a_shape),
                          static_cast<int>(sel_shape), static_cast<int>(op)) +
                " b_nulls=" + std::to_string(static_cast<int>(b_shape));
            auto ia_at = [&](uint32_t r) {
              return ColumnValue(ia.data(), a_ptr, r);
            };
            auto ib_at = [&](uint32_t r) {
              return ColumnValue(ib.data(), b_ptr, r);
            };
            auto da_at = [&](uint32_t r) {
              return ColumnValue(da.data(), a_ptr, r);
            };
            auto db_at = [&](uint32_t r) {
              return ColumnValue(db.data(), b_ptr, r);
            };
            auto i42 = [](uint32_t) { return Value::Int64(42); };
            auto d0 = [](uint32_t) { return Value::Double(0.0); };
            // Outputs start as garbage, so a kernel that skips a row shows.
            std::vector<int64_t> vals(out_n, -7);
            std::vector<uint8_t> nulls(out_n, 9);

            EvalI64ColConst(op, ia.data(), a_ptr, sel.data(), out_n, 42,
                            vals.data(), nulls.data());
            ASSERT_EQ("", CheckEval(op, ia_at, i42, sel, vals, nulls))
                << "i64 col-const " << label;
            EvalF64ColConst(op, da.data(), a_ptr, sel.data(), out_n, 0.0,
                            vals.data(), nulls.data());
            ASSERT_EQ("", CheckEval(op, da_at, d0, sel, vals, nulls))
                << "f64 col-const " << label;
            EvalI64ColCol(op, ia.data(), a_ptr, ib.data(), b_ptr, sel.data(),
                          out_n, vals.data(), nulls.data());
            ASSERT_EQ("", CheckEval(op, ia_at, ib_at, sel, vals, nulls))
                << "i64 col-col " << label;
            EvalF64ColCol(op, da.data(), a_ptr, db.data(), b_ptr, sel.data(),
                          out_n, vals.data(), nulls.data());
            ASSERT_EQ("", CheckEval(op, da_at, db_at, sel, vals, nulls))
                << "f64 col-col " << label;
          }
        }
      }
    }
  }
}

TEST(KernelConformance, FusedArithByteIdentical) {
  for (size_t n : kBatchSizes) {
    const std::vector<int64_t> ix = MakeInt64Payload(n, 0xa1 + n);
    const std::vector<int64_t> iy = MakeInt64Payload(n, 0xb2 + n);
    const std::vector<int64_t> iz = MakeInt64Payload(n, 0xc3 + n);
    const std::vector<double> dx = MakeDoublePayload(n, 0xd4 + n);
    const std::vector<double> dy = MakeDoublePayload(n, 0xe5 + n);
    const std::vector<double> dz = MakeDoublePayload(n, 0xf6 + n);
    const std::vector<uint8_t> x_nulls = MakeNulls(NullShape::kAlternating, n);
    const std::vector<uint8_t> z_nulls = MakeNulls(NullShape::kSparse, n);
    // y's NULLs fall on odd rows, where x is non-null, so a kernel that
    // drops y from the null OR shows.
    std::vector<uint8_t> y_nulls(n, 0);
    for (size_t i = 3; i < n; i += 10) y_nulls[i] = 1;
    for (SelShape sel_shape : kSelShapes) {
      const std::vector<uint32_t> sel = MakeSel(sel_shape, n);
      const size_t out_n = sel.size();
      for (ArithOp inner : kAllArithOps) {
        for (ArithOp outer : kAllArithOps) {
          for (bool inner_on_left : {true, false}) {
            for (bool y_is_const : {false, true}) {
              const std::string label =
                  "n=" + std::to_string(n) +
                  " sel=" + std::to_string(static_cast<int>(sel_shape)) +
                  " inner=" + std::to_string(static_cast<int>(inner)) +
                  " outer=" + std::to_string(static_cast<int>(outer)) +
                  " left=" + std::to_string(inner_on_left) +
                  " yconst=" + std::to_string(y_is_const);
              std::vector<uint8_t> nulls(out_n, 9);

              const I64Operand x{ix.data(), x_nulls.data(), 0};
              const I64Operand y =
                  y_is_const ? I64Operand{nullptr, nullptr, -3}
                             : I64Operand{iy.data(), y_nulls.data(), 0};
              const I64Operand z{iz.data(), z_nulls.data(), 0};
              std::vector<int64_t> ivals(out_n, -7);
              FusedArithI64(inner, outer, inner_on_left, x, y, z, sel.data(),
                            out_n, ivals.data(), nulls.data());
              ASSERT_EQ("", CheckFused(inner, outer, inner_on_left, x, y, z,
                                       sel, ivals, nulls))
                  << "i64 " << label;

              const F64Operand fx{dx.data(), x_nulls.data(), 0.0};
              const F64Operand fy =
                  y_is_const ? F64Operand{nullptr, nullptr, 2.5}
                             : F64Operand{dy.data(), y_nulls.data(), 0.0};
              const F64Operand fz{dz.data(), z_nulls.data(), 0.0};
              std::vector<double> fvals(out_n, -7.0);
              std::fill(nulls.begin(), nulls.end(), 9);
              FusedArithF64(inner, outer, inner_on_left, fx, fy, fz,
                            sel.data(), out_n, fvals.data(), nulls.data());
              ASSERT_EQ("", CheckFused(inner, outer, inner_on_left, fx, fy, fz,
                                       sel, fvals, nulls))
                  << "f64 " << label;
            }
          }
        }
      }
    }
  }
}

// Literal expectations for the semantics the reference encodes, so a
// mistake shared by the reference and the kernels still shows.
TEST(KernelConformance, ValueSemanticsSpotChecks) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> d = {kNan, 1.0, -0.0, 0.0, 2.0};
  const std::vector<uint8_t> d_nulls = {0, 0, 0, 0, 1};
  auto filter_f64 = [&](CmpOp op, double constant) {
    std::vector<uint32_t> sel = {0, 1, 2, 3, 4};
    sel.resize(FilterF64ColConst(op, d.data(), d_nulls.data(), sel.data(),
                                 sel.size(), constant));
    return sel;
  };
  // NaN equals everything; -0.0 equals 0.0; the NULL row never survives.
  EXPECT_EQ(filter_f64(CmpOp::kEq, 0.0), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(filter_f64(CmpOp::kNe, 0.0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(filter_f64(CmpOp::kLt, kNan), (std::vector<uint32_t>{}));
  EXPECT_EQ(filter_f64(CmpOp::kLe, kNan),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(filter_f64(CmpOp::kGe, 1.0), (std::vector<uint32_t>{0, 1}));

  // A NULL on either side sets the eval null byte to exactly 1.
  const std::vector<int64_t> a = {1, 2, 3};
  const std::vector<int64_t> b = {1, 3, 2};
  const std::vector<uint8_t> b_nulls = {0, 0, 1};
  const std::vector<uint32_t> sel = {0, 1, 2};
  std::vector<int64_t> vals(3, -7);
  std::vector<uint8_t> nulls(3, 9);
  EvalI64ColCol(CmpOp::kLe, a.data(), nullptr, b.data(), b_nulls.data(),
                sel.data(), sel.size(), vals.data(), nulls.data());
  EXPECT_EQ(nulls, (std::vector<uint8_t>{0, 0, 1}));
  EXPECT_EQ(vals[0], 1);
  EXPECT_EQ(vals[1], 1);

  // int64 wraps: (INT64_MAX + 1) * 2 == 0 and (INT64_MIN - 1) + 0 ==
  // INT64_MAX.
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<int64_t> xs = {kMax, kMin};
  const std::vector<int64_t> ys = {1, 1};
  const std::vector<uint32_t> sel2 = {0, 1};
  std::vector<int64_t> wrapped(2, -7);
  std::vector<uint8_t> wrapped_nulls(2, 9);
  FusedArithI64(ArithOp::kAdd, ArithOp::kMul, true,
                I64Operand{xs.data(), nullptr, 0},
                I64Operand{ys.data(), nullptr, 0},
                I64Operand{nullptr, nullptr, 2}, sel2.data(), 1,
                wrapped.data(), wrapped_nulls.data());
  EXPECT_EQ(wrapped[0], 0);
  FusedArithI64(ArithOp::kSub, ArithOp::kAdd, true,
                I64Operand{xs.data(), nullptr, 0},
                I64Operand{ys.data(), nullptr, 0},
                I64Operand{nullptr, nullptr, 0}, sel2.data() + 1, 1,
                wrapped.data(), wrapped_nulls.data());
  EXPECT_EQ(wrapped[0], kMax);
  EXPECT_EQ(wrapped_nulls[0], 0);

  // Doubles round after each operation: 0.1 * 10.0 rounds to exactly 1.0
  // before the subtraction, whereas one FMA would leave about 5.55e-17.
  const std::vector<double> tenth = {0.1};
  const std::vector<uint32_t> one = {0};
  std::vector<double> residual(1, -7.0);
  std::vector<uint8_t> residual_null(1, 9);
  FusedArithF64(ArithOp::kMul, ArithOp::kSub, true,
                F64Operand{tenth.data(), nullptr, 0.0},
                F64Operand{nullptr, nullptr, 10.0},
                F64Operand{nullptr, nullptr, 1.0}, one.data(), 1,
                residual.data(), residual_null.data());
  EXPECT_EQ(residual[0], 0.0);
  EXPECT_EQ(residual_null[0], 0);
}

TEST(KernelDispatch, HasNullsProbesExactPrefix) {
  std::vector<uint8_t> nulls(100, 0);
  EXPECT_FALSE(HasNulls(nulls.data(), nulls.size()));
  EXPECT_FALSE(HasNulls(nullptr, 50));
  nulls[99] = 1;
  EXPECT_TRUE(HasNulls(nulls.data(), 100));
  EXPECT_FALSE(HasNulls(nulls.data(), 99));
  EXPECT_FALSE(HasNulls(nulls.data(), 0));
}

TEST(KernelDispatch, SelIsIdentityChecksEndpoints) {
  std::vector<uint32_t> sel = {0, 1, 2, 3};
  EXPECT_TRUE(SelIsIdentity(sel.data(), sel.size()));
  EXPECT_TRUE(SelIsIdentity(sel.data(), 0));
  std::vector<uint32_t> gap = {0, 2, 3};
  EXPECT_FALSE(SelIsIdentity(gap.data(), gap.size()));
  std::vector<uint32_t> offset = {1, 2, 3};
  EXPECT_FALSE(SelIsIdentity(offset.data(), offset.size()));
}

}  // namespace
}  // namespace vdb::plan::kernels
