// Expression kernels (see kernels.h). This translation unit compiles
// with -ffp-contract=off (src/plan/CMakeLists.txt): fused a*b+c chains
// must round twice, exactly like the unfused two-pass path, even when
// the compiler targets a CPU with FMA.

#include "plan/kernels/kernels.h"

#include <cstring>

namespace vdb::plan::kernels {

namespace {

// Every predicate is composed from IEEE `<`/`>`, so NaN compares equal
// to everything, matching the three-way `a < b ? -1 : (a > b ? 1 : 0)`
// of catalog::CompareAt. Bitwise `&`/`|` keep the compares branch-free.
template <typename T>
inline bool CmpHolds(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::kEq:
      return !(a < b) & !(a > b);
    case CmpOp::kNe:
      return (a < b) | (a > b);
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return !(a > b);
    case CmpOp::kGt:
      return a > b;
    default:
      return !(a < b);
  }
}

inline double ArithApply(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    default:
      return a * b;
  }
}

// Int64 arithmetic wraps (computed in unsigned): the kernels evaluate
// payloads unconditionally, including rows whose inputs are null and
// whose payload bytes are stale, so signed-overflow UB must be avoided.
inline int64_t ArithApply(ArithOp op, int64_t a, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a);
  const uint64_t ub = static_cast<uint64_t>(b);
  uint64_t r = 0;
  switch (op) {
    case ArithOp::kAdd:
      r = ua + ub;
      break;
    case ArithOp::kSub:
      r = ua - ub;
      break;
    default:
      r = ua * ub;
      break;
  }
  return static_cast<int64_t>(r);
}

// Filters compact without a data-dependent branch: every row is stored
// at sel[kept] and the predicate's 0/1 advances `kept`, so selectivities
// near one half cost no mispredictions. kept <= i, so the store never
// overwrites an entry the loop has yet to read.
template <typename T>
size_t FilterColConst(CmpOp op, const T* vals, const uint8_t* nulls,
                      uint32_t* sel, size_t n, T constant) {
  size_t kept = 0;
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = sel[i];
      sel[kept] = row;
      kept += CmpHolds(op, vals[row], constant);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = sel[i];
      sel[kept] = row;
      kept += (nulls[row] == 0) & CmpHolds(op, vals[row], constant);
    }
  }
  return kept;
}

template <typename T>
size_t FilterColCol(CmpOp op, const T* a, const uint8_t* a_nulls, const T* b,
                    const uint8_t* b_nulls, uint32_t* sel, size_t n) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel[i];
    const bool valid = (a_nulls == nullptr || a_nulls[row] == 0) &
                       (b_nulls == nullptr || b_nulls[row] == 0);
    sel[kept] = row;
    kept += valid & CmpHolds(op, a[row], b[row]);
  }
  return kept;
}

// Payloads are computed for every row (even null ones), so the output
// bytes are a pure function of the input bytes.

template <typename T>
void EvalColConst(CmpOp op, const T* vals, const uint8_t* nulls,
                  const uint32_t* sel, size_t n, T constant, int64_t* out_vals,
                  uint8_t* out_nulls) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel[i];
    out_vals[i] = CmpHolds(op, vals[row], constant) ? 1 : 0;
    out_nulls[i] = nulls != nullptr ? nulls[row] : 0;
  }
}

template <typename T>
void EvalColCol(CmpOp op, const T* a, const uint8_t* a_nulls, const T* b,
                const uint8_t* b_nulls, const uint32_t* sel, size_t n,
                int64_t* out_vals, uint8_t* out_nulls) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel[i];
    out_vals[i] = CmpHolds(op, a[row], b[row]) ? 1 : 0;
    uint8_t null_byte = a_nulls != nullptr ? a_nulls[row] : 0;
    null_byte |= b_nulls != nullptr ? b_nulls[row] : 0;
    out_nulls[i] = null_byte;
  }
}

template <typename T, typename Operand>
inline T OperandAt(const Operand& operand, uint32_t row) {
  return operand.vals != nullptr ? operand.vals[row] : operand.constant;
}

template <typename Operand>
inline uint8_t OperandNullAt(const Operand& operand, uint32_t row) {
  return operand.nulls != nullptr ? operand.nulls[row] : 0;
}

template <typename T, typename Operand>
void FusedArith(ArithOp inner, ArithOp outer, bool inner_on_left,
                const Operand& x, const Operand& y, const Operand& z,
                const uint32_t* sel, size_t n, T* out_vals,
                uint8_t* out_nulls) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel[i];
    const T t = ArithApply(inner, OperandAt<T>(x, row), OperandAt<T>(y, row));
    const T zv = OperandAt<T>(z, row);
    out_vals[i] = inner_on_left ? ArithApply(outer, t, zv)
                                : ArithApply(outer, zv, t);
    out_nulls[i] = OperandNullAt(x, row) | OperandNullAt(y, row) |
                   OperandNullAt(z, row);
  }
}

}  // namespace

size_t FilterI64ColConst(CmpOp op, const int64_t* vals, const uint8_t* nulls,
                         uint32_t* sel, size_t n, int64_t constant) {
  return FilterColConst(op, vals, nulls, sel, n, constant);
}

size_t FilterF64ColConst(CmpOp op, const double* vals, const uint8_t* nulls,
                         uint32_t* sel, size_t n, double constant) {
  return FilterColConst(op, vals, nulls, sel, n, constant);
}

size_t FilterI64ColCol(CmpOp op, const int64_t* a, const uint8_t* a_nulls,
                       const int64_t* b, const uint8_t* b_nulls,
                       uint32_t* sel, size_t n) {
  return FilterColCol(op, a, a_nulls, b, b_nulls, sel, n);
}

size_t FilterF64ColCol(CmpOp op, const double* a, const uint8_t* a_nulls,
                       const double* b, const uint8_t* b_nulls, uint32_t* sel,
                       size_t n) {
  return FilterColCol(op, a, a_nulls, b, b_nulls, sel, n);
}

void EvalI64ColConst(CmpOp op, const int64_t* vals, const uint8_t* nulls,
                     const uint32_t* sel, size_t n, int64_t constant,
                     int64_t* out_vals, uint8_t* out_nulls) {
  EvalColConst(op, vals, nulls, sel, n, constant, out_vals, out_nulls);
}

void EvalF64ColConst(CmpOp op, const double* vals, const uint8_t* nulls,
                     const uint32_t* sel, size_t n, double constant,
                     int64_t* out_vals, uint8_t* out_nulls) {
  EvalColConst(op, vals, nulls, sel, n, constant, out_vals, out_nulls);
}

void EvalI64ColCol(CmpOp op, const int64_t* a, const uint8_t* a_nulls,
                   const int64_t* b, const uint8_t* b_nulls,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls) {
  EvalColCol(op, a, a_nulls, b, b_nulls, sel, n, out_vals, out_nulls);
}

void EvalF64ColCol(CmpOp op, const double* a, const uint8_t* a_nulls,
                   const double* b, const uint8_t* b_nulls,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls) {
  EvalColCol(op, a, a_nulls, b, b_nulls, sel, n, out_vals, out_nulls);
}

void FusedArithI64(ArithOp inner, ArithOp outer, bool inner_on_left,
                   I64Operand x, I64Operand y, I64Operand z,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls) {
  FusedArith<int64_t>(inner, outer, inner_on_left, x, y, z, sel, n, out_vals,
                      out_nulls);
}

void FusedArithF64(ArithOp inner, ArithOp outer, bool inner_on_left,
                   F64Operand x, F64Operand y, F64Operand z,
                   const uint32_t* sel, size_t n, double* out_vals,
                   uint8_t* out_nulls) {
  FusedArith<double>(inner, outer, inner_on_left, x, y, z, sel, n, out_vals,
                     out_nulls);
}

bool HasNulls(const uint8_t* nulls, size_t n) {
  if (nulls == nullptr) return false;
  return std::memchr(nulls, 1, n) != nullptr;
}

}  // namespace vdb::plan::kernels
