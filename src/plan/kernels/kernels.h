// Expression kernels for the batch engine (DESIGN.md §15): the typed
// inner loops behind comparison filters, comparison evaluation and fused
// two-op arithmetic over int64/double columns and constants. One
// portable implementation, called directly by plan/expr_batch.cc.
//
// Results follow catalog::Value semantics: a three-way compare that
// treats NaN as equal to everything (as catalog::CompareAt does), a NULL
// input drops the row from a filter and sets the null byte in an eval,
// int64 `+ - *` wrap around, and doubles round after each operation.
// Payloads are computed for every row, null ones included, and then
// masked by the null OR. The conformance test
// (tests/kernel_conformance_test.cc) checks every kernel against a
// per-element Value-semantics reference; `vdb_fuzz --mode kernels`
// checks the batch engine against the row engine.

#ifndef VDB_PLAN_KERNELS_KERNELS_H_
#define VDB_PLAN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace vdb::plan::kernels {

/// Comparison operators, mirroring the sql::BinaryOp comparison subset.
enum class CmpOp : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Fusable arithmetic operators (division and modulo produce NULL on
/// zero divisors and stay on the unfused path).
enum class ArithOp : uint8_t { kAdd = 0, kSub, kMul };

/// One operand of a fused arithmetic chain: a column (payload indexed by
/// the selection vector, optional null bytes) or, when `vals` is null, a
/// broadcast constant.
struct I64Operand {
  const int64_t* vals = nullptr;
  const uint8_t* nulls = nullptr;  // nullptr: proven null-free
  int64_t constant = 0;
};
struct F64Operand {
  const double* vals = nullptr;
  const uint8_t* nulls = nullptr;
  double constant = 0.0;
};

// Filter kernels compact `sel` in place (keep rows where the compare
// holds and both inputs are non-null) and return the kept count; column
// payloads are indexed by `sel[i]`. Eval kernels write dense 0/1
// payloads to `out_vals[i]` and ORed null bytes to `out_nulls[i]`. A
// null `nulls` pointer marks a column the caller proved null-free, which
// skips the per-row null logic for the whole batch.

size_t FilterI64ColConst(CmpOp op, const int64_t* vals, const uint8_t* nulls,
                         uint32_t* sel, size_t n, int64_t constant);
size_t FilterF64ColConst(CmpOp op, const double* vals, const uint8_t* nulls,
                         uint32_t* sel, size_t n, double constant);
size_t FilterI64ColCol(CmpOp op, const int64_t* a, const uint8_t* a_nulls,
                       const int64_t* b, const uint8_t* b_nulls,
                       uint32_t* sel, size_t n);
size_t FilterF64ColCol(CmpOp op, const double* a, const uint8_t* a_nulls,
                       const double* b, const uint8_t* b_nulls, uint32_t* sel,
                       size_t n);

void EvalI64ColConst(CmpOp op, const int64_t* vals, const uint8_t* nulls,
                     const uint32_t* sel, size_t n, int64_t constant,
                     int64_t* out_vals, uint8_t* out_nulls);
void EvalF64ColConst(CmpOp op, const double* vals, const uint8_t* nulls,
                     const uint32_t* sel, size_t n, double constant,
                     int64_t* out_vals, uint8_t* out_nulls);
void EvalI64ColCol(CmpOp op, const int64_t* a, const uint8_t* a_nulls,
                   const int64_t* b, const uint8_t* b_nulls,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls);
void EvalF64ColCol(CmpOp op, const double* a, const uint8_t* a_nulls,
                   const double* b, const uint8_t* b_nulls,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls);

/// Fused two-op arithmetic: `(x inner y) outer z` when `inner_on_left`,
/// else `z outer (x inner y)` — one pass, no intermediate vector.
/// Evaluation order matches the unfused two-pass path exactly (separate
/// mul/add, never FMA-contracted), so results are bitwise identical.
void FusedArithI64(ArithOp inner, ArithOp outer, bool inner_on_left,
                   I64Operand x, I64Operand y, I64Operand z,
                   const uint32_t* sel, size_t n, int64_t* out_vals,
                   uint8_t* out_nulls);
void FusedArithF64(ArithOp inner, ArithOp outer, bool inner_on_left,
                   F64Operand x, F64Operand y, F64Operand z,
                   const uint32_t* sel, size_t n, double* out_vals,
                   uint8_t* out_nulls);

/// True when any of the first `n` null bytes is set. The per-batch
/// null-free check behind the kernels' no-null path.
bool HasNulls(const uint8_t* nulls, size_t n);

/// True when `sel` is the identity permutation 0..n-1 (fresh scan
/// batches).
inline bool SelIsIdentity(const uint32_t* sel, size_t n) {
  // sel is ascending and duplicate-free, so testing the ends suffices.
  return n == 0 || (sel[0] == 0 && sel[n - 1] == n - 1);
}

}  // namespace vdb::plan::kernels

#endif  // VDB_PLAN_KERNELS_KERNELS_H_
