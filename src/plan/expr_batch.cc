// Batch (columnar) evaluation kernels for bound expressions. Each kernel
// must be value-equivalent to the scalar Evaluate in expr.cc: same NULL
// propagation, same type of every produced value, same three-valued
// logic. The differential fuzzer cross-checks the two paths query for
// query, so any divergence here is a test failure, not just a perf bug.

#include <algorithm>
#include <iterator>

#include "plan/expr.h"
#include "plan/kernels/kernels.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vdb::plan {

namespace {

using catalog::Batch;
using catalog::TypeId;
using catalog::Value;
using catalog::ValueVector;

// View over an evaluated operand. Columns are borrowed straight from the
// batch (indexed by physical row id), constants materialize one slot that
// every row maps to, and anything else evaluates into a dense scratch
// vector (indexed by active position). `Index` translates an active
// position into the right index for `vec()`.
class OperandView {
 public:
  OperandView(const BoundExpr& expr, const Batch& batch) {
    if (expr.kind() == BoundExprKind::kColumn) {
      vec_ = &batch.columns[static_cast<const ColumnExpr&>(expr).slot()];
      mode_ = kBorrowed;
    } else if (expr.kind() == BoundExprKind::kConstant) {
      const Value& v = static_cast<const ConstantExpr&>(expr).value();
      scratch_.Reset(v.type(), 1);
      scratch_.SetValue(0, v);
      vec_ = &scratch_;
      mode_ = kConstant;
    } else {
      expr.EvaluateBatch(batch, &scratch_);
      vec_ = &scratch_;
      mode_ = kDense;
    }
  }

  const ValueVector& vec() const { return *vec_; }

  size_t Index(const Batch& batch, size_t pos) const {
    switch (mode_) {
      case kBorrowed:
        return batch.sel[pos];
      case kConstant:
        return 0;
      default:
        return pos;
    }
  }

 private:
  enum Mode { kBorrowed, kConstant, kDense };
  Mode mode_ = kDense;
  const ValueVector* vec_ = nullptr;
  ValueVector scratch_;
};

bool ComparisonHolds(sql::BinaryOp op, int cmp) {
  switch (op) {
    case sql::BinaryOp::kEq:
      return cmp == 0;
    case sql::BinaryOp::kNe:
      return cmp != 0;
    case sql::BinaryOp::kLt:
      return cmp < 0;
    case sql::BinaryOp::kLe:
      return cmp <= 0;
    case sql::BinaryOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;
  }
}

bool IsComparison(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Which comparison channel a (left, right) vector pair resolves to.
// catalog::CompareAt re-derives this from the operand types on every row;
// both types are batch-invariant, so the comparison kernels hoist the
// dispatch out of the loop and run a tight typed body the compiler can
// auto-vectorize. The channel choice mirrors CompareAt exactly: strings
// compare as strings, any double operand promotes both sides to double,
// everything else (int64 / bool / date) compares on the int64 channel.
enum class CompareChannel { kInt64, kDouble, kGeneric };

CompareChannel ChannelFor(const ValueVector& l, const ValueVector& r) {
  if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
    return CompareChannel::kGeneric;
  }
  if (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble) {
    return CompareChannel::kDouble;
  }
  return CompareChannel::kInt64;
}

// Compacts `batch->sel` keeping the active rows whose dense result in
// `flags` (a kBool vector) is non-null true.
void CompactByBools(const ValueVector& flags, Batch* batch) {
  size_t kept = 0;
  for (size_t i = 0; i < batch->sel.size(); ++i) {
    if (!flags.IsNull(i) && flags.GetInt64(i) != 0) {
      batch->sel[kept++] = batch->sel[i];
    }
  }
  batch->sel.resize(kept);
}

// --- kernel fast paths (src/plan/kernels/) ----------------------------------
// Comparisons and fused arithmetic over column/constant operands on the
// int64 or double channel call the expression kernels.
// Anything outside that domain (strings, dense sub-expression operands,
// null constants, mixed int/double columns) falls back to the loops
// below, which remain the semantic reference.

namespace kern = ::vdb::plan::kernels;

bool KernelCmpOpFor(sql::BinaryOp op, kern::CmpOp* out) {
  switch (op) {
    case sql::BinaryOp::kEq:
      *out = kern::CmpOp::kEq;
      return true;
    case sql::BinaryOp::kNe:
      *out = kern::CmpOp::kNe;
      return true;
    case sql::BinaryOp::kLt:
      *out = kern::CmpOp::kLt;
      return true;
    case sql::BinaryOp::kLe:
      *out = kern::CmpOp::kLe;
      return true;
    case sql::BinaryOp::kGt:
      *out = kern::CmpOp::kGt;
      return true;
    case sql::BinaryOp::kGe:
      *out = kern::CmpOp::kGe;
      return true;
    default:
      return false;
  }
}

// `a op b` with the constant on the left becomes `b mirror(op) a`.
kern::CmpOp MirrorCmpOp(kern::CmpOp op) {
  switch (op) {
    case kern::CmpOp::kLt:
      return kern::CmpOp::kGt;
    case kern::CmpOp::kLe:
      return kern::CmpOp::kGe;
    case kern::CmpOp::kGt:
      return kern::CmpOp::kLt;
    case kern::CmpOp::kGe:
      return kern::CmpOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

const ValueVector* LeafColumn(const BoundExpr& e, const Batch& batch) {
  if (e.kind() != BoundExprKind::kColumn) return nullptr;
  return &batch.columns[static_cast<const ColumnExpr&>(e).slot()];
}

const Value* LeafConstant(const BoundExpr& e) {
  if (e.kind() != BoundExprKind::kConstant) return nullptr;
  return &static_cast<const ConstantExpr&>(e).value();
}

// Per-batch null-free probe: a column with no set null byte among the
// batch's physical rows takes the kernels' no-null fast path.
const uint8_t* NullsOrNullptr(const ValueVector& col, size_t rows) {
  return kern::HasNulls(col.NullData(), rows) ? col.NullData() : nullptr;
}

// A comparison in kernel-eligible shape: column vs column or column vs
// non-null constant, on one numeric channel (the double channel demands
// actual kDouble columns; promoted int64 columns fall back).
struct KernelCompare {
  kern::CmpOp op = kern::CmpOp::kEq;
  bool is_double = false;
  const ValueVector* lhs = nullptr;      // always a column
  const ValueVector* rhs_col = nullptr;  // null when rhs is a constant
  const Value* rhs_const = nullptr;
};

bool ClassifyKernelCompare(sql::BinaryOp op, const BoundExpr& left,
                           const BoundExpr& right, const Batch& batch,
                           KernelCompare* out) {
  if (!KernelCmpOpFor(op, &out->op)) return false;
  const TypeId lt = left.type();
  const TypeId rt = right.type();
  if (lt == TypeId::kString || rt == TypeId::kString) return false;
  out->is_double = lt == TypeId::kDouble || rt == TypeId::kDouble;
  const ValueVector* lcol = LeafColumn(left, batch);
  const ValueVector* rcol = LeafColumn(right, batch);
  if (lcol != nullptr && rcol != nullptr) {
    out->lhs = lcol;
    out->rhs_col = rcol;
  } else if (lcol != nullptr) {
    const Value* c = LeafConstant(right);
    if (c == nullptr || c->is_null()) return false;
    out->lhs = lcol;
    out->rhs_const = c;
  } else if (rcol != nullptr) {
    const Value* c = LeafConstant(left);
    if (c == nullptr || c->is_null()) return false;
    out->op = MirrorCmpOp(out->op);
    out->lhs = rcol;
    out->rhs_const = c;
  } else {
    return false;
  }
  if (out->is_double) {
    if (out->lhs->type() != TypeId::kDouble) return false;
    if (out->rhs_col != nullptr && out->rhs_col->type() != TypeId::kDouble) {
      return false;
    }
  }
  return true;
}

bool TryKernelFilterCompare(sql::BinaryOp op, const BoundExpr& left,
                            const BoundExpr& right, Batch* batch) {
  KernelCompare cmp;
  if (!ClassifyKernelCompare(op, left, right, *batch, &cmp)) return false;
  const size_t n = batch->sel.size();
  uint32_t* sel = batch->sel.data();
  const size_t rows = batch->num_rows;
  const uint8_t* lnulls = NullsOrNullptr(*cmp.lhs, rows);
  size_t kept = 0;
  if (cmp.is_double) {
    if (cmp.rhs_col != nullptr) {
      kept = kern::FilterF64ColCol(cmp.op, cmp.lhs->DoubleData(), lnulls,
                                   cmp.rhs_col->DoubleData(),
                                   NullsOrNullptr(*cmp.rhs_col, rows), sel, n);
    } else {
      kept = kern::FilterF64ColConst(cmp.op, cmp.lhs->DoubleData(), lnulls,
                                     sel, n, cmp.rhs_const->AsDouble());
    }
  } else {
    if (cmp.rhs_col != nullptr) {
      kept = kern::FilterI64ColCol(cmp.op, cmp.lhs->Int64Data(), lnulls,
                                   cmp.rhs_col->Int64Data(),
                                   NullsOrNullptr(*cmp.rhs_col, rows), sel, n);
    } else {
      kept = kern::FilterI64ColConst(cmp.op, cmp.lhs->Int64Data(), lnulls,
                                     sel, n, cmp.rhs_const->AsInt64());
    }
  }
  batch->sel.resize(kept);
  return true;
}

bool TryKernelEvalCompare(sql::BinaryOp op, const BoundExpr& left,
                          const BoundExpr& right, const Batch& batch,
                          ValueVector* out) {
  KernelCompare cmp;
  if (!ClassifyKernelCompare(op, left, right, batch, &cmp)) return false;
  const size_t n = batch.sel.size();
  const uint32_t* sel = batch.sel.data();
  const size_t rows = batch.num_rows;
  const uint8_t* lnulls = NullsOrNullptr(*cmp.lhs, rows);
  out->Reset(TypeId::kBool, n);
  int64_t* out_vals = out->MutableInt64Data();
  uint8_t* out_nulls = out->MutableNullData();
  if (cmp.is_double) {
    if (cmp.rhs_col != nullptr) {
      kern::EvalF64ColCol(cmp.op, cmp.lhs->DoubleData(), lnulls,
                          cmp.rhs_col->DoubleData(),
                          NullsOrNullptr(*cmp.rhs_col, rows), sel, n, out_vals,
                          out_nulls);
    } else {
      kern::EvalF64ColConst(cmp.op, cmp.lhs->DoubleData(), lnulls, sel, n,
                            cmp.rhs_const->AsDouble(), out_vals, out_nulls);
    }
  } else {
    if (cmp.rhs_col != nullptr) {
      kern::EvalI64ColCol(cmp.op, cmp.lhs->Int64Data(), lnulls,
                          cmp.rhs_col->Int64Data(),
                          NullsOrNullptr(*cmp.rhs_col, rows), sel, n, out_vals,
                          out_nulls);
    } else {
      kern::EvalI64ColConst(cmp.op, cmp.lhs->Int64Data(), lnulls, sel, n,
                            cmp.rhs_const->AsInt64(), out_vals, out_nulls);
    }
  }
  return true;
}

// --- fused arithmetic pattern matcher ---------------------------------------

bool KernelArithOpFor(sql::BinaryOp op, kern::ArithOp* out) {
  switch (op) {
    case sql::BinaryOp::kAdd:
      *out = kern::ArithOp::kAdd;
      return true;
    case sql::BinaryOp::kSub:
      *out = kern::ArithOp::kSub;
      return true;
    case sql::BinaryOp::kMul:
      *out = kern::ArithOp::kMul;
      return true;
    default:
      return false;
  }
}

bool BuildI64Operand(const BoundExpr& e, const Batch& batch, size_t rows,
                     kern::I64Operand* out) {
  if (const ValueVector* col = LeafColumn(e, batch); col != nullptr) {
    if (col->type() == TypeId::kDouble || col->type() == TypeId::kString) {
      return false;
    }
    out->vals = col->Int64Data();
    out->nulls = NullsOrNullptr(*col, rows);
    return true;
  }
  if (const Value* c = LeafConstant(e); c != nullptr) {
    if (c->is_null() || c->type() == TypeId::kDouble ||
        c->type() == TypeId::kString) {
      return false;
    }
    out->vals = nullptr;
    out->nulls = nullptr;
    out->constant = c->AsInt64();
    return true;
  }
  return false;
}

bool BuildF64Operand(const BoundExpr& e, const Batch& batch, size_t rows,
                     kern::F64Operand* out) {
  if (const ValueVector* col = LeafColumn(e, batch); col != nullptr) {
    if (col->type() != TypeId::kDouble) return false;
    out->vals = col->DoubleData();
    out->nulls = NullsOrNullptr(*col, rows);
    return true;
  }
  if (const Value* c = LeafConstant(e); c != nullptr) {
    if (c->is_null() || c->type() == TypeId::kString) return false;
    out->vals = nullptr;
    out->nulls = nullptr;
    out->constant = c->AsDouble();
    return true;
  }
  return false;
}

// Matches `(x ⊕ y) ⊗ z` / `z ⊗ (x ⊕ y)` with ⊕,⊗ ∈ {+,-,*} and
// column/constant leaves, and evaluates it in one fused kernel pass with
// no intermediate vector. The fused kernels keep the two operations
// separate (never FMA-contracted), so results match the two-pass path
// bitwise; see src/plan/CMakeLists.txt for the -ffp-contract=off guard.
bool TryKernelFusedArith(const BinaryBoundExpr& expr, const Batch& batch,
                         ValueVector* out) {
  kern::ArithOp outer_op;
  if (!KernelArithOpFor(expr.op(), &outer_op)) return false;

  auto as_arith = [](const BoundExpr& e) -> const BinaryBoundExpr* {
    if (e.kind() != BoundExprKind::kBinary) return nullptr;
    const auto& b = static_cast<const BinaryBoundExpr&>(e);
    kern::ArithOp ignored;
    return KernelArithOpFor(b.op(), &ignored) ? &b : nullptr;
  };
  auto is_leaf = [](const BoundExpr& e) {
    return e.kind() == BoundExprKind::kColumn ||
           e.kind() == BoundExprKind::kConstant;
  };

  const BinaryBoundExpr* inner = nullptr;
  const BoundExpr* z_expr = nullptr;
  bool inner_on_left = false;
  if (const BinaryBoundExpr* b = as_arith(expr.left());
      b != nullptr && is_leaf(b->left()) && is_leaf(b->right()) &&
      is_leaf(expr.right())) {
    inner = b;
    z_expr = &expr.right();
    inner_on_left = true;
  } else if (const BinaryBoundExpr* r = as_arith(expr.right());
             r != nullptr && is_leaf(r->left()) && is_leaf(r->right()) &&
             is_leaf(expr.left())) {
    inner = r;
    z_expr = &expr.left();
    inner_on_left = false;
  } else {
    return false;
  }

  kern::ArithOp inner_op;
  KernelArithOpFor(inner->op(), &inner_op);
  const size_t n = batch.sel.size();
  const uint32_t* sel = batch.sel.data();
  const size_t rows = batch.num_rows;

  if (expr.type() == TypeId::kDouble) {
    // The unfused path materializes the inner result at its own type; an
    // int64-typed inner chain rounds through int64 before the promote,
    // which a double-channel fusion would skip. Only fuse all-double.
    if (inner->type() != TypeId::kDouble) return false;
    kern::F64Operand x, y, z;
    if (!BuildF64Operand(inner->left(), batch, rows, &x) ||
        !BuildF64Operand(inner->right(), batch, rows, &y) ||
        !BuildF64Operand(*z_expr, batch, rows, &z)) {
      return false;
    }
    out->Reset(TypeId::kDouble, n);
    kern::FusedArithF64(inner_op, outer_op, inner_on_left, x, y, z, sel, n,
                        out->MutableDoubleData(), out->MutableNullData());
    return true;
  }

  kern::I64Operand x, y, z;
  if (!BuildI64Operand(inner->left(), batch, rows, &x) ||
      !BuildI64Operand(inner->right(), batch, rows, &y) ||
      !BuildI64Operand(*z_expr, batch, rows, &z)) {
    return false;
  }
  using sql::BinaryOp;
  const TypeId out_type =
      expr.type() == TypeId::kDate &&
              (expr.op() == BinaryOp::kAdd || expr.op() == BinaryOp::kSub)
          ? TypeId::kDate
          : TypeId::kInt64;
  out->Reset(out_type, n);
  kern::FusedArithI64(inner_op, outer_op, inner_on_left, x, y, z, sel, n,
                      out->MutableInt64Data(), out->MutableNullData());
  return true;
}

}  // namespace

void BoundExpr::EvaluateBatch(const Batch& batch, ValueVector* out) const {
  out->Reset(type(), batch.sel.size());
  for (size_t i = 0; i < batch.sel.size(); ++i) {
    out->SetValue(i, Evaluate(batch.RowAsTuple(batch.sel[i])));
  }
}

void BoundExpr::FilterBatch(Batch* batch) const {
  ValueVector result;
  EvaluateBatch(*batch, &result);
  CompactByBools(result, batch);
}

void ConstantExpr::EvaluateBatch(const Batch& batch,
                                 ValueVector* out) const {
  out->Reset(value_.type(), batch.sel.size());
  for (size_t i = 0; i < batch.sel.size(); ++i) {
    out->SetValue(i, value_);
  }
}

void ConstantExpr::FilterBatch(Batch* batch) const {
  if (value_.is_null() || !value_.AsBool()) batch->sel.clear();
}

void ColumnExpr::EvaluateBatch(const Batch& batch, ValueVector* out) const {
  const ValueVector& column = batch.columns[slot_];
  out->Reset(column.type(), batch.sel.size());
  for (size_t i = 0; i < batch.sel.size(); ++i) {
    out->CopyFrom(column, batch.sel[i], i);
  }
}

void ColumnExpr::FilterBatch(Batch* batch) const {
  const ValueVector& column = batch->columns[slot_];
  size_t kept = 0;
  for (size_t i = 0; i < batch->sel.size(); ++i) {
    const uint32_t row = batch->sel[i];
    if (!column.IsNull(row) && column.GetInt64(row) != 0) {
      batch->sel[kept++] = batch->sel[i];
    }
  }
  batch->sel.resize(kept);
}

void UnaryBoundExpr::EvaluateBatch(const Batch& batch,
                                   ValueVector* out) const {
  const size_t n = batch.sel.size();
  const OperandView operand(*operand_, batch);
  const ValueVector& v = operand.vec();
  if (op_ == sql::UnaryOp::kNegate) {
    // Mirrors the scalar path: double stays double, every other numeric
    // negates on the int64 channel (so -DATE deliberately yields int64).
    const TypeId out_type =
        v.type() == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    out->Reset(out_type, n);
    for (size_t i = 0; i < n; ++i) {
      const size_t j = operand.Index(batch, i);
      if (v.IsNull(j)) {
        out->SetNull(i);
      } else if (out_type == TypeId::kDouble) {
        out->SetDouble(i, -v.GetDouble(j));
      } else {
        out->SetInt64(i, -v.GetInt64(j));
      }
    }
    return;
  }
  out->Reset(TypeId::kBool, n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = operand.Index(batch, i);
    if (v.IsNull(j)) {
      out->SetNull(i);
    } else {
      out->SetInt64(i, v.GetInt64(j) != 0 ? 0 : 1);
    }
  }
}

void BinaryBoundExpr::EvaluateBatch(const Batch& batch,
                                    ValueVector* out) const {
  using sql::BinaryOp;
  const size_t n = batch.sel.size();

  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    // Both sides are side-effect free, so evaluating the right side even
    // where the scalar path would short-circuit produces the same values.
    const OperandView left(*left_, batch);
    const OperandView right(*right_, batch);
    const ValueVector& l = left.vec();
    const ValueVector& r = right.vec();
    out->Reset(TypeId::kBool, n);
    for (size_t i = 0; i < n; ++i) {
      const size_t li = left.Index(batch, i);
      const size_t ri = right.Index(batch, i);
      const bool l_null = l.IsNull(li);
      const bool r_null = r.IsNull(ri);
      const bool l_true = !l_null && l.GetInt64(li) != 0;
      const bool r_true = !r_null && r.GetInt64(ri) != 0;
      if (op_ == BinaryOp::kAnd) {
        if ((!l_null && !l_true) || (!r_null && !r_true)) {
          out->SetInt64(i, 0);
        } else if (l_null || r_null) {
          out->SetNull(i);
        } else {
          out->SetInt64(i, 1);
        }
      } else {
        if (l_true || r_true) {
          out->SetInt64(i, 1);
        } else if (l_null || r_null) {
          out->SetNull(i);
        } else {
          out->SetInt64(i, 0);
        }
      }
    }
    return;
  }

  if (IsComparison(op_) &&
      TryKernelEvalCompare(op_, *left_, *right_, batch, out)) {
    return;
  }
  if (TryKernelFusedArith(*this, batch, out)) return;

  const OperandView left(*left_, batch);
  const OperandView right(*right_, batch);
  const ValueVector& l = left.vec();
  const ValueVector& r = right.vec();

  if (IsComparison(op_)) {
    out->Reset(TypeId::kBool, n);
    switch (ChannelFor(l, r)) {
      case CompareChannel::kInt64:
        for (size_t i = 0; i < n; ++i) {
          const size_t li = left.Index(batch, i);
          const size_t ri = right.Index(batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) {
            out->SetNull(i);
            continue;
          }
          const int64_t a = l.GetInt64(li);
          const int64_t b = r.GetInt64(ri);
          out->SetInt64(
              i, ComparisonHolds(op_, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0);
        }
        break;
      case CompareChannel::kDouble:
        for (size_t i = 0; i < n; ++i) {
          const size_t li = left.Index(batch, i);
          const size_t ri = right.Index(batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) {
            out->SetNull(i);
            continue;
          }
          const double a = l.AsDouble(li);
          const double b = r.AsDouble(ri);
          out->SetInt64(
              i, ComparisonHolds(op_, a < b ? -1 : (a > b ? 1 : 0)) ? 1 : 0);
        }
        break;
      case CompareChannel::kGeneric:
        for (size_t i = 0; i < n; ++i) {
          const size_t li = left.Index(batch, i);
          const size_t ri = right.Index(batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) {
            out->SetNull(i);
            continue;
          }
          out->SetInt64(
              i, ComparisonHolds(op_, catalog::CompareAt(l, li, r, ri)) ? 1
                                                                        : 0);
        }
        break;
    }
    return;
  }

  // Arithmetic. The static type decides the channel exactly like the
  // scalar path: kDouble computes on doubles, everything else on int64
  // (with kDate results only for +/- per ArithmeticResultType).
  if (type() == TypeId::kDouble) {
    out->Reset(TypeId::kDouble, n);
    for (size_t i = 0; i < n; ++i) {
      const size_t li = left.Index(batch, i);
      const size_t ri = right.Index(batch, i);
      if (l.IsNull(li) || r.IsNull(ri)) {
        out->SetNull(i);
        continue;
      }
      const double a = l.AsDouble(li);
      const double b = r.AsDouble(ri);
      switch (op_) {
        case BinaryOp::kAdd:
          out->SetDouble(i, a + b);
          break;
        case BinaryOp::kSub:
          out->SetDouble(i, a - b);
          break;
        case BinaryOp::kMul:
          out->SetDouble(i, a * b);
          break;
        case BinaryOp::kDiv:
          if (b == 0.0) {
            out->SetNull(i);
          } else {
            out->SetDouble(i, a / b);
          }
          break;
        default:
          out->SetNull(i);
          break;
      }
    }
    return;
  }

  const TypeId out_type =
      type() == TypeId::kDate &&
              (op_ == BinaryOp::kAdd || op_ == BinaryOp::kSub)
          ? TypeId::kDate
          : TypeId::kInt64;
  out->Reset(out_type, n);
  for (size_t i = 0; i < n; ++i) {
    const size_t li = left.Index(batch, i);
    const size_t ri = right.Index(batch, i);
    if (l.IsNull(li) || r.IsNull(ri)) {
      out->SetNull(i);
      continue;
    }
    const int64_t a = l.GetInt64(li);
    const int64_t b = r.GetInt64(ri);
    switch (op_) {
      case BinaryOp::kAdd:
        out->SetInt64(i, a + b);
        break;
      case BinaryOp::kSub:
        out->SetInt64(i, a - b);
        break;
      case BinaryOp::kMul:
        out->SetInt64(i, a * b);
        break;
      case BinaryOp::kDiv:
        if (b == 0) {
          out->SetNull(i);
        } else {
          out->SetInt64(i, a / b);
        }
        break;
      case BinaryOp::kMod:
        if (b == 0) {
          out->SetNull(i);
        } else {
          out->SetInt64(i, a % b);
        }
        break;
      default:
        out->SetNull(i);
        break;
    }
  }
}

void BinaryBoundExpr::FilterBatch(Batch* batch) const {
  using sql::BinaryOp;
  if (op_ == BinaryOp::kAnd) {
    // A row passes a AND b iff it passes both (non-null true is the only
    // passing outcome), so chaining the selection vector is exact.
    left_->FilterBatch(batch);
    right_->FilterBatch(batch);
    return;
  }
  if (op_ == BinaryOp::kOr) {
    // Rows passing the left side pass outright; only the remainder needs
    // the right side. Both subsets stay ascending, so a merge restores
    // the selection order.
    std::vector<uint32_t> original = batch->sel;
    left_->FilterBatch(batch);
    std::vector<uint32_t> passed_left = std::move(batch->sel);
    batch->sel.clear();
    std::set_difference(original.begin(), original.end(),
                        passed_left.begin(), passed_left.end(),
                        std::back_inserter(batch->sel));
    right_->FilterBatch(batch);
    std::vector<uint32_t> merged;
    merged.reserve(passed_left.size() + batch->sel.size());
    std::merge(passed_left.begin(), passed_left.end(), batch->sel.begin(),
               batch->sel.end(), std::back_inserter(merged));
    batch->sel = std::move(merged);
    return;
  }
  if (IsComparison(op_)) {
    if (TryKernelFilterCompare(op_, *left_, *right_, batch)) return;
    const OperandView left(*left_, *batch);
    const OperandView right(*right_, *batch);
    const ValueVector& l = left.vec();
    const ValueVector& r = right.vec();
    size_t kept = 0;
    switch (ChannelFor(l, r)) {
      case CompareChannel::kInt64:
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          const size_t li = left.Index(*batch, i);
          const size_t ri = right.Index(*batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) continue;
          const int64_t a = l.GetInt64(li);
          const int64_t b = r.GetInt64(ri);
          if (ComparisonHolds(op_, a < b ? -1 : (a > b ? 1 : 0))) {
            batch->sel[kept++] = batch->sel[i];
          }
        }
        break;
      case CompareChannel::kDouble:
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          const size_t li = left.Index(*batch, i);
          const size_t ri = right.Index(*batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) continue;
          const double a = l.AsDouble(li);
          const double b = r.AsDouble(ri);
          if (ComparisonHolds(op_, a < b ? -1 : (a > b ? 1 : 0))) {
            batch->sel[kept++] = batch->sel[i];
          }
        }
        break;
      case CompareChannel::kGeneric:
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          const size_t li = left.Index(*batch, i);
          const size_t ri = right.Index(*batch, i);
          if (l.IsNull(li) || r.IsNull(ri)) continue;
          if (ComparisonHolds(op_, catalog::CompareAt(l, li, r, ri))) {
            batch->sel[kept++] = batch->sel[i];
          }
        }
        break;
    }
    batch->sel.resize(kept);
    return;
  }
  BoundExpr::FilterBatch(batch);
}

void LikeBoundExpr::EvaluateBatch(const Batch& batch,
                                  ValueVector* out) const {
  const size_t n = batch.sel.size();
  const OperandView value(*value_, batch);
  const ValueVector& v = value.vec();
  out->Reset(TypeId::kBool, n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = value.Index(batch, i);
    if (v.IsNull(j)) {
      out->SetNull(i);
    } else {
      const bool match = LikeMatch(v.GetString(j), pattern_);
      out->SetInt64(i, (negated_ ? !match : match) ? 1 : 0);
    }
  }
}

void LikeBoundExpr::FilterBatch(Batch* batch) const {
  const OperandView value(*value_, *batch);
  const ValueVector& v = value.vec();
  size_t kept = 0;
  for (size_t i = 0; i < batch->sel.size(); ++i) {
    const size_t j = value.Index(*batch, i);
    if (v.IsNull(j)) continue;
    const bool match = LikeMatch(v.GetString(j), pattern_);
    if (negated_ ? !match : match) batch->sel[kept++] = batch->sel[i];
  }
  batch->sel.resize(kept);
}

void InListBoundExpr::EvaluateBatch(const Batch& batch,
                                    ValueVector* out) const {
  const size_t n = batch.sel.size();
  const OperandView value(*value_, batch);
  const ValueVector& v = value.vec();
  out->Reset(TypeId::kBool, n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = value.Index(batch, i);
    if (v.IsNull(j)) {
      out->SetNull(i);
      continue;
    }
    bool found = false;
    for (const Value& candidate : list_) {
      if (!candidate.is_null() &&
          catalog::CompareWithValue(v, j, candidate) == 0) {
        found = true;
        break;
      }
    }
    out->SetInt64(i, (negated_ ? !found : found) ? 1 : 0);
  }
}

void InListBoundExpr::FilterBatch(Batch* batch) const {
  const OperandView value(*value_, *batch);
  const ValueVector& v = value.vec();
  size_t kept = 0;
  for (size_t i = 0; i < batch->sel.size(); ++i) {
    const size_t j = value.Index(*batch, i);
    if (v.IsNull(j)) continue;
    bool found = false;
    for (const Value& candidate : list_) {
      if (!candidate.is_null() &&
          catalog::CompareWithValue(v, j, candidate) == 0) {
        found = true;
        break;
      }
    }
    if (negated_ ? !found : found) batch->sel[kept++] = batch->sel[i];
  }
  batch->sel.resize(kept);
}

void IsNullBoundExpr::EvaluateBatch(const Batch& batch,
                                    ValueVector* out) const {
  const size_t n = batch.sel.size();
  const OperandView value(*value_, batch);
  const ValueVector& v = value.vec();
  out->Reset(TypeId::kBool, n);
  for (size_t i = 0; i < n; ++i) {
    const bool is_null = v.IsNull(value.Index(batch, i));
    out->SetInt64(i, (negated_ ? !is_null : is_null) ? 1 : 0);
  }
}

void IsNullBoundExpr::FilterBatch(Batch* batch) const {
  const OperandView value(*value_, *batch);
  const ValueVector& v = value.vec();
  size_t kept = 0;
  for (size_t i = 0; i < batch->sel.size(); ++i) {
    const bool is_null = v.IsNull(value.Index(*batch, i));
    if (negated_ ? !is_null : is_null) batch->sel[kept++] = batch->sel[i];
  }
  batch->sel.resize(kept);
}

}  // namespace vdb::plan
