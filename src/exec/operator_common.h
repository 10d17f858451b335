// Helpers shared by both executors: hashable grouping keys, aggregate
// state machines, and sort comparators.

#ifndef VDB_EXEC_OPERATOR_COMMON_H_
#define VDB_EXEC_OPERATOR_COMMON_H_

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "exec/execution_context.h"
#include "optimizer/physical.h"
#include "plan/expr.h"
#include "plan/logical.h"
#include "storage/page.h"
#include "util/result.h"

// Row-level helpers shared by the row (materializing) executor and the
// batch executor. Both engines must charge identical simulated time for
// identical plans — the golden figure tests pin those totals — so the
// shared pieces of the cost accounting live here.

namespace vdb::exec {

/// Hashable key for grouping and hash joins: a vector of values. Grouping
/// treats NULLs as equal (SQL GROUP BY semantics); join-key NULLs are
/// filtered out before reaching the table.
struct ValueKey {
  std::vector<catalog::Value> values;

  bool operator==(const ValueKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      const bool a_null = values[i].is_null();
      const bool b_null = other.values[i].is_null();
      if (a_null != b_null) return false;
      if (a_null) continue;
      if (catalog::Value::Compare(values[i], other.values[i]) != 0) {
        return false;
      }
    }
    return true;
  }
};

struct ValueKeyHash {
  size_t operator()(const ValueKey& key) const {
    size_t h = 14695981039346656037ULL;
    for (const catalog::Value& v : key.values) {
      h = (h ^ v.Hash()) * 1099511628211ULL;
    }
    return h;
  }
};

/// FNV-1a combination of per-value hashes, matching ValueKeyHash so the
/// two engines bucket identically.
inline size_t CombineHash(size_t h, size_t value_hash) {
  return (h ^ value_hash) * 1099511628211ULL;
}
inline constexpr size_t kHashSeed = 14695981039346656037ULL;

inline size_t HashValues(const catalog::Value* values, size_t n) {
  size_t h = kHashSeed;
  for (size_t i = 0; i < n; ++i) h = CombineHash(h, values[i].Hash());
  return h;
}

/// Key equality with NULLs equal (ValueKey semantics). Used to resolve
/// hash-bucket candidates; callers must check this BEFORE charging any
/// comparison cost so that hash collisions stay free, exactly as they
/// were with an exact-key map.
inline bool KeysEqual(const catalog::Value* a, const catalog::Value* b,
                      size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const bool a_null = a[i].is_null();
    const bool b_null = b[i].is_null();
    if (a_null != b_null) return false;
    if (a_null) continue;
    if (catalog::Value::Compare(a[i], b[i]) != 0) return false;
  }
  return true;
}

/// Bucket-count reservation from a planner cardinality estimate (clamped;
/// estimates are advisory and occasionally wild).
inline size_t EstimateReserve(double estimated_rows) {
  if (!(estimated_rows > 0.0)) return 0;
  return static_cast<size_t>(std::min(estimated_rows, 1.0e6));
}

inline double PagesFor(double bytes) {
  return std::max(
      1.0, std::ceil(bytes / static_cast<double>(storage::kPageSize)));
}

/// Three-way tuple comparison for ORDER BY (NULLS LAST on ascending keys).
inline int CompareForSort(const catalog::Value& a, const catalog::Value& b,
                          bool ascending) {
  const bool a_null = a.is_null();
  const bool b_null = b.is_null();
  if (a_null && b_null) return 0;
  if (a_null) return ascending ? 1 : -1;
  if (b_null) return ascending ? -1 : 1;
  const int cmp = catalog::Value::Compare(a, b);
  return ascending ? cmp : -cmp;
}

/// Evaluates each expression of `exprs` over `row`.
std::vector<catalog::Value> EvalAll(
    const std::vector<plan::BoundExprPtr>& exprs, const catalog::Tuple& row);

double TotalOps(const std::vector<plan::BoundExprPtr>& exprs);

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_double = false;
  catalog::Value min_value;
  catalog::Value max_value;
  bool has_min_max = false;
  std::set<std::string> distinct_seen;

  void Update(const plan::AggSpec& spec, const catalog::Value& v);
  catalog::Value Finalize(const plan::AggSpec& spec) const;
};

catalog::Tuple ConcatRows(const catalog::Tuple& left,
                          const catalog::Tuple& right);

catalog::Tuple NullsFor(const std::vector<plan::OutputColumn>& columns);

/// Clones `expr` and resolves its column slots against `input`.
Result<plan::BoundExprPtr> ResolveExpr(
    const plan::BoundExpr& expr,
    const std::vector<plan::OutputColumn>& input);

/// If `keys` is exactly one resolved column reference, returns it (the
/// borrow fast path for hash join/aggregate keys); otherwise nullptr.
const plan::ColumnExpr* SingleColumnKey(
    const std::vector<plan::BoundExprPtr>& keys);

/// The merge-join loop over sorted, materialized inputs. Keys and residual
/// must already be resolved (`residual` may be null). Charges the context
/// exactly as the row executor always has; both engines call this.
Result<std::vector<catalog::Tuple>> MergeJoinRows(
    ExecutionContext* context, const std::vector<catalog::Tuple>& left_rows,
    const std::vector<catalog::Tuple>& right_rows,
    const plan::BoundExpr& left_key, const plan::BoundExpr& right_key,
    const plan::BoundExpr* residual);

/// The nested-loop join over materialized inputs (`condition` may be
/// null), including the inner-side spill model. Both engines call this.
Result<std::vector<catalog::Tuple>> NestedLoopJoinRows(
    ExecutionContext* context, plan::LogicalJoinType join_type,
    const std::vector<plan::OutputColumn>& right_output,
    const std::vector<catalog::Tuple>& left_rows,
    const std::vector<catalog::Tuple>& right_rows,
    const plan::BoundExpr* condition);

/// Approximate in-memory byte size of a tuple (for spill decisions).
double ApproxTupleBytes(const catalog::Tuple& tuple);

}  // namespace vdb::exec

#endif  // VDB_EXEC_OPERATOR_COMMON_H_
