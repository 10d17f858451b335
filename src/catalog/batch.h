// Column-major batches for the vectorized engine: typed value vectors
// with null maps and a selection vector (DESIGN.md §12).

#ifndef VDB_CATALOG_BATCH_H_
#define VDB_CATALOG_BATCH_H_

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "catalog/value.h"

namespace vdb::catalog {

/// One column of a batch: a typed, column-major array of values with a
/// byte-per-row null map. Storage is type-specialized (int64-family values
/// share `ints_`, doubles and strings have their own arrays) so the hot
/// execution paths never box scalars into `Value`. `Reset` keeps the
/// backing arrays' capacity — in particular each `std::string` slot keeps
/// its heap buffer — so a vector cycled once per batch stops allocating
/// after the first few batches.
class ValueVector {
 public:
  ValueVector() = default;
  explicit ValueVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return size_; }

  /// Clears the vector to `n` rows of type `type`, all non-null with
  /// unspecified payloads. Callers fill rows with SetX/SetNull.
  void Reset(TypeId type, size_t n);

  bool IsNull(size_t i) const { return nulls_[i] != 0; }
  void SetNull(size_t i) { nulls_[i] = 1; }
  void SetNotNull(size_t i) { nulls_[i] = 0; }

  /// Raw payload accessors. Int64, Date, and Bool all use the int64
  /// channel (Bool as 0/1), mirroring the serialized tuple format.
  int64_t GetInt64(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }
  std::string* MutableString(size_t i) { return &strings_[i]; }

  void SetInt64(size_t i, int64_t v) {
    nulls_[i] = 0;
    ints_[i] = v;
  }
  void SetDouble(size_t i, double v) {
    nulls_[i] = 0;
    doubles_[i] = v;
  }
  void SetString(size_t i, std::string_view v) {
    nulls_[i] = 0;
    strings_[i].assign(v.data(), v.size());
  }

  /// Raw array access for the expression kernels (src/plan/kernels/):
  /// contiguous payload and null-byte storage. The int64 channel backs
  /// Int64, Date, and Bool vectors; null bytes are 0 (valid) or 1 (null).
  const int64_t* Int64Data() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  const uint8_t* NullData() const { return nulls_.data(); }
  int64_t* MutableInt64Data() { return ints_.data(); }
  double* MutableDoubleData() { return doubles_.data(); }
  uint8_t* MutableNullData() { return nulls_.data(); }

  /// Boxes row `i` as a Value of this vector's type.
  Value GetValue(size_t i) const;

  /// Stores `v` into row `i`, coercing to this vector's type.
  void SetValue(size_t i, const Value& v);

  /// Copies row `src_row` of `src` (which must have the same type) into
  /// row `dst_row` of this vector.
  void CopyFrom(const ValueVector& src, size_t src_row, size_t dst_row);

  /// Numeric payload as double (int64-family coerces), for mixed-type
  /// comparisons. Row must be non-null.
  double AsDouble(size_t i) const {
    return type_ == TypeId::kDouble ? doubles_[i]
                                    : static_cast<double>(ints_[i]);
  }

  /// Hash of row `i`, identical to Value::Hash of GetValue(i).
  size_t HashAt(size_t i) const;

  /// NumericKey of non-null row `i`, identical to Value::NumericKey of
  /// GetValue(i).
  double NumericKeyAt(size_t i) const {
    return type_ == TypeId::kString ? StringNumericKey(strings_[i])
                                    : AsDouble(i);
  }

 private:
  TypeId type_ = TypeId::kInt64;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

/// Three-way comparison of `a[i]` vs `b[j]` (both non-null), identical to
/// Value::Compare on the boxed values.
int CompareAt(const ValueVector& a, size_t i, const ValueVector& b,
              size_t j);

/// Three-way comparison of `a[i]` (non-null) vs a non-null Value.
int CompareWithValue(const ValueVector& a, size_t i, const Value& v);

/// A batch of rows in column-major layout plus a selection vector. The
/// selection vector lists the *active* row indices in ascending order;
/// filters shrink it in place without moving column data. Columns always
/// hold `num_rows` physical rows; `sel` references a subset of them.
struct Batch {
  /// Default number of rows produced per batch by scans.
  static constexpr size_t kDefaultRows = 1024;

  std::vector<ValueVector> columns;
  std::vector<uint32_t> sel;
  size_t num_rows = 0;

  size_t NumActive() const { return sel.size(); }

  /// Re-types the batch to `types` with capacity for `n` rows and no
  /// active rows. Call SetRowCount once the columns are filled.
  void Reset(const std::vector<TypeId>& types, size_t n);

  /// Declares the first `n` physical rows valid and selects all of them.
  void SetRowCount(size_t n);

  /// Boxes active row `row` (a physical index, i.e. an element of `sel`)
  /// as a row-major tuple.
  std::vector<Value> RowAsTuple(size_t row) const;
};

}  // namespace vdb::catalog

#endif  // VDB_CATALOG_BATCH_H_
