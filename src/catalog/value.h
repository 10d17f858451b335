// The SQL type system and the boxed runtime Value: typed factories,
// comparison, hashing, and NULL handling.

#ifndef VDB_CATALOG_VALUE_H_
#define VDB_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/result.h"

namespace vdb::catalog {

/// SQL data types supported by the engine.
enum class TypeId : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kDate = 3,    // days since 1970-01-01, stored as int64
  kString = 4,  // VARCHAR
};

const char* TypeIdName(TypeId type);

/// True if the type is numeric (int64, double, date) for comparison and
/// arithmetic coercion purposes.
bool IsNumericType(TypeId type);

/// Converts a calendar date to days since 1970-01-01 (proleptic Gregorian).
int64_t DateFromYmd(int year, int month, int day);

/// Renders days-since-epoch as "YYYY-MM-DD".
std::string DateToString(int64_t days);

/// Parses "YYYY-MM-DD". Fails with InvalidArgument on malformed input.
Result<int64_t> ParseDate(const std::string& text);

/// A string's position on the NumericKey axis: its first 8 bytes read as
/// a big-endian fraction in [0, 1), which preserves lexicographic order.
double StringNumericKey(std::string_view s);

/// A single SQL value: a typed scalar or NULL.
class Value {
 public:
  /// Default: NULL of int64 type.
  Value() : type_(TypeId::kInt64), is_null_(true) {}

  static Value Bool(bool v) { return Value(TypeId::kBool, v); }
  static Value Int64(int64_t v) { return Value(TypeId::kInt64, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value Date(int64_t days) { return Value(TypeId::kDate, days); }
  static Value String(std::string v) {
    Value value;
    value.type_ = TypeId::kString;
    value.is_null_ = false;
    value.data_ = std::move(v);
    return value;
  }
  static Value Null(TypeId type) {
    Value value;
    value.type_ = type;
    value.is_null_ = true;
    return value;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  /// Typed accessors. Calling the wrong accessor on a non-null value is a
  /// programmer error (checked in debug builds).
  bool AsBool() const;
  int64_t AsInt64() const;
  double AsDouble() const;  // coerces int64/date/bool to double
  const std::string& AsString() const;

  /// Orders two non-null values of comparable types; returns <0, 0, or >0.
  /// Numeric types compare numerically; strings lexicographically.
  static int Compare(const Value& a, const Value& b);

  /// SQL equality (NULL never equals anything; callers handle three-valued
  /// logic above this).
  friend bool operator==(const Value& a, const Value& b) {
    if (a.is_null_ || b.is_null_) return false;
    return Compare(a, b) == 0;
  }

  /// Maps the value onto a double axis for histogram/selectivity math.
  /// Strings map via their first 8 bytes (big-endian), preserving order.
  double NumericKey() const;

  std::string ToString() const;

  /// Hash for group-by and hash joins. NULLs hash to a fixed value.
  size_t Hash() const;

 private:
  Value(TypeId type, bool v) : type_(type), is_null_(false) {
    if (type == TypeId::kBool) {
      data_ = v;
    } else {
      data_ = static_cast<int64_t>(v);
    }
  }
  Value(TypeId type, int64_t v)
      : type_(type), is_null_(false), data_(v) {}
  Value(TypeId type, double v) : type_(type), is_null_(false), data_(v) {}

  TypeId type_;
  bool is_null_;
  std::variant<bool, int64_t, double, std::string> data_;
};

}  // namespace vdb::catalog

#endif  // VDB_CATALOG_VALUE_H_
