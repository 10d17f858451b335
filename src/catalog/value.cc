#include "catalog/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "util/logging.h"

namespace vdb::catalog {

const char* TypeIdName(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "?";
}

bool IsNumericType(TypeId type) {
  return type == TypeId::kInt64 || type == TypeId::kDouble ||
         type == TypeId::kDate;
}

int64_t DateFromYmd(int year, int month, int day) {
  // Howard Hinnant's days_from_civil algorithm.
  const int y = year - (month <= 2 ? 1 : 0);
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 +
         static_cast<int64_t>(doe) - 719468;
}

std::string DateToString(int64_t days) {
  // civil_from_days, inverse of the above.
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  const int64_t year = y + (m <= 2 ? 1 : 0);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04lld-%02u-%02u",
                static_cast<long long>(year), m, d);
  return buf;
}

Result<int64_t> ParseDate(const std::string& text) {
  int year = 0;
  int month = 0;
  int day = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &year, &month, &day) != 3 ||
      month < 1 || month > 12 || day < 1 || day > 31) {
    return Status::InvalidArgument("malformed date: '" + text + "'");
  }
  return DateFromYmd(year, month, day);
}

bool Value::AsBool() const {
  VDB_DCHECK(!is_null_);
  if (type_ == TypeId::kBool) return std::get<bool>(data_);
  if (std::holds_alternative<int64_t>(data_)) {
    return std::get<int64_t>(data_) != 0;
  }
  VDB_CHECK(false) << "AsBool on non-bool value";
  return false;
}

int64_t Value::AsInt64() const {
  VDB_DCHECK(!is_null_);
  if (std::holds_alternative<int64_t>(data_)) {
    return std::get<int64_t>(data_);
  }
  if (std::holds_alternative<double>(data_)) {
    return static_cast<int64_t>(std::get<double>(data_));
  }
  if (std::holds_alternative<bool>(data_)) {
    return std::get<bool>(data_) ? 1 : 0;
  }
  VDB_CHECK(false) << "AsInt64 on string value";
  return 0;
}

double Value::AsDouble() const {
  VDB_DCHECK(!is_null_);
  if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  if (std::holds_alternative<bool>(data_)) {
    return std::get<bool>(data_) ? 1.0 : 0.0;
  }
  VDB_CHECK(false) << "AsDouble on string value";
  return 0.0;
}

const std::string& Value::AsString() const {
  VDB_DCHECK(!is_null_);
  VDB_CHECK(type_ == TypeId::kString) << "AsString on non-string value";
  return std::get<std::string>(data_);
}

int Value::Compare(const Value& a, const Value& b) {
  VDB_DCHECK(!a.is_null_ && !b.is_null_);
  if (a.type_ == TypeId::kString || b.type_ == TypeId::kString) {
    VDB_CHECK(a.type_ == TypeId::kString && b.type_ == TypeId::kString)
        << "comparing string with non-string";
    return a.AsString().compare(b.AsString());
  }
  if (a.type_ == TypeId::kDouble || b.type_ == TypeId::kDouble) {
    const double da = a.AsDouble();
    const double db = b.AsDouble();
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  const int64_t ia = a.AsInt64();
  const int64_t ib = b.AsInt64();
  if (ia < ib) return -1;
  if (ia > ib) return 1;
  return 0;
}

double StringNumericKey(std::string_view s) {
  double key = 0.0;
  double scale = 1.0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    scale /= 256.0;
    key += static_cast<double>(static_cast<unsigned char>(s[i])) * scale;
  }
  return key;
}

double Value::NumericKey() const {
  if (is_null_) return 0.0;
  if (type_ == TypeId::kString) return StringNumericKey(AsString());
  return AsDouble();
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return AsBool() ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(AsInt64());
    case TypeId::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case TypeId::kDate:
      return DateToString(AsInt64());
    case TypeId::kString:
      return AsString();
  }
  return "?";
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kString:
      return std::hash<std::string>{}(AsString());
    case TypeId::kDouble:
      return std::hash<double>{}(AsDouble());
    default:
      return std::hash<int64_t>{}(AsInt64());
  }
}

}  // namespace vdb::catalog
