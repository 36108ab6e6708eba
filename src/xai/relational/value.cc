#include "xai/relational/value.h"

#include <cmath>
#include <cstdio>

namespace xai::rel {

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kInt;
    case 2:
      return Type::kDouble;
    default:
      return Type::kString;
  }
}

double Value::AsDouble() const {
  if (auto* i = std::get_if<int64_t>(&data_)) return static_cast<double>(*i);
  if (auto* d = std::get_if<double>(&data_)) return *d;
  return 0.0;
}

int64_t Value::AsInt() const {
  if (auto* i = std::get_if<int64_t>(&data_)) return *i;
  if (auto* d = std::get_if<double>(&data_))
    return static_cast<int64_t>(std::llround(*d));
  return 0;
}

const std::string& Value::AsString() const {
  static const std::string kEmpty;
  if (auto* s = std::get_if<std::string>(&data_)) return *s;
  return kEmpty;
}

namespace {

bool IsNumeric(Value::Type t) {
  return t == Value::Type::kInt || t == Value::Type::kDouble;
}

}  // namespace

bool Value::operator==(const Value& other) const {
  Type a = type(), b = other.type();
  if (a == Type::kNull || b == Type::kNull) return a == b;
  if (IsNumeric(a) && IsNumeric(b)) return AsDouble() == other.AsDouble();
  if (a != b) return false;
  return AsString() == other.AsString();
}

bool Value::KeyEquals(const Value& other) const {
  Type a = type(), b = other.type();
  if (a == Type::kInt && b == Type::kInt) return AsInt() == other.AsInt();
  if (IsNumeric(a) && IsNumeric(b))
    return DoubleKeyWord(AsDouble()) == DoubleKeyWord(other.AsDouble());
  return *this == other;
}

bool Value::operator<(const Value& other) const {
  Type a = type(), b = other.type();
  if (a == Type::kNull || b == Type::kNull) return a < b;
  if (IsNumeric(a) && IsNumeric(b)) return AsDouble() < other.AsDouble();
  if (IsNumeric(a) != IsNumeric(b)) return IsNumeric(a);
  return AsString() < other.AsString();
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "NULL";
    case Type::kInt:
      return std::to_string(AsInt());
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    default:
      return AsString();
  }
}

}  // namespace xai::rel
