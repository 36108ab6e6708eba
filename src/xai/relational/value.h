#ifndef XAI_RELATIONAL_VALUE_H_
#define XAI_RELATIONAL_VALUE_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace xai::rel {

class Value;
/// \brief A tuple is a vector of values.
using Tuple = std::vector<Value>;

/// \brief Dynamically typed SQL-ish scalar: NULL, INT, DOUBLE or STRING.
class Value {
 public:
  enum class Type { kNull, kInt, kDouble, kString };

  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }

  /// Numeric view (ints widen to double); 0 for NULL/strings.
  double AsDouble() const;
  int64_t AsInt() const;
  const std::string& AsString() const;

  /// SQL-style comparisons: NULL compares equal only to NULL (simplified
  /// two-valued logic); numeric types compare by value across INT/DOUBLE;
  /// cross-type (number vs string) compares by type order.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;

  /// The key rule group-by, distinct and the equi-join decide by
  /// (DESIGN.md §15): operator== with two changes — two INTs compare
  /// exactly, and NaN equals NaN. Other numbers compare as doubles, so
  /// INT 1 equals DOUBLE 1.0 and −0.0 equals 0.0.
  bool KeyEquals(const Value& other) const;

  /// For printing; key equality never reads it.
  std::string ToString() const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// The word the key rule compares a number by once it reads it as a
/// double: its bits, with −0.0 read as 0.0 and every NaN as one NaN.
inline uint64_t DoubleKeyWord(double v) {
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  return std::bit_cast<uint64_t>(v);
}

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_VALUE_H_
