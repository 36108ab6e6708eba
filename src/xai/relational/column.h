#ifndef XAI_RELATIONAL_COLUMN_H_
#define XAI_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/value.h"

namespace xai::rel {

/// \brief One typed column of a ColumnarRelation.
///
/// Storage classes:
///  - kInt64 : contiguous int64 payloads (NULL slots hold 0),
///  - kDouble: contiguous double payloads (NULL slots hold 0.0) plus an
///             int-origin mask so cells that arrived as Value::Int round-trip
///             back to INT through ToRows(),
///  - kString: dictionary-encoded — int32 codes into a deduplicated string
///             dictionary (NULL slots hold code 0 with the validity bit off).
///
/// Validity is one byte per row (1 = present). The class is decided by the
/// first non-NULL value appended; appending a DOUBLE into an INT column
/// promotes the whole column (recording int origins), while mixing strings
/// and numbers in one column is rejected with a Status — callers with such
/// data stay on the row-oriented Relation.
///
/// The payload conventions are chosen so the vectorized kernels reproduce
/// the row interpreter bit-for-bit: Value::AsDouble() maps NULL and STRING
/// to 0.0, which is exactly what the NULL slots store, so aggregate and
/// arithmetic kernels can stream the payload array without consulting the
/// validity mask.
class Column {
 public:
  enum class Kind { kInt64, kDouble, kString };

  Kind kind() const { return kind_; }
  int64_t size() const { return static_cast<int64_t>(valid_.size()); }
  /// True while no non-NULL value has fixed the storage class.
  bool all_null() const { return !kind_fixed_; }

  bool IsNull(int64_t row) const { return valid_[row] == 0; }
  const std::vector<uint8_t>& validity() const { return valid_; }
  /// True if any row is NULL (the compiler uses this to pick the
  /// branch-free kernels for all-valid columns).
  bool has_nulls() const { return null_count_ > 0; }

  /// \name Typed payload views (meaningful for the matching kind only).
  /// @{
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dict() const { return dict_; }
  /// Dictionary code for `s`, or -1 when the string never occurs in this
  /// column (predicate compilation resolves string constants once here).
  int32_t DictCode(const std::string& s) const;
  /// @}

  /// Value::AsDouble() semantics: numeric payload, 0.0 for NULL/STRING.
  double AsDoubleAt(int64_t row) const {
    switch (kind_) {
      case Kind::kInt64:
        return static_cast<double>(ints_[row]);
      case Kind::kDouble:
        return doubles_[row];
      case Kind::kString:
        return 0.0;
    }
    return 0.0;
  }

  /// Reconstructs the exact Value (NULL / INT / DOUBLE / STRING) the row
  /// adapter imported, including INT-origin doubles.
  Value ValueAt(int64_t row) const;

  void Reserve(int64_t n);
  void AppendNull();
  /// Appends a value, inferring/promoting the storage class. Fails on
  /// string/number mixes and on INT->DOUBLE promotions that cannot
  /// round-trip (|v| >= 2^53).
  Status AppendValue(const Value& v);

  /// New column with the given storage class and zero rows (the operators
  /// build outputs with known classes directly).
  static Column OfKind(Kind kind);

  /// Gathers `rows` (indices into this column) into a new column of the
  /// same class; the dictionary is shared by copy, codes are remapped 1:1.
  Column Gather(const std::vector<int32_t>& rows) const;

  /// Appends every row of `other` to this column, reconciling storage
  /// classes (INT + DOUBLE promotes, all-NULL adopts the peer's class,
  /// string dictionaries are merged by re-coding). Fails on string/number
  /// mixes, like AppendValue.
  Status AppendColumn(const Column& other);

 private:
  Status PromoteToDouble();
  Status FixKind(Kind kind);
  int32_t InternString(const std::string& s);

  Kind kind_ = Kind::kInt64;
  bool kind_fixed_ = false;
  int64_t null_count_ = 0;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> int_origin_;  // kDouble: cell arrived as Value::Int.
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_COLUMN_H_
