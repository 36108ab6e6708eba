#include "xai/relational/column.h"

#include "xai/core/check.h"

namespace xai::rel {
namespace {

// Largest magnitude at which every int64 is exactly representable as a
// double; INT->DOUBLE promotion refuses anything beyond it so ToRows()
// can reconstruct the original INT exactly.
constexpr int64_t kExactIntLimit = int64_t{1} << 53;

}  // namespace

int32_t Column::DictCode(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? -1 : it->second;
}

Value Column::ValueAt(int64_t row) const {
  if (!valid_[row]) return Value::Null();
  switch (kind_) {
    case Kind::kInt64:
      return Value::Int(ints_[row]);
    case Kind::kDouble:
      if (!int_origin_.empty() && int_origin_[row])
        return Value::Int(static_cast<int64_t>(doubles_[row]));
      return Value::Double(doubles_[row]);
    case Kind::kString:
      return Value::Str(dict_[codes_[row]]);
  }
  return Value::Null();
}

void Column::Reserve(int64_t n) {
  valid_.reserve(n);
  switch (kind_) {
    case Kind::kInt64:
      ints_.reserve(n);
      break;
    case Kind::kDouble:
      doubles_.reserve(n);
      break;
    case Kind::kString:
      codes_.reserve(n);
      break;
  }
}

void Column::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  switch (kind_) {
    case Kind::kInt64:
      ints_.push_back(0);
      break;
    case Kind::kDouble:
      doubles_.push_back(0.0);
      if (!int_origin_.empty()) int_origin_.push_back(0);
      break;
    case Kind::kString:
      codes_.push_back(0);
      break;
  }
}

Status Column::PromoteToDouble() {
  XAI_DCHECK(kind_ == Kind::kInt64);
  doubles_.resize(ints_.size());
  int_origin_.assign(ints_.size(), 0);
  for (size_t i = 0; i < ints_.size(); ++i) {
    if (valid_[i]) {
      if (ints_[i] >= kExactIntLimit || ints_[i] <= -kExactIntLimit)
        return Status::Unimplemented(
            "INT->DOUBLE column promotion would lose precision");
      int_origin_[i] = 1;
    }
    doubles_[i] = static_cast<double>(ints_[i]);
  }
  ints_.clear();
  ints_.shrink_to_fit();
  kind_ = Kind::kDouble;
  return Status::OK();
}

Status Column::FixKind(Kind kind) {
  if (!kind_fixed_) {
    // The NULL-only prefix lives in ints_; move it to the right payload.
    if (kind != Kind::kInt64) {
      if (kind == Kind::kDouble) {
        doubles_.assign(valid_.size(), 0.0);
      } else {
        codes_.assign(valid_.size(), 0);
      }
      ints_.clear();
      ints_.shrink_to_fit();
    }
    kind_ = kind;
    kind_fixed_ = true;
    return Status::OK();
  }
  if (kind_ == kind) return Status::OK();
  const bool both_numeric =
      kind_ != Kind::kString && kind != Kind::kString;
  if (!both_numeric)
    return Status::InvalidArgument(
        "column mixes strings and numbers; use the row-oriented Relation");
  if (kind_ == Kind::kInt64) return PromoteToDouble();
  return Status::OK();  // kDouble accepts INT cells via int_origin_.
}

int32_t Column::InternString(const std::string& s) {
  auto [it, inserted] =
      dict_index_.emplace(s, static_cast<int32_t>(dict_.size()));
  if (inserted) dict_.push_back(s);
  return it->second;
}

Status Column::AppendValue(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      AppendNull();
      return Status::OK();
    case Value::Type::kInt: {
      XAI_RETURN_NOT_OK(FixKind(Kind::kInt64));
      valid_.push_back(1);
      if (kind_ == Kind::kInt64) {
        ints_.push_back(v.AsInt());
      } else {
        const int64_t i = v.AsInt();
        if (i >= kExactIntLimit || i <= -kExactIntLimit)
          return Status::Unimplemented(
              "INT cell in a DOUBLE column would lose precision");
        doubles_.push_back(static_cast<double>(i));
        if (int_origin_.empty()) int_origin_.assign(valid_.size() - 1, 0);
        int_origin_.push_back(1);
      }
      return Status::OK();
    }
    case Value::Type::kDouble:
      XAI_RETURN_NOT_OK(FixKind(Kind::kDouble));
      valid_.push_back(1);
      doubles_.push_back(v.AsDouble());
      if (!int_origin_.empty()) int_origin_.push_back(0);
      return Status::OK();
    case Value::Type::kString:
      XAI_RETURN_NOT_OK(FixKind(Kind::kString));
      valid_.push_back(1);
      codes_.push_back(InternString(v.AsString()));
      return Status::OK();
  }
  return Status::InvalidArgument("unknown value type");
}

Column Column::OfKind(Kind kind) {
  Column c;
  c.kind_ = kind;
  c.kind_fixed_ = true;
  return c;
}

Column Column::Gather(const std::vector<int32_t>& rows) const {
  Column out;
  out.kind_ = kind_;
  out.kind_fixed_ = kind_fixed_;
  out.valid_.resize(rows.size());
  int64_t nulls = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    const uint8_t v = valid_[rows[k]];
    out.valid_[k] = v;
    nulls += !v;  // Branch-free; the gather loop stays vectorizable.
  }
  out.null_count_ = nulls;
  switch (kind_) {
    case Kind::kInt64:
      out.ints_.resize(rows.size());
      for (size_t k = 0; k < rows.size(); ++k) out.ints_[k] = ints_[rows[k]];
      break;
    case Kind::kDouble:
      out.doubles_.resize(rows.size());
      for (size_t k = 0; k < rows.size(); ++k)
        out.doubles_[k] = doubles_[rows[k]];
      if (!int_origin_.empty()) {
        out.int_origin_.resize(rows.size());
        for (size_t k = 0; k < rows.size(); ++k)
          out.int_origin_[k] = int_origin_[rows[k]];
      }
      break;
    case Kind::kString:
      out.codes_.resize(rows.size());
      for (size_t k = 0; k < rows.size(); ++k)
        out.codes_[k] = codes_[rows[k]];
      out.dict_ = dict_;
      out.dict_index_ = dict_index_;
      break;
  }
  return out;
}

Status Column::AppendColumn(const Column& other) {
  if (other.kind_fixed_) {
    XAI_RETURN_NOT_OK(FixKind(other.kind_));
  }
  Reserve(size() + other.size());
  // All-NULL peer (kind not fixed): its payload convention matches any of
  // ours, so only validity and NULL slots transfer.
  if (!other.kind_fixed_) {
    for (int64_t i = 0; i < other.size(); ++i) AppendNull();
    return Status::OK();
  }
  switch (other.kind_) {
    case Kind::kInt64:
      if (kind_ == Kind::kInt64) {
        ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
        valid_.insert(valid_.end(), other.valid_.begin(),
                      other.valid_.end());
        null_count_ += other.null_count_;
      } else {
        // This side already promoted to DOUBLE: re-append cell-wise so the
        // int-origin mask and the precision guard apply.
        for (int64_t i = 0; i < other.size(); ++i)
          XAI_RETURN_NOT_OK(AppendValue(other.ValueAt(i)));
      }
      return Status::OK();
    case Kind::kDouble:
      for (int64_t i = 0; i < other.size(); ++i)
        XAI_RETURN_NOT_OK(AppendValue(other.ValueAt(i)));
      return Status::OK();
    case Kind::kString:
      for (int64_t i = 0; i < other.size(); ++i) {
        if (!other.valid_[i]) {
          AppendNull();
        } else {
          valid_.push_back(1);
          codes_.push_back(InternString(other.dict_[other.codes_[i]]));
        }
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown column kind");
}

}  // namespace xai::rel
