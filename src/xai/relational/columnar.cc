#include "xai/relational/columnar.h"

#include <utility>

#include "xai/core/check.h"

namespace xai::rel {

ColumnarRelation::ColumnarRelation(std::string name,
                                   std::vector<std::string> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      annotations_(std::make_shared<AnnotationBlock>()) {
  cols_.resize(columns_.size());
}

Result<ColumnarRelation> ColumnarRelation::FromRows(const Relation& rows) {
  ColumnarRelation out(rows.name(), rows.columns());
  out.Reserve(rows.num_tuples());
  for (int i = 0; i < rows.num_tuples(); ++i) {
    XAI_RETURN_NOT_OK(out.AppendRow(rows.tuple(i), rows.annotation(i)));
  }
  return out;
}

Relation ColumnarRelation::ToRows() const {
  Relation out(name_, columns_);
  out.Reserve(num_rows_);
  for (int64_t i = 0; i < num_rows_; ++i) {
    Tuple t;
    t.reserve(cols_.size());
    for (const Column& c : cols_) t.push_back(c.ValueAt(i));
    Status s = out.Append(std::move(t), annotation(i));
    XAI_CHECK_MSG(s.ok(), "columnar->row materialization cannot fail");
  }
  return out;
}

int ColumnarRelation::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i] == column) return static_cast<int>(i);
  return -1;
}

void ColumnarRelation::Reserve(int64_t n) {
  for (Column& c : cols_) c.Reserve(n);
  AnnotationBlock& block = MutableAnnotations();
  block.rows.reserve(n);
  block.owners.reserve(n);
}

Status ColumnarRelation::AppendRow(const Tuple& tuple,
                                   ProvExprPtr annotation) {
  if (static_cast<int>(tuple.size()) != num_columns())
    return Status::InvalidArgument("tuple arity mismatch in " + name_);
  // A failed cell append leaves the relation half-mutated; callers
  // (FromRows included) must discard it on error.
  for (int c = 0; c < num_columns(); ++c) {
    XAI_RETURN_NOT_OK(cols_[c].AppendValue(tuple[c]));
  }
  AnnotationBlock& block = MutableAnnotations();
  block.rows.push_back(annotation.get());
  block.owners.push_back(std::move(annotation));
  ++num_rows_;
  return Status::OK();
}

Status ColumnarRelation::AppendBaseRow(const Tuple& tuple, int base_id) {
  return AppendRow(tuple, ProvExpr::Base(base_id));
}

ColumnarRelation ColumnarRelation::GatherRows(
    const std::vector<int32_t>& rows, std::string name) const {
  ColumnarRelation out(std::move(name), columns_);
  for (size_t c = 0; c < cols_.size(); ++c)
    out.cols_[c] = cols_[c].Gather(rows);
  std::vector<const ProvExpr*> nodes;
  nodes.reserve(rows.size());
  for (int32_t r : rows) nodes.push_back(annotations_->rows[r]);
  out.SetAnnotations(std::move(nodes), {annotation_block()});
  return out;
}

void ColumnarRelation::SetAnnotations(
    std::vector<const ProvExpr*> rows,
    std::vector<std::shared_ptr<const void>> owners) {
  num_rows_ = static_cast<int64_t>(rows.size());
  annotations_ = std::make_shared<AnnotationBlock>(
      AnnotationBlock{std::move(rows), std::move(owners)});
}

void ColumnarRelation::ShareAnnotations(const ColumnarRelation& from) {
  annotations_ = from.annotations_;
  num_rows_ = from.num_rows_;
}

ColumnarRelation::AnnotationBlock& ColumnarRelation::MutableAnnotations() {
  // use_count() == 1: no copy, handle or arena can see the block, and none
  // can start to while this non-const call runs.
  if (!annotations_) {
    annotations_ = std::make_shared<AnnotationBlock>();
  } else if (annotations_.use_count() > 1) {
    auto fresh = std::make_shared<AnnotationBlock>();
    fresh->rows = annotations_->rows;
    fresh->owners.push_back(std::move(annotations_));
    annotations_ = std::move(fresh);
  }
  return *annotations_;
}

}  // namespace xai::rel
