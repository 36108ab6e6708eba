#include "xai/relational/columnar.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "xai/core/check.h"
#include "xai/core/telemetry.h"

namespace xai::rel {
namespace {

/// Runs `build` the first time any thread gets here. Every caller returns
/// after it has finished, so what it wrote is visible to all of them.
template <typename Build>
void Once(std::atomic<bool>& done, std::mutex& mu, Build build) {
  if (done.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu);
  if (done.load(std::memory_order_relaxed)) return;
  build();
  done.store(true, std::memory_order_release);
}

/// The row maps of one operator output: each distinct map of its input
/// composed with the operator's own map once, however many columns (and
/// annotation sides) read through it.
class Composer {
 public:
  explicit Composer(RowMapPtr rows) : rows_(std::move(rows)) {}

  /// `inner` read through the operator's map (row k is inner[rows[k]]);
  /// storage (a null `inner`) reads through the operator's map itself.
  RowMapPtr Through(const RowMapPtr& inner) {
    if (!inner) return rows_;
    for (const auto& [in, out] : composed_) {
      if (in == inner.get()) return out;
    }
    auto out = std::make_shared<RowMap>(rows_->size());
    for (size_t k = 0; k < out->size(); ++k) (*out)[k] = (*inner)[(*rows_)[k]];
    composed_.emplace_back(inner.get(), out);
    return out;
  }

 private:
  RowMapPtr rows_;
  std::vector<std::pair<const RowMap*, RowMapPtr>> composed_;
};

}  // namespace

/// One column: storage of its own (`map` null), or a view that reads
/// `source`'s storage through `map` and gathers it into `storage` on the
/// first read. A view's source is always a storage slot.
struct ColumnarRelation::ColumnSlot {
  const Column& Read() const {
    if (!map) return storage;
    Once(gathered, mu, [&] {
      storage = source->storage.Gather(*map);
      XAI_COUNTER_ADD("relational/gathered_rows",
                      static_cast<int64_t>(map->size()));
    });
    return storage;
  }

  /// The storage a read reaches without gathering: a view's source and
  /// map never change, and `storage` is final once `gathered` is set.
  ColumnRef Ref() const {
    if (!map || gathered.load(std::memory_order_acquire))
      return {&storage, nullptr};
    return {&source->storage, map->data()};
  }

  /// A view of this column through an operator's row map.
  std::shared_ptr<ColumnSlot> ViewThrough(
      const std::shared_ptr<ColumnSlot>& self, Composer* rows) const {
    auto view = std::make_shared<ColumnSlot>();
    view->source = map ? source : self;
    view->map = rows->Through(map);
    return view;
  }

  mutable Column storage;
  std::shared_ptr<const ColumnSlot> source;
  RowMapPtr map;
  mutable std::atomic<bool> gathered{false};
  mutable std::mutex mu;
};

/// A relation's annotations, shared by its copies: a materialized side
/// array, or pending products — row k is left->rows[(*left_map)[k]] *
/// right->rows[(*right_map)[k]] — built into `block` on the first read.
struct ColumnarRelation::Annotations {
  bool pending() const { return left != nullptr; }
  bool built() const { return done.load(std::memory_order_acquire); }

  const std::shared_ptr<AnnotationBlock>& Get() {
    if (pending()) Once(done, mu, [&] { Build(); });
    return block;
  }

  void Build() {
    const int64_t n = static_cast<int64_t>(left_map->size());
    auto arena = std::make_shared<ProvArena>(n, 2 * n);
    arena->Pin(left);
    arena->Pin(right);
    std::vector<const ProvExpr*> products(n);
    int64_t written = 0;
    for (int64_t k = 0; k < n; ++k) {
      const ProvExpr* a = left->rows[(*left_map)[k]];
      const ProvExpr* b = right->rows[(*right_map)[k]];
      products[k] = arena->Product(k, a, b);
      written += products[k] != a && products[k] != b;
    }
    XAI_COUNTER_ADD("relational/product_nodes", written);
    block = std::make_shared<AnnotationBlock>(
        AnnotationBlock{std::move(products), {std::move(arena)}});
  }

  std::shared_ptr<AnnotationBlock> block;
  std::shared_ptr<const AnnotationBlock> left, right;
  RowMapPtr left_map, right_map;
  std::atomic<bool> done{false};
  std::mutex mu;
};

ColumnarRelation::ColumnarRelation(std::string name,
                                   std::vector<std::string> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      annotations_(std::make_shared<Annotations>()) {
  annotations_->block = std::make_shared<AnnotationBlock>();
  cols_.resize(columns_.size());
  for (auto& slot : cols_) slot = std::make_shared<ColumnSlot>();
}

Result<ColumnarRelation> ColumnarRelation::FromRows(const Relation& rows) {
  // The fresh relation owns its storage, so cells go straight in, without
  // AppendRow's per-cell sharing checks (Relation enforces the arity).
  ColumnarRelation out(rows.name(), rows.columns());
  out.Reserve(rows.num_tuples());
  std::vector<Column*> cols;
  for (const auto& slot : out.cols_) cols.push_back(&slot->storage);
  AnnotationBlock& block = *out.annotations_->block;
  for (int i = 0; i < rows.num_tuples(); ++i) {
    const Tuple& tuple = rows.tuple(i);
    for (size_t c = 0; c < cols.size(); ++c)
      XAI_RETURN_NOT_OK(cols[c]->AppendValue(tuple[c]));
    block.rows.push_back(rows.annotation(i).get());
    block.owners.push_back(rows.annotation(i));
  }
  out.num_rows_ = rows.num_tuples();
  return out;
}

Relation ColumnarRelation::ToRows() const {
  Relation out(name_, columns_);
  out.Reserve(num_rows_);
  std::vector<const Column*> cols;
  for (int c = 0; c < num_columns(); ++c) cols.push_back(&column(c));
  const std::shared_ptr<AnnotationBlock>& block = Block();
  for (int64_t i = 0; i < num_rows_; ++i) {
    Tuple t;
    t.reserve(cols.size());
    for (const Column* c : cols) t.push_back(c->ValueAt(i));
    Status s = out.Append(std::move(t), ProvExprPtr(block, block->rows[i]));
    XAI_CHECK_MSG(s.ok(), "columnar->row materialization cannot fail");
  }
  return out;
}

const Column& ColumnarRelation::column(int c) const {
  return cols_[c]->Read();
}

ColumnRef ColumnarRelation::column_ref(int c) const { return cols_[c]->Ref(); }

Column* ColumnarRelation::mutable_column(int c) {
  std::shared_ptr<ColumnSlot>& slot = cols_[c];
  if (slot.use_count() > 1) {
    auto own = std::make_shared<ColumnSlot>();
    own->storage = slot->Read();
    slot = std::move(own);
  } else if (slot->map) {
    // Nothing else sees this view (and no view reads a view), so its
    // gathered rows become its storage.
    slot->Read();
    slot->map.reset();
    slot->source.reset();
  }
  return &slot->storage;
}

ProvExprPtr ColumnarRelation::annotation(int64_t i) const {
  const std::shared_ptr<AnnotationBlock>& block = Block();
  return ProvExprPtr(block, block->rows[i]);
}

std::span<const ProvExpr* const> ColumnarRelation::annotation_nodes() const {
  const std::shared_ptr<AnnotationBlock>& block = Block();
  if (!block) return {};
  return block->rows;
}

int ColumnarRelation::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i] == column) return static_cast<int>(i);
  return -1;
}

void ColumnarRelation::Reserve(int64_t n) {
  for (int c = 0; c < num_columns(); ++c) mutable_column(c)->Reserve(n);
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
    XAI_RETURN_NOT_OK(mutable_column(c)->AppendValue(tuple[c]));
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

ColumnarRelation ColumnarRelation::GatherRows(RowMap rows,
                                              std::string name) const {
  ColumnarRelation out;
  out.name_ = std::move(name);
  out.columns_ = columns_;
  out.num_rows_ = static_cast<int64_t>(rows.size());
  Composer through(std::make_shared<const RowMap>(std::move(rows)));
  for (const auto& slot : cols_)
    out.cols_.push_back(slot->ViewThrough(slot, &through));
  out.annotations_ = std::make_shared<Annotations>();
  if (annotations_ && annotations_->pending() && !annotations_->built()) {
    Annotations& pending = *out.annotations_;
    pending.left = annotations_->left;
    pending.right = annotations_->right;
    pending.left_map = through.Through(annotations_->left_map);
    pending.right_map = through.Through(annotations_->right_map);
    return out;
  }
  const RowMap& map = *through.Through(nullptr);
  const std::shared_ptr<AnnotationBlock>& block = Block();
  std::vector<const ProvExpr*> nodes(map.size());
  for (size_t k = 0; k < map.size(); ++k) nodes[k] = block->rows[map[k]];
  out.annotations_->block = std::make_shared<AnnotationBlock>(
      AnnotationBlock{std::move(nodes), {block}});
  return out;
}

ColumnarRelation ColumnarRelation::JoinRows(const ColumnarRelation& a,
                                            const ColumnarRelation& b,
                                            RowMap a_rows, RowMap b_rows,
                                            std::string name,
                                            std::vector<std::string> columns) {
  XAI_CHECK(a_rows.size() == b_rows.size());
  ColumnarRelation out;
  out.name_ = std::move(name);
  out.columns_ = std::move(columns);
  out.num_rows_ = static_cast<int64_t>(a_rows.size());
  Composer through_a(std::make_shared<const RowMap>(std::move(a_rows)));
  Composer through_b(std::make_shared<const RowMap>(std::move(b_rows)));
  for (const auto& slot : a.cols_)
    out.cols_.push_back(slot->ViewThrough(slot, &through_a));
  for (const auto& slot : b.cols_)
    out.cols_.push_back(slot->ViewThrough(slot, &through_b));
  out.annotations_ = std::make_shared<Annotations>();
  Annotations& pending = *out.annotations_;
  pending.left = a.Block();
  pending.right = b.Block();
  pending.left_map = through_a.Through(nullptr);
  pending.right_map = through_b.Through(nullptr);
  return out;
}

void ColumnarRelation::SetColumn(int c, Column column) {
  cols_[c] = std::make_shared<ColumnSlot>();
  cols_[c]->storage = std::move(column);
}

void ColumnarRelation::ShareColumn(int c, const ColumnarRelation& from,
                                   int from_c) {
  cols_[c] = from.cols_[from_c];
}

void ColumnarRelation::SetAnnotations(
    std::vector<const ProvExpr*> rows,
    std::vector<std::shared_ptr<const void>> owners) {
  num_rows_ = static_cast<int64_t>(rows.size());
  annotations_ = std::make_shared<Annotations>();
  annotations_->block = std::make_shared<AnnotationBlock>(
      AnnotationBlock{std::move(rows), std::move(owners)});
}

void ColumnarRelation::ShareAnnotations(const ColumnarRelation& from) {
  annotations_ = from.annotations_;
  num_rows_ = from.num_rows_;
}

const std::shared_ptr<ColumnarRelation::AnnotationBlock>&
ColumnarRelation::Block() const {
  static const std::shared_ptr<AnnotationBlock> kNone;
  return annotations_ ? annotations_->Get() : kNone;
}

ColumnarRelation::AnnotationBlock& ColumnarRelation::MutableAnnotations() {
  // use_count() == 1: no copy, handle or arena can see the block, and none
  // can start to while this non-const call runs.
  if (!annotations_) {
    annotations_ = std::make_shared<Annotations>();
    annotations_->block = std::make_shared<AnnotationBlock>();
  } else if (annotations_.use_count() > 1 || annotations_->pending() ||
             annotations_->block.use_count() > 1) {
    std::shared_ptr<AnnotationBlock> old = Block();
    auto fresh = std::make_shared<Annotations>();
    fresh->block = std::make_shared<AnnotationBlock>();
    fresh->block->rows = old->rows;
    fresh->block->owners.push_back(std::move(old));
    annotations_ = std::move(fresh);
  }
  return *annotations_->block;
}

}  // namespace xai::rel
