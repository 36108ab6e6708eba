#ifndef XAI_RELATIONAL_COLUMNAR_H_
#define XAI_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/column.h"
#include "xai/relational/provenance.h"
#include "xai/relational/relation.h"

namespace xai::rel {

/// Rows per operator batch: predicates evaluate, selections materialize,
/// and aggregates accumulate in blocks of this many rows. Also the
/// ParallelFor grain of the block-parallel scans, so the block layout —
/// and therefore every floating-point combine order — is a pure function
/// of the row count, never of the thread count.
inline constexpr int64_t kBatchRows = 1024;

/// \brief Columnar twin of Relation: typed column vectors (int64 / double /
/// dictionary-encoded string) with per-column validity plus the same
/// per-tuple N[X] provenance annotation side array.
///
/// The side array is one shared immutable block: a node pointer per row
/// plus the owners that keep those nodes alive (base handles, the arena of
/// the operator that computed the relation, or the blocks of its inputs).
/// Copies of a relation share it, an annotation handle aliases it, and
/// the arena of every operator output computed from this relation pins it
/// (ProvArena::Pin), so operators read row nodes without touching a
/// reference count. A shared block is never mutated: appending to a
/// relation whose block is shared starts a new block first.
///
/// This is the storage the relational operators (columnar_ops.h), the
/// library's only executor, run on. The row-oriented Relation is the
/// container for loading data, printing results and the dbx entry points;
/// FromRows/ToRows convert losslessly both ways (see Column for the class
/// rules). A column that mixes strings and numbers has no typed storage:
/// FromRows rejects it, so such data cannot be queried.
class ColumnarRelation {
 public:
  ColumnarRelation() = default;
  ColumnarRelation(std::string name, std::vector<std::string> columns);

  /// Imports a row relation. Fails (without aborting) on columns the typed
  /// storage cannot represent exactly: string/number mixes, and INT cells
  /// of magnitude >= 2^53 in a column that also holds DOUBLEs.
  static Result<ColumnarRelation> FromRows(const Relation& rows);

  /// Materializes back to the row representation: exact same Values
  /// (including INT-vs-DOUBLE typing) and the same annotation nodes, so
  /// round-tripping is observationally identical.
  Relation ToRows() const;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const std::vector<std::string>& column_names() const { return columns_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int c) const { return cols_[c]; }
  Column* mutable_column(int c) { return &cols_[c]; }
  /// Row i's annotation; the handle shares ownership of the side array.
  ProvExprPtr annotation(int64_t i) const {
    return ProvExprPtr(annotations_, annotations_->rows[i]);
  }
  /// Row i's annotation node without a handle, alive as long as the side
  /// array (this relation, a copy, or an arena pinning annotation_block()).
  const ProvExpr* annotation_node(int64_t i) const {
    return annotations_->rows[i];
  }

  /// Index of a column by name, or -1 (same contract as Relation).
  int ColumnIndex(const std::string& column) const;

  void Reserve(int64_t n);
  /// Appends one row (tests and builders; bulk paths use FromRows/Gather).
  Status AppendRow(const Tuple& tuple, ProvExprPtr annotation);
  /// Appends a base row annotated Base(base_id).
  Status AppendBaseRow(const Tuple& tuple, int base_id);

  /// Gathers the given row indices (in order) into a new relation with the
  /// same schema; its side array pins this one's.
  ColumnarRelation GatherRows(const std::vector<int32_t>& rows,
                              std::string name) const;

  /// \name Operator plumbing (columnar_ops.cc)
  /// @{
  void SetColumn(int c, Column column) { cols_[c] = std::move(column); }
  /// Installs the side array: one node per row, kept alive by `owners`.
  void SetAnnotations(std::vector<const ProvExpr*> rows,
                      std::vector<std::shared_ptr<const void>> owners);
  /// Shares `from`'s side array (bag projection keeps every row).
  void ShareAnnotations(const ColumnarRelation& from);
  /// The side array as an owner for an operator arena to pin.
  std::shared_ptr<const void> annotation_block() const { return annotations_; }
  /// @}

 private:
  struct AnnotationBlock {
    std::vector<const ProvExpr*> rows;
    std::vector<std::shared_ptr<const void>> owners;
  };

  /// The side array for appending: a new block when another relation, a
  /// handle or an arena shares the current one.
  AnnotationBlock& MutableAnnotations();

  std::string name_;
  std::vector<std::string> columns_;
  std::vector<Column> cols_;
  std::shared_ptr<AnnotationBlock> annotations_;
  int64_t num_rows_ = 0;
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_COLUMNAR_H_
