#ifndef XAI_RELATIONAL_COLUMNAR_H_
#define XAI_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <span>
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

/// Row map of a view: output row i reads source row (*map)[i].
using RowMap = std::vector<int32_t>;
using RowMapPtr = std::shared_ptr<const RowMap>;

/// A column as a kernel reads it in place: row i is row `rows[i]` of
/// `storage`, or row i itself when `rows` is null (storage, or a view
/// already gathered, reads contiguously).
struct ColumnRef {
  const Column* storage;
  const int32_t* rows;
  int64_t row(int64_t i) const { return rows ? rows[i] : i; }
};

/// \brief Columnar twin of Relation: typed column vectors (int64 / double /
/// dictionary-encoded string) with per-column validity plus the same
/// per-tuple N[X] provenance annotation side array.
///
/// **Late materialization.** An operator output holds what the operator
/// computed, not copies of its inputs (Abadi et al., ICDE 2007):
///  - A column is storage of its own or a *view*: storage of a relation
///    upstream read through a shared row map. Select and EquiJoin output
///    views; when an input column is itself a view they compose its map
///    with theirs, once per distinct map, so a view always reads storage
///    directly. column(c) gathers a view into storage on its first call
///    and returns that same Column from then on; it is for consumers that
///    keep the column. A kernel that reads a column once reads it in
///    place through column_ref(c), which gathers nothing.
///  - A join's annotations are *pending products*: (left side array
///    through the left map) x (right side array through the right map).
///    The first read — annotation, annotation_node, annotation_nodes,
///    annotation_block, ToRows, and the operators that read provenance —
///    builds every row's product into one ProvArena owned by the relation.
///    Select of a relation whose products are still unbuilt composes the
///    maps instead; bag Project shares them. Only one level is ever
///    pending: the side arrays a pending product reads are materialized,
///    so an EquiJoin builds a pending input's products first.
/// Each gather and each build happens once per relation, copies share its
/// result, and both are thread-safe: concurrent first readers wait for one
/// of them and then see the same storage and the same nodes.
///
/// The side array is one shared immutable block: a node pointer per row
/// plus the owners that keep those nodes alive (base handles, the arena of
/// the operator that computed the relation, or the blocks of its inputs).
/// Copies of a relation share it, an annotation handle aliases it, and
/// the arena of every operator output computed from this relation pins it
/// (ProvArena::Pin), so operators read row nodes without touching a
/// reference count. Nothing shared is ever mutated: appending to a
/// relation whose block or columns are shared, or whose columns are views,
/// gives it its own first.
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

  /// Column c's storage; the first call on a view gathers it.
  const Column& column(int c) const;
  /// Column c as the storage it reads and a view's row map, without
  /// gathering (the map is null once column(c) has gathered the view).
  /// Lock-free; the storage and map live as long as this relation.
  ColumnRef column_ref(int c) const;
  /// Column c as storage of this relation's own (copied first when shared
  /// or a view).
  Column* mutable_column(int c);
  /// Row i's annotation; the handle shares ownership of the side array.
  ProvExprPtr annotation(int64_t i) const;
  /// Row i's annotation node without a handle, alive as long as the side
  /// array (this relation, a copy, or an arena pinning annotation_block()).
  /// The same pointer on every call.
  const ProvExpr* annotation_node(int64_t i) const {
    return annotation_nodes()[i];
  }

  /// Index of a column by name, or -1 (same contract as Relation).
  int ColumnIndex(const std::string& column) const;

  void Reserve(int64_t n);
  /// Appends one row (tests and builders; bulk paths use FromRows/Gather).
  Status AppendRow(const Tuple& tuple, ProvExprPtr annotation);
  /// Appends a base row annotated Base(base_id).
  Status AppendBaseRow(const Tuple& tuple, int base_id);

  /// The given row indices (in order) as a new relation with the same
  /// schema: every column a view through `rows`, the annotations the
  /// selected nodes (or, while this relation's products are unbuilt, the
  /// same pending products through composed maps).
  ColumnarRelation GatherRows(RowMap rows, std::string name) const;

  /// \name Operator plumbing (columnar_ops.cc)
  /// @{
  /// a's columns through `a_rows` then b's through `b_rows`, annotated
  /// with the pending products of the two sides' side arrays.
  static ColumnarRelation JoinRows(const ColumnarRelation& a,
                                   const ColumnarRelation& b, RowMap a_rows,
                                   RowMap b_rows, std::string name,
                                   std::vector<std::string> columns);
  void SetColumn(int c, Column column);
  /// Makes column c share `from`'s column `from_c` (storage or view).
  void ShareColumn(int c, const ColumnarRelation& from, int from_c);
  /// Installs the side array: one node per row, kept alive by `owners`.
  void SetAnnotations(std::vector<const ProvExpr*> rows,
                      std::vector<std::shared_ptr<const void>> owners);
  /// Shares `from`'s annotations, pending or not (bag projection keeps
  /// every row).
  void ShareAnnotations(const ColumnarRelation& from);
  /// Every row's annotation node (the first read builds pending products).
  std::span<const ProvExpr* const> annotation_nodes() const;
  /// The side array as an owner for an operator arena to pin.
  std::shared_ptr<const void> annotation_block() const { return Block(); }
  /// @}

 private:
  struct AnnotationBlock {
    std::vector<const ProvExpr*> rows;
    std::vector<std::shared_ptr<const void>> owners;
  };
  struct ColumnSlot;
  struct Annotations;

  /// The materialized side array (built first when pending); null only for
  /// a default-constructed relation.
  const std::shared_ptr<AnnotationBlock>& Block() const;
  /// The side array for appending: a new block when another relation, a
  /// handle or an arena shares the current one, or when it is pending.
  AnnotationBlock& MutableAnnotations();

  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::shared_ptr<ColumnSlot>> cols_;
  std::shared_ptr<Annotations> annotations_;
  int64_t num_rows_ = 0;
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_COLUMNAR_H_
