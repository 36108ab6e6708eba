#include "xai/relational/columnar_ops.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/compiled_expr.h"

namespace xai::rel {
namespace {

/// Appends column `c`'s rendered cell for `row` to `*key`, prefixed with
/// its length, so multi-column keys concatenate injectively (same merge
/// classes as a vector of rendered cells).
void AppendRenderedCell(const Column& col, int64_t row, std::string* cell,
                        std::string* key) {
  cell->clear();
  col.RenderTo(row, cell);
  const uint32_t len = static_cast<uint32_t>(cell->size());
  key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  key->append(*cell);
}

/// True when every key column is a (possibly unfixed all-NULL) int64
/// column, for which raw (payload, validity) bytes induce exactly the
/// rendered-key merge classes: std::to_string is injective on int64 and
/// never renders "NULL".
bool AllInt64(const std::vector<ColumnRef>& keys) {
  for (const ColumnRef& key : keys) {
    if (key.storage->kind() != Column::Kind::kInt64) return false;
  }
  return true;
}

/// The given rows of a column read in place, as new storage: a view's
/// source is gathered through the composed rows, not the whole view.
Column GatherFrom(const ColumnRef& col, const std::vector<int32_t>& rows) {
  if (!col.rows) return col.storage->Gather(rows);
  std::vector<int32_t> source_rows(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) source_rows[k] = col.rows[rows[k]];
  return col.storage->Gather(source_rows);
}

/// First-appearance-ordered grouping of rows by rendered key, shared by
/// distinct projection and group-by.
struct KeyedGroups {
  std::vector<int32_t> group_of_row;
  std::vector<int32_t> first_row;   // Row whose values name the group.
  std::vector<int32_t> group_size;
  int num_groups() const { return static_cast<int>(first_row.size()); }
};

KeyedGroups BuildGroups(const ColumnarRelation& rel,
                        const std::vector<int>& cols) {
  const int64_t n = rel.num_rows();
  KeyedGroups g;
  g.group_of_row.resize(n);
  std::vector<ColumnRef> keys;
  for (int c : cols) keys.push_back(rel.column_ref(c));
  const bool raw = AllInt64(keys);
  if (raw && cols.size() == 1) {
    // Single int64 key: hash the value directly. All NULL cells render
    // "NULL" and so form one group; valid cells group by value (NULL
    // payload slots hold 0 but are routed to the NULL group first, so
    // they never collide with a genuine 0).
    const ColumnRef key = keys[0];
    const int64_t* ints = key.storage->ints().data();
    const uint8_t* valid = key.storage->validity().data();
    std::unordered_map<int64_t, int32_t> index;
    index.reserve(256);
    int32_t null_group = -1;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t r = key.row(i);
      int32_t gi;
      if (!valid[r]) {
        if (null_group < 0) {
          null_group = static_cast<int32_t>(g.first_row.size());
          g.first_row.push_back(static_cast<int32_t>(i));
          g.group_size.push_back(0);
        }
        gi = null_group;
      } else {
        auto [it, inserted] = index.try_emplace(
            ints[r], static_cast<int32_t>(g.first_row.size()));
        if (inserted) {
          g.first_row.push_back(static_cast<int32_t>(i));
          g.group_size.push_back(0);
        }
        gi = it->second;
      }
      g.group_of_row[i] = gi;
      ++g.group_size[gi];
    }
    return g;
  }
  std::unordered_map<std::string, int32_t> index;
  std::string key, cell;
  for (int64_t i = 0; i < n; ++i) {
    key.clear();
    if (raw) {
      for (const ColumnRef& col : keys) {
        const int64_t r = col.row(i);
        const int64_t v = col.storage->ints()[r];
        const char valid = static_cast<char>(col.storage->validity()[r]);
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        key.push_back(valid);
      }
    } else {
      for (const ColumnRef& col : keys)
        AppendRenderedCell(*col.storage, col.row(i), &cell, &key);
    }
    auto [it, inserted] =
        index.try_emplace(key, static_cast<int32_t>(g.first_row.size()));
    if (inserted) {
      g.first_row.push_back(static_cast<int32_t>(i));
      g.group_size.push_back(0);
    }
    g.group_of_row[i] = it->second;
    ++g.group_size[it->second];
  }
  return g;
}

/// Per-group sums of the row annotations in row order — the provenance
/// rule distinct projection and group-by share — installed as `out`'s side
/// array. One arena holds every group's sum node and a single child array
/// in which each group's terms are one contiguous slice; it pins the
/// input's side array, which keeps every term alive.
void SetGroupAnnotations(const ColumnarRelation& rel, const KeyedGroups& g,
                         ColumnarRelation* out) {
  const int64_t ng = g.num_groups();
  const int64_t n = rel.num_rows();
  auto arena = std::make_shared<ProvArena>(ng, n);
  const std::span<const ProvExpr* const> nodes = rel.annotation_nodes();
  arena->Pin(rel.annotation_block());
  std::vector<const ProvExpr**> terms(ng), cursor(ng);
  for (int64_t gi = 0; gi < ng; ++gi)
    terms[gi] = cursor[gi] = arena->TermSlots(g.group_size[gi]);
  for (int64_t i = 0; i < n; ++i) *cursor[g.group_of_row[i]]++ = nodes[i];
  std::vector<const ProvExpr*> sums(ng);
  for (int64_t gi = 0; gi < ng; ++gi)
    sums[gi] = arena->Sum(terms[gi], g.group_size[gi]);
  out->SetAnnotations(std::move(sums), {std::move(arena)});
}

/// Value::operator== between two cells of (possibly different) columns.
bool CellsEqual(const Column& a, int64_t i, const Column& b, int64_t j) {
  const bool av = !a.IsNull(i), bv = !b.IsNull(j);
  if (!av || !bv) return av == bv;
  const bool as = a.kind() == Column::Kind::kString;
  const bool bs = b.kind() == Column::Kind::kString;
  if (as != bs) return false;
  if (as) return a.dict()[a.codes()[i]] == b.dict()[b.codes()[j]];
  return a.AsDoubleAt(i) == b.AsDoubleAt(j);
}

}  // namespace

xai::Result<ColumnarRelation> Select(const ColumnarRelation& input,
                                     const ExprPtr& predicate) {
  XAI_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                       CompiledPredicate::Compile(predicate, input));
  const int64_t n = input.num_rows();
  XAI_COUNTER_ADD("relational/columnar_rows", n);
  const int64_t num_chunks = (n + kBatchRows - 1) / kBatchRows;
  std::vector<std::vector<int32_t>> per_chunk(num_chunks);
  // One batch per chunk (grain == kBatchRows); scratch is per worker
  // thread and fully overwritten each batch, so reuse is benign. Matches
  // go to a chunk-local list that is moved into place once.
  ParallelFor(n, kBatchRows, [&](int64_t begin, int64_t end, int64_t chunk) {
    thread_local CompiledPredicate::Scratch scratch;
    std::vector<int32_t> local;
    compiled.SelectInto(input, begin, end, &scratch, &local);
    per_chunk[chunk] = std::move(local);
  });
  int64_t total = 0;
  for (const auto& v : per_chunk) total += static_cast<int64_t>(v.size());
  if (n > 0) {
    XAI_HISTOGRAM_RECORD("relational/select_selectivity_pct",
                         100.0 * static_cast<double>(total) /
                             static_cast<double>(n));
  }
  RowMap matches;
  matches.reserve(total);
  for (const auto& v : per_chunk)
    matches.insert(matches.end(), v.begin(), v.end());
  return input.GatherRows(std::move(matches), "select(" + input.name() + ")");
}

xai::Result<ColumnarRelation> Project(const ColumnarRelation& input,
                                      const std::vector<int>& columns,
                                      bool distinct) {
  std::vector<std::string> names;
  for (int c : columns) {
    if (c < 0 || c >= input.num_columns())
      return Status::OutOfRange("projection column out of range");
    names.push_back(input.column_names()[c]);
  }
  XAI_COUNTER_ADD("relational/columnar_rows", input.num_rows());
  ColumnarRelation out("project(" + input.name() + ")", std::move(names));
  if (!distinct) {
    for (size_t k = 0; k < columns.size(); ++k)
      out.ShareColumn(static_cast<int>(k), input, columns[k]);
    out.ShareAnnotations(input);
    return out;
  }
  const KeyedGroups g = BuildGroups(input, columns);
  for (size_t k = 0; k < columns.size(); ++k)
    out.SetColumn(static_cast<int>(k),
                  GatherFrom(input.column_ref(columns[k]), g.first_row));
  SetGroupAnnotations(input, g, &out);
  return out;
}

xai::Result<ColumnarRelation> EquiJoin(const ColumnarRelation& a,
                                       const ColumnarRelation& b, int col_a,
                                       int col_b) {
  if (col_a < 0 || col_a >= a.num_columns() || col_b < 0 ||
      col_b >= b.num_columns())
    return Status::OutOfRange("join column out of range");
  std::vector<std::string> names = a.column_names();
  for (const std::string& c : b.column_names())
    names.push_back(b.name() + "." + c);
  XAI_COUNTER_ADD("relational/columnar_rows", a.num_rows() + b.num_rows());

  // Keys are read in place: a view input's key is not gathered.
  const ColumnRef ka = a.column_ref(col_a);
  const ColumnRef kb = b.column_ref(col_b);

  // Per-chunk (a-row, b-row) match lists; ascending-chunk concatenation
  // gives the a-major, ascending-b output order. Each chunk probes into
  // lists of its own and moves them into place once, so no two workers
  // grow vectors whose headers share a cache line.
  const int64_t na = a.num_rows();
  const int64_t num_chunks = (na + kBatchRows - 1) / kBatchRows;
  struct Pairs {
    RowMap a, b;
  };
  std::vector<Pairs> per_chunk(num_chunks);

  const bool fast = ka.storage->kind() == Column::Kind::kInt64 &&
                    kb.storage->kind() == Column::Kind::kInt64;
  if (fast) {
    // Both key columns are int64: probe by value directly. Raw equality
    // coincides with the general path's rendered-key-then-Value== protocol
    // (to_string is injective; NULL keys join NULL keys).
    std::unordered_map<int64_t, std::vector<int32_t>> index;
    std::vector<int32_t> null_rows;
    index.reserve(static_cast<size_t>(b.num_rows()));
    for (int64_t j = 0; j < b.num_rows(); ++j) {
      const int64_t r = kb.row(j);
      if (kb.storage->IsNull(r)) {
        null_rows.push_back(static_cast<int32_t>(j));
      } else {
        index[kb.storage->ints()[r]].push_back(static_cast<int32_t>(j));
      }
    }
    ParallelFor(na, kBatchRows, [&](int64_t begin, int64_t end,
                                    int64_t chunk) {
      Pairs local;
      local.a.reserve(end - begin);
      local.b.reserve(end - begin);
      for (int64_t i = begin; i < end; ++i) {
        const int64_t r = ka.row(i);
        const std::vector<int32_t>* matches = nullptr;
        if (ka.storage->IsNull(r)) {
          matches = &null_rows;
        } else {
          auto it = index.find(ka.storage->ints()[r]);
          if (it != index.end()) matches = &it->second;
        }
        if (!matches) continue;
        for (int32_t j : *matches) {
          local.a.push_back(static_cast<int32_t>(i));
          local.b.push_back(j);
        }
      }
      per_chunk[chunk] = std::move(local);
    });
  } else {
    // General path: index b on rendered keys, probe a's renderings, keep
    // pairs whose values actually compare equal (rendered collisions like
    // INT 1000000 vs DOUBLE 1e+06 behave as in the row reference).
    std::unordered_map<std::string, std::vector<int32_t>> index;
    index.reserve(static_cast<size_t>(b.num_rows()));
    {
      std::string key;
      for (int64_t j = 0; j < b.num_rows(); ++j) {
        key.clear();
        kb.storage->RenderTo(kb.row(j), &key);
        index[key].push_back(static_cast<int32_t>(j));
      }
    }
    ParallelFor(na, kBatchRows, [&](int64_t begin, int64_t end,
                                    int64_t chunk) {
      Pairs local;
      std::string key;
      for (int64_t i = begin; i < end; ++i) {
        key.clear();
        const int64_t r = ka.row(i);
        ka.storage->RenderTo(r, &key);
        auto it = index.find(key);
        if (it == index.end()) continue;
        for (int32_t j : it->second) {
          if (!CellsEqual(*ka.storage, r, *kb.storage, kb.row(j))) continue;
          local.a.push_back(static_cast<int32_t>(i));
          local.b.push_back(j);
        }
      }
      per_chunk[chunk] = std::move(local);
    });
  }

  // The pairs land in one exact-size array per side, which the output's
  // columns and pending products read as their row maps: the join writes
  // no column and no product.
  int64_t total = 0;
  for (const Pairs& p : per_chunk) total += static_cast<int64_t>(p.a.size());
  RowMap arows(total), brows(total);
  int64_t offset = 0;
  for (const Pairs& p : per_chunk) {
    std::copy(p.a.begin(), p.a.end(), arows.begin() + offset);
    std::copy(p.b.begin(), p.b.end(), brows.begin() + offset);
    offset += static_cast<int64_t>(p.a.size());
  }
  return ColumnarRelation::JoinRows(
      a, b, std::move(arows), std::move(brows),
      "join(" + a.name() + "," + b.name() + ")", std::move(names));
}

xai::Result<ColumnarRelation> Union(const ColumnarRelation& a,
                                    const ColumnarRelation& b) {
  if (a.num_columns() != b.num_columns())
    return Status::InvalidArgument("union arity mismatch");
  XAI_COUNTER_ADD("relational/columnar_rows", a.num_rows() + b.num_rows());
  ColumnarRelation out("union(" + a.name() + "," + b.name() + ")",
                       a.column_names());
  for (int c = 0; c < a.num_columns(); ++c) {
    Column col = a.column(c);
    XAI_RETURN_NOT_OK(col.AppendColumn(b.column(c)));
    out.SetColumn(c, std::move(col));
  }
  std::vector<const ProvExpr*> rows;
  rows.reserve(a.num_rows() + b.num_rows());
  for (const ProvExpr* node : a.annotation_nodes()) rows.push_back(node);
  for (const ProvExpr* node : b.annotation_nodes()) rows.push_back(node);
  out.SetAnnotations(std::move(rows),
                     {a.annotation_block(), b.annotation_block()});
  return out;
}

xai::Result<ColumnarRelation> GroupByAggregate(
    const ColumnarRelation& input, const std::vector<int>& group_columns,
    AggFn fn, int agg_column, const std::string& agg_name) {
  if (fn != AggFn::kCount &&
      (agg_column < 0 || agg_column >= input.num_columns()))
    return Status::OutOfRange("aggregate column out of range");
  std::vector<std::string> names;
  for (int c : group_columns) {
    if (c < 0 || c >= input.num_columns())
      return Status::OutOfRange("group column out of range");
    names.push_back(input.column_names()[c]);
  }
  names.push_back(agg_name);
  const int64_t n = input.num_rows();
  XAI_COUNTER_ADD("relational/columnar_rows", n);

  const KeyedGroups g = BuildGroups(input, group_columns);
  const int ng = g.num_groups();

  // Finalized aggregate values, via the canonical kernels. COUNT needs only
  // group sizes; the single-group numeric case streams the column payload
  // directly (NULL slots store 0.0, which is exactly Value::AsDouble's NULL
  // contribution).
  std::vector<double> agg_values(ng, 0.0);
  std::vector<int64_t> counts(ng, 0);
  for (int gi = 0; gi < ng; ++gi) counts[gi] = g.group_size[gi];
  if (fn != AggFn::kCount && ng > 0) {
    const ColumnRef ac = input.column_ref(agg_column);
    const double* payload = nullptr;
    std::vector<double> values;
    if (ng == 1 && ac.storage->kind() == Column::Kind::kDouble && !ac.rows) {
      payload = ac.storage->doubles().data();
    } else {
      // Scatter per-row values into per-group slices, preserving row
      // order within each group (min/max NaN folds depend on it).
      values.resize(n);
      std::vector<int64_t> offset(ng + 1, 0);
      for (int gi = 0; gi < ng; ++gi)
        offset[gi + 1] = offset[gi] + g.group_size[gi];
      std::vector<int64_t> cursor(offset.begin(), offset.end() - 1);
      for (int64_t i = 0; i < n; ++i)
        values[cursor[g.group_of_row[i]]++] = ac.storage->AsDoubleAt(ac.row(i));
      // Finalize per group below via the offsets.
      for (int gi = 0; gi < ng; ++gi) {
        const double* v = values.data() + offset[gi];
        const int64_t len = g.group_size[gi];
        switch (fn) {
          case AggFn::kSum:
            agg_values[gi] = CanonicalSum(v, len);
            break;
          case AggFn::kAvg:
            agg_values[gi] = len ? CanonicalSum(v, len) / len : 0.0;
            break;
          case AggFn::kMin:
            agg_values[gi] = CanonicalMin(v, len);
            break;
          case AggFn::kMax:
            agg_values[gi] = CanonicalMax(v, len);
            break;
          case AggFn::kCount:
            break;
        }
      }
    }
    if (payload) {
      switch (fn) {
        case AggFn::kSum:
          agg_values[0] = CanonicalSum(payload, n);
          break;
        case AggFn::kAvg:
          agg_values[0] = n ? CanonicalSum(payload, n) / n : 0.0;
          break;
        case AggFn::kMin:
          agg_values[0] = CanonicalMin(payload, n);
          break;
        case AggFn::kMax:
          agg_values[0] = CanonicalMax(payload, n);
          break;
        case AggFn::kCount:
          break;
      }
    }
  }

  ColumnarRelation out("agg(" + input.name() + ")", std::move(names));
  for (size_t k = 0; k < group_columns.size(); ++k)
    out.SetColumn(static_cast<int>(k),
                  GatherFrom(input.column_ref(group_columns[k]), g.first_row));
  Column agg_col = Column::OfKind(fn == AggFn::kCount ? Column::Kind::kInt64
                                                      : Column::Kind::kDouble);
  agg_col.Reserve(ng);
  for (int gi = 0; gi < ng; ++gi) {
    const Status s =
        agg_col.AppendValue(fn == AggFn::kCount
                                ? Value::Int(counts[gi])
                                : Value::Double(agg_values[gi]));
    XAI_RETURN_NOT_OK(s);
  }
  out.SetColumn(static_cast<int>(group_columns.size()), std::move(agg_col));
  SetGroupAnnotations(input, g, &out);
  return out;
}

}  // namespace xai::rel
