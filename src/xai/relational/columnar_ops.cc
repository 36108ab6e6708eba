#include "xai/relational/columnar_ops.h"

#include <algorithm>
#include <cstdint>
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

/// Calls `body` with `key`'s cells as 64-bit words under the key rule
/// (Value::KeyEquals): word(i, &w) reads row i in place and sets `w`, or
/// returns false for NULL, which no word stands for. The word function is
/// chosen once per column, so `body`'s row loop is compiled per payload
/// type: an INT column's integers (their DoubleKeyWord when `as_double`),
/// a DOUBLE column's DoubleKeyWord, a STRING column's dictionary codes
/// (`recode`[code] when given: the code of the same string in another
/// column's dictionary).
template <typename Body>
void WithKeyWords(const ColumnRef& key, bool as_double, const int32_t* recode,
                  Body&& body) {
  const Column& col = *key.storage;
  const uint8_t* valid = col.validity().data();
  auto words = [&](const auto* payload, auto to_word) {
    body([=](int64_t i, uint64_t* w) {
      const int64_t r = key.row(i);
      if (!valid[r]) return false;
      *w = to_word(payload[r]);
      return true;
    });
  };
  switch (col.kind()) {
    case Column::Kind::kInt64:
      if (as_double) {
        return words(col.ints().data(), [](int64_t v) {
          return DoubleKeyWord(static_cast<double>(v));
        });
      }
      return words(col.ints().data(),
                   [](int64_t v) { return static_cast<uint64_t>(v); });
    case Column::Kind::kDouble:
      return words(col.doubles().data(),
                   [](double v) { return DoubleKeyWord(v); });
    case Column::Kind::kString:
      if (recode) {
        return words(col.codes().data(), [recode](int32_t code) {
          return static_cast<uint64_t>(static_cast<uint32_t>(recode[code]));
        });
      }
      return words(col.codes().data(), [](int32_t code) {
        return static_cast<uint64_t>(static_cast<uint32_t>(code));
      });
  }
}

/// The given rows of a column read in place, as new storage: a view's
/// source is gathered through the composed rows, not the whole view.
Column GatherFrom(const ColumnRef& col, const std::vector<int32_t>& rows) {
  if (!col.rows) return col.storage->Gather(rows);
  std::vector<int32_t> source_rows(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) source_rows[k] = col.rows[rows[k]];
  return col.storage->Gather(source_rows);
}

/// Rows numbered by key in first-appearance order, shared by distinct
/// projection and group-by: row i is in group group_of_row[i], and the
/// values of row first_row[g] name group g.
struct KeyedGroups {
  std::vector<int32_t> group_of_row;
  std::vector<int32_t> first_row;
  std::vector<int32_t> group_size;
  int num_groups() const { return static_cast<int>(first_row.size()); }
};

/// Numbers rows 0..n-1 by word(i) into `g`, in first-appearance order;
/// NULL has a number of its own. word(i) is read before row i's number is
/// written, so `word` may read g->group_of_row[i].
template <typename Word>
void Densify(int64_t n, const Word& word, KeyedGroups* g) {
  g->group_of_row.resize(n);
  g->first_row.clear();
  g->group_size.clear();
  std::unordered_map<uint64_t, int32_t> index;
  index.reserve(256);
  int32_t null_group = -1;
  for (int64_t i = 0; i < n; ++i) {
    auto open = [&] {
      g->first_row.push_back(static_cast<int32_t>(i));
      g->group_size.push_back(0);
    };
    uint64_t w;
    int32_t gi;
    if (!word(i, &w)) {
      if (null_group < 0) {
        null_group = g->num_groups();
        open();
      }
      gi = null_group;
    } else {
      auto [it, inserted] = index.try_emplace(w, g->num_groups());
      if (inserted) open();
      gi = it->second;
    }
    g->group_of_row[i] = gi;
    ++g->group_size[gi];
  }
}

/// Groups rows by the key rule over `cols`: the first column's codes are
/// the groups, and each further column folds (group, its code) into one
/// word and numbers the groups again. With no column, every row is in
/// group 0.
KeyedGroups BuildGroups(const ColumnarRelation& rel,
                        const std::vector<int>& cols) {
  const int64_t n = rel.num_rows();
  KeyedGroups g;
  if (cols.empty()) {
    auto zero = [](int64_t, uint64_t* w) {
      *w = 0;
      return true;
    };
    Densify(n, zero, &g);
    return g;
  }
  auto number = [&](int c, KeyedGroups* out) {
    WithKeyWords(rel.column_ref(c), /*as_double=*/false, nullptr,
                 [&](const auto& word) { Densify(n, word, out); });
  };
  number(cols[0], &g);
  KeyedGroups codes;
  for (size_t k = 1; k < cols.size(); ++k) {
    number(cols[k], &codes);
    Densify(
        n,
        [&](int64_t i, uint64_t* w) {
          *w = static_cast<uint64_t>(g.group_of_row[i]) << 32 |
               static_cast<uint32_t>(codes.group_of_row[i]);
          return true;
        },
        &g);
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

  // Both keys read as words of one domain: integers while both columns
  // are INT, doubles when either is DOUBLE, and b's dictionary codes when
  // both are STRING (a's codes recoded; a string b lacks matches nothing).
  // A string never equals a number, so then only NULL keys join.
  const Column& sa = *ka.storage;
  const Column& sb = *kb.storage;
  const bool a_str = sa.kind() == Column::Kind::kString;
  const bool b_str = sb.kind() == Column::Kind::kString;
  const bool as_double = sa.kind() == Column::Kind::kDouble ||
                         sb.kind() == Column::Kind::kDouble;
  std::vector<int32_t> recode;
  if (a_str && b_str) {
    recode.reserve(sa.dict().size());
    for (const std::string& v : sa.dict()) recode.push_back(sb.DictCode(v));
  }
  std::unordered_map<uint64_t, std::vector<int32_t>> index;
  std::vector<int32_t> null_rows;
  index.reserve(static_cast<size_t>(b.num_rows()));
  WithKeyWords(kb, as_double, nullptr, [&](const auto& word) {
    for (int64_t j = 0; j < b.num_rows(); ++j) {
      uint64_t w;
      if (!word(j, &w)) {
        null_rows.push_back(static_cast<int32_t>(j));
      } else if (a_str == b_str) {
        index[w].push_back(static_cast<int32_t>(j));
      }
    }
  });
  WithKeyWords(ka, as_double, recode.data(), [&](const auto& word) {
    ParallelFor(na, kBatchRows, [&](int64_t begin, int64_t end,
                                    int64_t chunk) {
      Pairs local;
      local.a.reserve(end - begin);
      local.b.reserve(end - begin);
      for (int64_t i = begin; i < end; ++i) {
        uint64_t w;
        const std::vector<int32_t>* matches = nullptr;
        if (!word(i, &w)) {
          matches = &null_rows;
        } else {
          auto it = index.find(w);
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
  });

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
  // group sizes. The measure is scattered into per-group slices, keeping
  // row order within each group (min/max NaN folds depend on it); one
  // group over storage streams the DOUBLE payload directly (NULL slots
  // store 0.0, which is exactly Value::AsDouble's NULL contribution).
  std::vector<double> agg_values(ng, 0.0);
  if (fn != AggFn::kCount && ng > 0) {
    const ColumnRef ac = input.column_ref(agg_column);
    std::vector<int64_t> offset(ng + 1, 0);
    for (int gi = 0; gi < ng; ++gi)
      offset[gi + 1] = offset[gi] + g.group_size[gi];
    std::vector<double> values;
    const double* slices = nullptr;
    if (ng == 1 && ac.storage->kind() == Column::Kind::kDouble && !ac.rows) {
      slices = ac.storage->doubles().data();
    } else {
      values.resize(n);
      std::vector<int64_t> cursor(offset.begin(), offset.end() - 1);
      for (int64_t i = 0; i < n; ++i)
        values[cursor[g.group_of_row[i]]++] = ac.storage->AsDoubleAt(ac.row(i));
      slices = values.data();
    }
    for (int gi = 0; gi < ng; ++gi) {
      const double* v = slices + offset[gi];
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
                                ? Value::Int(g.group_size[gi])
                                : Value::Double(agg_values[gi]));
    XAI_RETURN_NOT_OK(s);
  }
  out.SetColumn(static_cast<int>(group_columns.size()), std::move(agg_col));
  SetGroupAnnotations(input, g, &out);
  return out;
}

}  // namespace xai::rel
