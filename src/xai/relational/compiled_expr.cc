#include "xai/relational/compiled_expr.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <type_traits>

#include "xai/core/check.h"

namespace xai::rel {

/// Per-node batch values. The invariant `num == 0 wherever valid == 0 or
/// the node is string-classed` mirrors Value::AsDouble(), so arithmetic
/// and truthiness kernels stream `num` without consulting `valid`.
struct CompiledPredicate::Scratch::Batch {
  double num[kBatchRows];
  const std::string* str[kBatchRows];
  uint8_t valid[kBatchRows];
};

// Out-of-line because Scratch::Batch is incomplete at the class definition.
CompiledPredicate::Scratch::Scratch() = default;
CompiledPredicate::Scratch::~Scratch() = default;
CompiledPredicate::Scratch::Scratch(Scratch&&) noexcept = default;
CompiledPredicate::Scratch& CompiledPredicate::Scratch::operator=(
    Scratch&&) noexcept = default;

namespace {

/// dst[i] = src[rows[i]], or src[i] when `rows` is null, for i < len.
template <typename T, typename U>
void Load(const T* src, const int32_t* rows, int64_t len, U* dst) {
  if (rows) {
    for (int64_t i = 0; i < len; ++i) dst[i] = static_cast<U>(src[rows[i]]);
  } else if constexpr (std::is_same_v<T, U>) {
    std::memcpy(dst, src, len * sizeof(T));
  } else {
    for (int64_t i = 0; i < len; ++i) dst[i] = static_cast<U>(src[i]);
  }
}

/// eq/lt for one row, exactly Value::operator== / operator<: NULL equals
/// only NULL, NULL sorts before everything, numbers sort before strings,
/// numerics compare as double, strings lexicographically.
inline void RowCompare(bool a_str, bool b_str, uint8_t av, uint8_t bv,
                       double an, double bn, const std::string* as,
                       const std::string* bs, bool* eq, bool* lt) {
  if (!av || !bv) {
    *eq = av == bv;
    *lt = !av && bv;
    return;
  }
  if (a_str != b_str) {
    *eq = false;
    *lt = !a_str;  // Numeric sorts before string.
    return;
  }
  if (a_str) {
    *eq = *as == *bs;
    *lt = *as < *bs;
  } else {
    *eq = an == bn;
    *lt = an < bn;
  }
}

/// Combines per-row eq/lt into the requested comparison, composed from
/// Value's == and < like the row reference (kLe = lt|eq, kGt = !lt&!eq,
/// kGe = !lt — which differ from native >,>=,<= on NaN, so the
/// compositions are kept).
inline bool ComposeCompare(Expr::Op op, bool eq, bool lt) {
  switch (op) {
    case Expr::Op::kEq:
      return eq;
    case Expr::Op::kNe:
      return !eq;
    case Expr::Op::kLt:
      return lt;
    case Expr::Op::kLe:
      return lt | eq;
    case Expr::Op::kGt:
      return !lt & !eq;
    default:  // kGe
      return !lt;
  }
}

void CompareInto(Expr::Op op, bool a_str, bool b_str, bool no_nulls,
                 const double* an, const std::string* const* as,
                 const uint8_t* av, const double* bn,
                 const std::string* const* bs, const uint8_t* bv, int64_t len,
                 double* out_num, uint8_t* out_valid) {
  std::memset(out_valid, 1, len);  // Comparisons are never NULL.
  if (!a_str && !b_str && !no_nulls) {
    // Columns are statically nullable (a compiled program may be re-run
    // against relations with NULLs), but most batches carry none in
    // practice. A 2×len byte scan buys the branch-free kernel below.
    no_nulls = std::memchr(av, 0, len) == nullptr &&
               std::memchr(bv, 0, len) == nullptr;
  }
  if (!a_str && !b_str && no_nulls) {
    // Hot path: all-valid numeric vs numeric — branch-free and
    // auto-vectorizable. The op switch is hoisted out of the row loop.
    switch (op) {
      case Expr::Op::kEq:
        for (int64_t i = 0; i < len; ++i) out_num[i] = an[i] == bn[i];
        return;
      case Expr::Op::kNe:
        for (int64_t i = 0; i < len; ++i) out_num[i] = !(an[i] == bn[i]);
        return;
      case Expr::Op::kLt:
        for (int64_t i = 0; i < len; ++i) out_num[i] = an[i] < bn[i];
        return;
      case Expr::Op::kLe:
        for (int64_t i = 0; i < len; ++i)
          out_num[i] = (an[i] < bn[i]) | (an[i] == bn[i]);
        return;
      case Expr::Op::kGt:
        for (int64_t i = 0; i < len; ++i)
          out_num[i] = !(an[i] < bn[i]) & !(an[i] == bn[i]);
        return;
      default:  // kGe
        for (int64_t i = 0; i < len; ++i) out_num[i] = !(an[i] < bn[i]);
        return;
    }
  }
  for (int64_t i = 0; i < len; ++i) {
    bool eq, lt;
    RowCompare(a_str, b_str, av[i], bv[i], an[i], bn[i], as ? as[i] : nullptr,
               bs ? bs[i] : nullptr, &eq, &lt);
    out_num[i] = ComposeCompare(op, eq, lt);
  }
}

}  // namespace

Result<CompiledPredicate> CompiledPredicate::Compile(
    const ExprPtr& expr, const ColumnarRelation& rel) {
  CompiledPredicate p;
  // Postorder flatten with explicit recursion over the (small) tree.
  struct Walker {
    const ColumnarRelation& rel;
    std::vector<Node>* nodes;
    Status status = Status::OK();

    int Walk(const Expr& e) {
      Node n;
      n.op = e.op();
      switch (e.op()) {
        case Expr::Op::kColumn: {
          const int c = e.column_index();
          if (c < 0 || c >= rel.num_columns()) {
            status = Status::InvalidArgument("predicate column out of range");
            return -1;
          }
          n.column = c;
          // The class of the storage the column reads: a view's class is
          // its source's, so nothing is gathered to compile.
          const Column& col = *rel.column_ref(c).storage;
          n.is_string =
              col.kind() == Column::Kind::kString && !col.all_null();
          // Deliberately NOT derived from has_nulls(): a compiled program
          // may be re-run against other relations with the same schema, and
          // those may have NULLs where this one does not.
          n.never_null = false;
          break;
        }
        case Expr::Op::kConst: {
          const Value& v = e.constant();
          n.const_valid = !v.is_null();
          n.never_null = n.const_valid;
          n.is_string = v.type() == Value::Type::kString;
          n.const_num = v.AsDouble();
          if (n.is_string) n.const_str = v.AsString();
          break;
        }
        default: {
          for (const ExprPtr& child : e.children()) {
            const int idx = Walk(*child);
            if (!status.ok()) return -1;
            if (n.child0 < 0) {
              n.child0 = idx;
            } else {
              n.child1 = idx;
            }
          }
          // Comparisons, connectives and arithmetic all produce non-NULL
          // values (booleans are INT 0/1, arithmetic coerces to double).
          n.never_null = true;
          n.is_string = false;
          break;
        }
      }
      nodes->push_back(std::move(n));
      return static_cast<int>(nodes->size()) - 1;
    }
  };
  Walker w{rel, &p.nodes_};
  w.Walk(*expr);
  XAI_RETURN_NOT_OK(w.status);
  static std::atomic<uint64_t> next_program_id{1};
  p.program_id_ = next_program_id.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void CompiledPredicate::PrepareScratch(Scratch* scratch) const {
  while (scratch->slots_.size() < nodes_.size())
    scratch->slots_.push_back(std::make_unique<Scratch::Batch>());
  if (scratch->program_id_ != program_id_) {
    // A (possibly thread_local) Scratch last used by a different program:
    // its constant fills describe the wrong expression. Slots are shape-
    // compatible and fully overwritten per batch, so only the fills reset.
    scratch->program_id_ = program_id_;
    std::fill(scratch->const_filled_.begin(), scratch->const_filled_.end(),
              uint8_t{0});
  }
  scratch->const_filled_.resize(nodes_.size(), 0);
}

void CompiledPredicate::EvalNode(const ColumnarRelation& rel, int ni,
                                 int64_t begin, int64_t len,
                                 Scratch* scratch) const {
  const Node& n = nodes_[ni];
  using Batch = Scratch::Batch;
  Batch& out = *scratch->slots_[ni];
  switch (n.op) {
    case Expr::Op::kColumn: {
      // A view is read through its row map in place; storage (and a view
      // already gathered) is copied contiguously.
      const ColumnRef ref = rel.column_ref(n.column);
      const Column& col = *ref.storage;
      const int32_t* rows = ref.rows ? ref.rows + begin : nullptr;
      const int64_t first = rows ? 0 : begin;
      Load(col.validity().data() + first, rows, len, out.valid);
      switch (col.kind()) {
        case Column::Kind::kInt64:
          Load(col.ints().data() + first, rows, len, out.num);
          break;
        case Column::Kind::kDouble:
          Load(col.doubles().data() + first, rows, len, out.num);
          break;
        case Column::Kind::kString: {
          const int32_t* codes = col.codes().data() + first;
          const std::string* dict = col.dict().data();
          for (int64_t i = 0; i < len; ++i) {
            out.num[i] = 0.0;  // Value::AsDouble(STRING) == 0.
            out.str[i] =
                out.valid[i] ? &dict[codes[rows ? rows[i] : i]] : nullptr;
          }
          break;
        }
      }
      break;
    }
    case Expr::Op::kConst: {
      if (scratch->const_filled_[ni]) break;
      // The payload is row-independent: fill the whole batch once (not
      // just `len`, so a short first range cannot leave a later full
      // batch reading stale tail entries) and skip on every later batch.
      for (int64_t i = 0; i < kBatchRows; ++i) {
        out.valid[i] = n.const_valid;
        out.num[i] = n.const_num;
        if (n.is_string) out.str[i] = &n.const_str;
      }
      scratch->const_filled_[ni] = 1;
      break;
    }
    case Expr::Op::kEq:
    case Expr::Op::kNe:
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe: {
      const Node& a = nodes_[n.child0];
      const Node& b = nodes_[n.child1];
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      CompareInto(n.op, a.is_string, b.is_string,
                  a.never_null && b.never_null, ba.num,
                  a.is_string ? ba.str : nullptr, ba.valid, bb.num,
                  b.is_string ? bb.str : nullptr, bb.valid, len, out.num,
                  out.valid);
      break;
    }
    case Expr::Op::kAnd: {
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      // Truthiness: present and numerically non-zero. The
      // `num == 0 where invalid/string` invariant makes `valid & num != 0`
      // exactly that; bitwise, so no row takes a branch.
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = (ba.valid[i] & (ba.num[i] != 0.0)) &
                     (bb.valid[i] & (bb.num[i] != 0.0));
        out.valid[i] = 1;
      }
      break;
    }
    case Expr::Op::kOr: {
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = (ba.valid[i] & (ba.num[i] != 0.0)) |
                     (bb.valid[i] & (bb.num[i] != 0.0));
        out.valid[i] = 1;
      }
      break;
    }
    case Expr::Op::kNot: {
      const Batch& ba = *scratch->slots_[n.child0];
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = !(ba.valid[i] & (ba.num[i] != 0.0));
        out.valid[i] = 1;
      }
      break;
    }
    case Expr::Op::kAdd: {
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = ba.num[i] + bb.num[i];
        out.valid[i] = 1;
      }
      break;
    }
    case Expr::Op::kSub: {
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = ba.num[i] - bb.num[i];
        out.valid[i] = 1;
      }
      break;
    }
    case Expr::Op::kMul: {
      const Batch& ba = *scratch->slots_[n.child0];
      const Batch& bb = *scratch->slots_[n.child1];
      for (int64_t i = 0; i < len; ++i) {
        out.num[i] = ba.num[i] * bb.num[i];
        out.valid[i] = 1;
      }
      break;
    }
  }
}

void CompiledPredicate::SelectInto(const ColumnarRelation& rel, int64_t begin,
                                   int64_t end, Scratch* scratch,
                                   std::vector<int32_t>* out) const {
  PrepareScratch(scratch);
  const int num_nodes = static_cast<int>(nodes_.size());
  for (int64_t b0 = begin; b0 < end; b0 += kBatchRows) {
    const int64_t len = std::min<int64_t>(kBatchRows, end - b0);
    for (int ni = 0; ni < num_nodes; ++ni)
      EvalNode(rel, ni, b0, len, scratch);
    const Scratch::Batch& root = *scratch->slots_[num_nodes - 1];
    // Branch-free compaction: write every candidate index, advance the
    // cursor only on matches, then trim. Avoids a per-row push_back
    // (capacity check + branch) in the selection loop.
    const size_t base = out->size();
    out->resize(base + len);
    int32_t* dst = out->data() + base;
    int64_t k = 0;
    for (int64_t i = 0; i < len; ++i) {
      dst[k] = static_cast<int32_t>(b0 + i);
      k += root.valid[i] & (root.num[i] != 0.0);
    }
    out->resize(base + k);
  }
}

}  // namespace xai::rel
