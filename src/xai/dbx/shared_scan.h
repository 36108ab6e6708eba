#ifndef XAI_DBX_SHARED_SCAN_H_
#define XAI_DBX_SHARED_SCAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "xai/core/status.h"
#include "xai/dbx/mask_index.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/provenance.h"
#include "xai/relational/relation.h"

namespace xai {

/// \brief Boolean lineage compiled against a fixed endogenous-tuple set.
///
/// The Shapley and responsibility analyses evaluate the same lineage under
/// thousands to millions of coalitions. The naive path re-walks the
/// ProvExpr tree per coalition with a `present(id)` callback that does a
/// set lookup plus a linear scan of the endogenous list per *node*.
/// Compile() does all of that once: exogenous variables partial-evaluate
/// to true (folding constants through the +/x structure), endogenous
/// variables resolve to bit positions in the coalition mask, and what
/// remains flattens into a postorder AND/OR program over the shared DAG.
/// Eval(mask) then costs O(remaining nodes) with no hashing, no
/// std::function, and no allocation.
///
/// Eval is exactly ProvExpr::EvalBool with
///   present(id) = id not endogenous ? true : mask bit of id,
/// where duplicate ids in `endogenous` resolve to their first bit, like
/// the linear scan they replace. Masks are 64 bits wide, so Compile
/// refuses (XAI_CHECK) more than 64 endogenous ids.
class CompiledLineage {
 public:
  /// Reusable per-evaluator buffer (one per thread when evaluating
  /// concurrently; Eval never allocates once it has grown).
  struct Scratch {
    std::vector<uint8_t> vals;
    std::vector<uint64_t> lanes;  // Eval64 per-node lane vectors.
  };

  static CompiledLineage Compile(const rel::ProvExprPtr& lineage,
                                 const std::vector<int>& endogenous);

  /// Coalition bit i = endogenous[i] present. Bits >= endogenous.size()
  /// are ignored.
  bool Eval(uint64_t mask, Scratch* scratch) const;

  /// Bit-parallel block evaluation: bit j of the result is
  /// Eval(block + j) for the 64-aligned block of masks containing
  /// `base_mask` (its low 6 bits are ignored). One pass over the program
  /// evaluates 64 consecutive coalitions — a variable's 64-lane vector is
  /// a fixed low-bit pattern (mask bits 0-5) or a broadcast of the
  /// block's bit (bits 6+), and each AND/OR is a single word op. This is
  /// what compilation buys over the interpreted tree walk for
  /// exhaustive-enumeration games (exact Shapley, responsibility).
  uint64_t Eval64(uint64_t base_mask, Scratch* scratch) const;

  /// True when the result does not depend on the mask at all (the lineage
  /// is derivable from exogenous tuples alone, or not derivable at all);
  /// `*value` receives the constant.
  bool IsConst(bool* value) const;
  /// True when the result is the AND of one or more mask bits (a single
  /// variable, or a conjunction of variables); `*bits` receives them.
  bool IsConjunction(uint64_t* bits) const;

  /// Number of program ops Eval executes (0 when constant).
  int num_ops() const { return static_cast<int>(nodes_.size()); }

  /// The mask bits Eval reads (0 when constant).
  uint64_t var_bits() const;

 private:
  struct Node {
    enum class Op : uint8_t { kVar, kAnd, kOr };
    Op op;
    int bit = -1;            // kVar: mask bit.
    std::vector<int> args;   // kAnd/kOr: earlier slots.
  };

  std::vector<Node> nodes_;
  bool root_is_const_ = true;
  bool const_result_ = false;
  int root_slot_ = -1;
};

/// Lane bit patterns of the 64-coalition blocks the truth-table helpers
/// work in: lane j of a word stands for coalition 64k + j, and
/// kLaneBit[b] (b < 6) has lane j set iff j has bit b.
inline constexpr uint64_t kLaneBit[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Truth table of a compiled lineage over the masks below 2^n (n <= 24),
/// as max(2^n / 64, 1) words filled by one Eval64 pass each: bit j of
/// word k is lineage.Eval(64k + j), and bits at or above 2^n (n < 6) are
/// zero. Exact boolean tuple-Shapley and the responsibility search both
/// read the game through it.
std::vector<uint64_t> TruthTableWords(const CompiledLineage& lineage, int n);

/// Visits player i's swings in a TruthTableWords table, in ascending
/// coalition order, one 64-coalition block at a time: fn(base, up, down)
/// for every block with a swing, where lane j stands for the coalition
/// S = base + j, which lacks bit i; `up` has lane j set when the lineage
/// holds on S with i but not on S, and `down` when it holds on S but not
/// with i. Lanes whose coalition has bit i (i < 6) are clear in both.
/// Requires i < n.
template <typename Fn>
void ForEachSwingWord(const std::vector<uint64_t>& table, int i, Fn&& fn) {
  auto visit = [&](size_t k, uint64_t without, uint64_t with,
                   uint64_t lanes) {
    const uint64_t up = with & ~without & lanes;
    const uint64_t down = without & ~with & lanes;
    if (up | down) fn(uint64_t{k} << 6, up, down);
  };
  if (i < 6) {
    // S and S with i share a word: S with i sits 2^i lanes higher.
    for (size_t k = 0; k < table.size(); ++k)
      visit(k, table[k], table[k] >> (1 << i), ~kLaneBit[i]);
    return;
  }
  // S with i sits 2^(i-6) words higher.
  const size_t stride = size_t{1} << (i - 6);
  for (size_t block = 0; block < table.size(); block += 2 * stride)
    for (size_t k = block; k < block + stride; ++k)
      visit(k, table[k], table[k + stride], ~uint64_t{0});
}

class SharedScanQuery;

/// \brief Shared-scan evaluator for aggregate coalition games over a query
/// result: v(S) = aggregate over the result rows whose lineage is
/// derivable from S plus the exogenous tuples.
///
/// One pass over the result relation precomputes, per row, its aggregate
/// contribution (Value::AsDouble of the aggregate column; 1.0 for COUNT)
/// and its presence condition as a need mask: the coalition bits the row
/// needs (0 for a row exogenous tuples derive, the bits of a conjunctive
/// lineage, or a bit no coalition sets for an underivable row). A row
/// whose annotation has no Plus gets its need word from one walk over its
/// product; only a row with a Plus is compiled, and one whose compiled
/// lineage keeps an OR keeps its program, which sets its need word per
/// coalition. A coalition's value aggregates the present rows' values *in
/// row order* through the canonical aggregation kernels of
/// rel/agg_kernels.h — the same kernels GroupByAggregate uses — so it
/// equals, bit for bit, what re-running the query pipeline on the reduced
/// sub-instance produces (operators preserve relative row order under
/// tuple removal).
///
/// Values answers a block of coalitions with two kinds of sharing:
///   - Row-set collapse. A coalition's key is the OR of the distinct need
///     words it covers, plus its bits among the program rows' variables.
///     Coalitions with equal keys admit exactly the same rows in the same
///     order, so each distinct key is evaluated once, at the key itself.
///     The masks answered by another mask's evaluation are added to the
///     `dbx/shared_scan_collapsed` counter, once per call.
///   - Fused passes. SUM, COUNT and AVG sum up to
///     simd::kCompressSumsWays keys per pass over the rows with
///     simd::CompressSums, which stores no kept value; MIN and MAX gather
///     the kept values with simd::Compress, one key per pass.
///
/// This replaces the rebuild-per-coalition pattern (filter the base
/// relations, re-join, re-aggregate — O(pipeline) per coalition) with
/// O(result rows) per distinct key after a single shared scan.
class SharedScanAggregate {
 public:
  /// `rows` is the materialized query result whose annotations carry the
  /// lineage. `agg_column` is ignored for kCount. At most 63 endogenous
  /// tuples (bit 63 marks underivable rows). Adds the row count to the
  /// `dbx/shared_scan_rows` counter and the rows that keep a program to
  /// `dbx/shared_scan_program_rows`.
  static Result<SharedScanAggregate> Build(const rel::Relation& rows,
                                           rel::AggFn fn, int agg_column,
                                           const std::vector<int>& endogenous);

  /// out[j] = the aggregate under coalition masks[j] (bit i = endogenous
  /// tuple i present; bits past the players are ignored); `out` is as
  /// long as `masks`. Empty-selection aggregates are 0.0 (count 0, sum 0;
  /// min/max/avg of nothing are 0, CanonicalMin/Max's empty-group value).
  /// Scratch memory is O(masks.size()); it is kept for the next call.
  void Values(std::span<const uint64_t> masks, std::span<double> out);

  /// The one-mask case of Values.
  double Eval(uint64_t mask);

  /// Mask of the endogenous tuple ids listed in `ids`, in any order: each
  /// id's first position in `endogenous` (ids that are not endogenous are
  /// ignored).
  uint64_t MaskOf(std::span<const int> ids) const;

  /// The query-value handle NumericQueryTupleShapley takes. It borrows
  /// `this` — keep the evaluator alive while it is in use.
  SharedScanQuery AsQueryValue();

  int64_t num_rows() const { return static_cast<int64_t>(values_.size()); }

 private:
  /// Need bit of an underivable row: no player has bit 63.
  static constexpr uint64_t kNever = uint64_t{1} << 63;

  struct ProgramRow {
    int64_t row;
    CompiledLineage lineage;
  };

  /// Mask bit of endogenous tuple `id` (its first position), or -1 when
  /// it is exogenous. The search starts at *cursor and wraps around; a hit
  /// at position p leaves *cursor at p + 1, so ids looked up in player
  /// order cost one pass over the players in all.
  int BitOf(int id, size_t* cursor) const;

  /// Need word of an annotation without Plus nodes (Times is AND, One and
  /// exogenous tuples are true, Zero is false), or false when the walk
  /// meets a Plus or grows past a bounded size; such rows are compiled.
  bool ProductNeed(const rel::ProvExpr& root,
                   std::vector<const rel::ProvExpr*>* stack,
                   uint64_t* need) const;

  /// Row-set key of a coalition (see the class comment).
  uint64_t KeyOf(uint64_t mask) const;

  /// Values of the interned keys numbered [begin, end), which agree on
  /// the program variables; the program rows' need words are set for them.
  void EvalKeys(size_t begin, size_t end);

  rel::AggFn fn_ = rel::AggFn::kCount;
  std::vector<double> values_;
  // Row i is present iff (need_[i] & ~(mask & ~kNever)) == 0.
  std::vector<uint64_t> need_;
  std::vector<ProgramRow> programs_;
  // Distinct need words other than 0 and kNever's, and the bits that
  // program rows read.
  std::vector<uint64_t> distinct_needs_;
  uint64_t program_vars_ = 0;
  // endogenous[p] and the mask bit of its first occurrence.
  std::vector<int> players_;
  std::vector<int> first_bit_;
  CompiledLineage::Scratch scratch_;
  // Per-call scratch: the keys, each mask's key number, the keys' values,
  // and MIN/MAX's gather buffer.
  MaskIndex keys_;
  std::vector<uint32_t> key_of_mask_;
  std::vector<double> key_values_;
  std::vector<double> gather_;
};

/// \brief The callable SharedScanAggregate::AsQueryValue returns: a
/// query-value callback over present-id lists, query(present) =
/// scan.Eval(scan.MaskOf(present)), so it converts to the
/// std::function that NumericQueryTupleShapley takes. The overload of
/// NumericQueryTupleShapley for this type maps the players to scan bits
/// once per call and evaluates coalitions in blocks through Values.
class SharedScanQuery {
 public:
  explicit SharedScanQuery(SharedScanAggregate* scan) : scan_(scan) {}

  double operator()(const std::vector<int>& present) const {
    return scan_->Eval(scan_->MaskOf(present));
  }

  SharedScanAggregate& scan() const { return *scan_; }

 private:
  SharedScanAggregate* scan_;
};

}  // namespace xai

#endif  // XAI_DBX_SHARED_SCAN_H_
