#ifndef XAI_RELATIONAL_COMPILED_EXPR_H_
#define XAI_RELATIONAL_COMPILED_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "xai/core/status.h"
#include "xai/relational/columnar.h"
#include "xai/relational/expression.h"

namespace xai::rel {

/// \brief An Expr tree compiled against a ColumnarRelation's schema into a
/// flat postorder program of batch kernels.
///
/// Compilation resolves everything the row interpreter re-derives per
/// tuple: column indices are bounds-checked once, every node's value class
/// (numeric vs string) is fixed statically from the column storage classes,
/// string constants keep their std::string out of the inner loops, and
/// nodes whose inputs can never be NULL dispatch to branch-free kernels.
/// Evaluation then runs batch-of-kBatchRows at a time over the typed
/// column arrays — no Value boxing, no variant dispatch, no shared_ptr
/// chasing per row.
///
/// Semantics are exactly those of Value's operators applied tuple at a
/// time (SQL-ish two-valued logic: NULL == NULL, NULL sorts first, numbers
/// sort before strings, arithmetic coerces NULL/STRING to 0.0, booleans
/// are non-NULL 0/1). The tests keep that tuple interpreter as a reference
/// (tests/support) and check results bit for bit: both execute the same
/// IEEE comparisons and arithmetic on the same doubles.
///
/// A CompiledPredicate is immutable after Compile and safe to share across
/// threads; per-thread mutable state lives in a Scratch, one per
/// ParallelFor chunk.
class CompiledPredicate {
 public:
  /// Per-node output buffers for one evaluator. Sized on first use;
  /// reused across batches so steady-state evaluation allocates nothing.
  class Scratch {
   public:
    Scratch();
    ~Scratch();
    Scratch(Scratch&&) noexcept;
    Scratch& operator=(Scratch&&) noexcept;

   private:
    friend class CompiledPredicate;
    struct Batch;
    std::vector<std::unique_ptr<Batch>> slots_;
    // Constant nodes fill their whole batch once per compiled program
    // (the payload never varies with the row range), not once per batch.
    // `program_id_` detects reuse of a (thread_local) Scratch against a
    // different program and invalidates the fills; slot pointers stay.
    std::vector<uint8_t> const_filled_;
    uint64_t program_id_ = 0;
  };

  /// Validates `expr` against the relation's schema. The program keeps
  /// column *indices* only, so it can evaluate against any relation with
  /// the same arity and column storage classes (the shared-scan Shapley
  /// path relies on this for its one-compile-many-scans reuse).
  static Result<CompiledPredicate> Compile(const ExprPtr& expr,
                                           const ColumnarRelation& rel);

  /// Appends the global indices of rows in [begin, end) where the
  /// predicate evaluates true, in row order. `end - begin` is typically
  /// one kBatchRows block; any range works.
  void SelectInto(const ColumnarRelation& rel, int64_t begin, int64_t end,
                  Scratch* scratch, std::vector<int32_t>* out) const;

 private:
  struct Node {
    Expr::Op op;
    int column = -1;      // kColumn: resolved index.
    int child0 = -1;      // Indices into nodes_ (postorder, so < self).
    int child1 = -1;
    bool is_string = false;   // Static value class of this node.
    bool never_null = false;  // No row of this node can be NULL.
    // kConst payload.
    bool const_valid = false;
    double const_num = 0.0;
    std::string const_str;
  };

  CompiledPredicate() = default;
  void EvalNode(const ColumnarRelation& rel, int node, int64_t begin,
                int64_t len, Scratch* scratch) const;
  void PrepareScratch(Scratch* scratch) const;

  std::vector<Node> nodes_;  // Postorder; root last.
  uint64_t program_id_ = 0;  // Process-unique; keys Scratch const caching.
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_COMPILED_EXPR_H_
