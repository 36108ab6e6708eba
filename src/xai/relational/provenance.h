#ifndef XAI_RELATIONAL_PROVENANCE_H_
#define XAI_RELATIONAL_PROVENANCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace xai::rel {

/// \brief Provenance expression in the free semiring N[X] over base-tuple
/// variables (Green, Karvounarakis & Tannen's K-relations).
///
/// Because N[X] is the universal provenance semiring, one expression tree
/// per result tuple suffices to answer *every* semiring question by
/// evaluation with different carriers:
///  - Boolean semiring   -> possible-worlds membership (the value function
///    of tuple Shapley values and causal responsibility, §3),
///  - counting semiring  -> bag multiplicity,
///  - lineage semiring   -> which base tuples contributed at all,
///  - why-provenance     -> the witness basis (sets of joint witnesses).
///
/// **Ownership.** A ProvExpr is a plain immutable record: a kind, a base
/// id and a non-owning span of child pointers. Nodes live in *arenas*,
/// shared allocations that hold nodes, their child-pointer arrays, and one
/// owning reference ("pin") per input the children point into. An
/// operator that derives new polynomials (join, group-by, distinct) writes
/// all of them into one arena. A ProvExprPtr is an aliasing handle: it
/// shares the control block of the owner that keeps its node alive — the
/// arena itself for the factories' nodes, the relation's annotation block
/// (which pins the operator's arena) for a columnar operator's rows. So
///  - a handle keeps its whole arena alive, together with the input arrays
///    that arena depends on: the annotation blocks of the operator's input
///    relations, and through them their arenas, down to the base tuples;
///  - memory is released per arena, not per node: dropping the last
///    handle into an operator output frees a few flat blocks, with no
///    per-node destructor or reference count.
/// The factories below build the one-node case: Base fuses its node with
/// its control block, Plus/Times add the pins of their two operands, and
/// PlusAll is a one-node ProvArena.
///
/// An annotation block (an input array an arena pins, such as
/// ColumnarRelation's side array) is never mutated once an arena or a
/// handle refers to it, so the child pointers into it stay valid.
///
/// Every handle into one operator output shares one reference count, so
/// parallel code reads nodes through raw `const ProvExpr*` and leaves
/// handle copies to serial code, where the count is not contended.
class ProvExpr;
using ProvExprPtr = std::shared_ptr<const ProvExpr>;

class ProvExpr {
 public:
  enum class Kind : uint8_t { kZero, kOne, kBase, kPlus, kTimes };

  /// Static nodes; their handles own nothing and live forever.
  static ProvExprPtr Zero();
  static ProvExprPtr One();
  /// Variable standing for base tuple `id`.
  static ProvExprPtr Base(int id);
  /// a + b (alternative derivations). Simplifies 0 + x = x.
  static ProvExprPtr Plus(ProvExprPtr a, ProvExprPtr b);
  /// Sum of many terms as a single n-ary Plus node: constant depth however
  /// many tuples a group aggregates, so the recursive evaluators cannot
  /// overflow the stack. Zero terms drop out; empty input yields Zero(), a
  /// single term is returned unchanged.
  static ProvExprPtr PlusAll(std::vector<ProvExprPtr> terms);
  /// a * b (joint derivations). Simplifies 1 * x = x, 0 * x = 0.
  static ProvExprPtr Times(ProvExprPtr a, ProvExprPtr b);

  Kind kind() const { return kind_; }
  int base_id() const { return base_id_; }
  /// Child nodes, alive as long as this node's arena.
  std::span<const ProvExpr* const> children() const {
    return {children_, num_children_};
  }

  /// \name Semiring evaluations
  /// @{

  /// Boolean semiring: true iff the expression is "derivable" when exactly
  /// the base tuples with present(id) == true exist.
  bool EvalBool(const std::function<bool(int)>& present) const;

  /// Counting semiring: multiplicity when base tuple id has multiplicity
  /// mult(id).
  int64_t EvalCount(const std::function<int64_t(int)>& mult) const;

  /// Generic numeric semiring evaluation (e.g. probabilities on a
  /// tropical/Viterbi semiring can be emulated by the caller).
  double EvalNumeric(const std::function<double(int)>& value,
                     const std::function<double(double, double)>& plus,
                     const std::function<double(double, double)>& times,
                     double zero, double one) const;

  /// Lineage: the set of base tuples appearing in the expression.
  std::set<int> Lineage() const;

  /// Why-provenance: the witness basis — minimal sets of base tuples whose
  /// joint presence yields the tuple. (Exponential in pathological
  /// expressions; fine for the query sizes in this library.)
  std::set<std::set<int>> WhyProvenance() const;

  /// Probability that the expression is derivable when every base tuple id
  /// exists independently with probability prob(id) — evaluation over a
  /// tuple-independent probabilistic database. Exact by enumerating the
  /// possible worlds of the lineage variables; refuses > 20 variables
  /// (use the Monte-Carlo variant there; exact evaluation is #P-hard).
  double ProbabilityExact(const std::function<double(int)>& prob) const;

  /// Monte-Carlo estimate of the same probability: samples `samples`
  /// possible worlds with the given uint64 seed.
  double ProbabilityMonteCarlo(const std::function<double(int)>& prob,
                               int samples, uint64_t seed) const;

  /// Polynomial rendering, e.g. "t1*t3 + t2*t3".
  std::string ToString(
      const std::function<std::string(int)>& name = nullptr) const;
  /// @}

 private:
  friend class ProvArena;

  // Trivial, so an arena's node block is not initialized twice.
  ProvExpr() = default;
  constexpr ProvExpr(Kind kind, int base_id, const ProvExpr* const* children,
                     uint32_t num_children)
      : children_(children),
        base_id_(base_id),
        num_children_(num_children),
        kind_(kind) {}

  /// \name Simplification rules
  /// The one copy of the semiring identities, shared by the factories and
  /// ProvArena's bulk builders.
  /// @{

  /// 0 * x = 0 and 1 * x = x (either side): the node standing for a * b,
  /// or nullptr when the product needs a node of its own.
  static const ProvExpr* SimplifiedTimes(const ProvExpr* a,
                                         const ProvExpr* b);
  /// 0 + x = x: drops the Zero terms of terms[0, *n) in place (order kept)
  /// and shrinks *n. Returns the node standing for the sum when it needs no
  /// node of its own — the Zero node for no terms left, the term itself
  /// for one — and nullptr otherwise.
  static const ProvExpr* SimplifiedSum(const ProvExpr** terms, int64_t* n);
  /// @}

  // The factories' one-node arenas, each a single allocation with its
  // control block (provenance.cc).
  struct BaseBlock;
  struct BinaryBlock;
  static ProvExprPtr MakeBinary(Kind kind, ProvExprPtr a, ProvExprPtr b);

  static const ProvExpr kZeroNode;
  static const ProvExpr kOneNode;

  const ProvExpr* const* children_;
  int32_t base_id_;
  uint32_t num_children_;
  Kind kind_;
};

/// \brief One arena of provenance nodes: a block of nodes, a block of
/// child pointers, and one pin per input the children point into.
///
/// A bulk operator sizes one arena for its whole output (a join from its
/// match count, a group-by from its group and row counts), pins its input
/// relations' annotation blocks, and writes every node of the output into
/// it — products (Product) or sums (TermSlots/Sum), not both. The
/// output's annotation block then lists the nodes and pins the arena. All
/// writes finish before the operator returns; from then on the arena is
/// immutable.
class ProvArena {
 public:
  /// Room for `max_nodes` nodes holding `max_children` child pointers in
  /// total; exceeding either fails a check.
  ProvArena(int64_t max_nodes, int64_t max_children);
  ProvArena(const ProvArena&) = delete;
  ProvArena& operator=(const ProvArena&) = delete;

  /// Keeps `input` alive as long as the arena; consecutive pins of one
  /// owner collapse into one reference. Every node handed to Product/Sum
  /// must be kept alive by a pinned input (or be Zero/One). Not
  /// thread-safe.
  void Pin(std::shared_ptr<const void> input);

  /// a * b under the factories' rules, as product `k` of an arena built as
  /// ProvArena(n, 2 * n): node k and child slots 2k, 2k + 1 belong to
  /// product k alone, so a ParallelFor may write distinct products
  /// concurrently and the layout never depends on the thread count. A new
  /// node only when no rule applies.
  const ProvExpr* Product(int64_t k, const ProvExpr* a, const ProvExpr* b);

  /// `n` unwritten child slots for one Sum, contiguous with the slots
  /// handed out before.
  const ProvExpr** TermSlots(int64_t n);
  /// The sum of terms[0, n) (slots TermSlots returned) under the
  /// factories' rules; compacts the slots in place and writes a new n-ary
  /// node only when two or more terms remain.
  const ProvExpr* Sum(const ProvExpr** terms, int64_t n);

 private:
  std::unique_ptr<ProvExpr[]> nodes_;
  std::unique_ptr<const ProvExpr*[]> children_;
  int64_t num_nodes_ = 0, max_nodes_;
  int64_t num_children_ = 0, max_children_;
  std::vector<std::shared_ptr<const void>> pins_;
};

}  // namespace xai::rel

#endif  // XAI_RELATIONAL_PROVENANCE_H_
