#ifndef XAI_DBX_TUPLE_SHAPLEY_H_
#define XAI_DBX_TUPLE_SHAPLEY_H_

#include <functional>
#include <map>
#include <vector>

#include "xai/core/rng.h"
#include "xai/core/status.h"
#include "xai/dbx/shared_scan.h"
#include "xai/relational/provenance.h"

namespace xai {

/// \brief Shapley values of tuples in query answering (Livshits, Bertossi,
/// Kimelfeld & Sebag 2021, §3 "Explanations in Databases"): the database is
/// split into *exogenous* tuples (always present) and *endogenous* tuples
/// (the players); the Shapley value of an endogenous tuple measures its
/// contribution to a query answer.
///
/// Games are expressed over the boolean provenance of the answer: a
/// coalition S of endogenous tuples is "present" together with all exogenous
/// tuples, and the value is the query outcome on that sub-instance.

/// Configuration for the estimators.
struct TupleShapleyConfig {
  /// Exact computation is refused above this many endogenous tuples.
  int exact_limit = 20;
  /// Permutation samples for the Monte-Carlo estimator.
  int permutations = 2000;
  uint64_t seed = 31;
};

/// Result values are keyed by endogenous tuple id.
struct TupleShapleyResult {
  std::map<int, double> values;
  /// Distinct coalitions the game was asked for: 2^n when exact; when
  /// sampling, each coalition the permutations visit is asked for once,
  /// and revisits add to the `dbx/coalition_memo_hits` counter. (A
  /// SharedScanAggregate may answer several of them with one evaluation;
  /// see `dbx/shared_scan_collapsed`.)
  int game_evaluations = 0;
  bool exact = false;
};

/// Shapley values for a *boolean* query: v(S) = 1 iff the answer's lineage
/// is derivable from S plus the exogenous tuples. Exact (subset
/// enumeration) when |endogenous| <= exact_limit.
Result<TupleShapleyResult> BooleanQueryTupleShapley(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config = {});

/// Shapley values for a general numeric query given as a callback:
/// `query_value(present)` recomputes the answer when exactly the
/// endogenous tuple ids listed in `present` (in `endogenous` order) exist;
/// it must be a function of `present` alone, since each coalition is asked
/// once, in the order the estimator first needs it. Used for aggregate
/// queries (e.g. COUNT of qualifying rows). Exact (subset enumeration,
/// a 2^n table of values) when |endogenous| <= exact_limit (default 20;
/// never above 24), Monte-Carlo permutation sampling otherwise. Sampling
/// works in chunks of permutations: its memory is O(distinct coalitions
/// visited + one chunk of about 32 768 visits), held in a per-thread
/// scratch that later questions on the thread reuse.
Result<TupleShapleyResult> NumericQueryTupleShapley(
    const std::function<double(const std::vector<int>& present)>& query_value,
    const std::vector<int>& endogenous, const TupleShapleyConfig& config = {});

/// The same Shapley values, bit for bit, for the query a SharedScanAggregate
/// answers (the handle its AsQueryValue returns). The players map to the
/// scan's mask bits once per call, and the coalitions go to
/// SharedScanAggregate::Values in blocks: sampling asks for each chunk's
/// new coalitions in one call, and the exact path fills its table in
/// blocks of 4 096 masks.
Result<TupleShapleyResult> NumericQueryTupleShapley(
    const SharedScanQuery& query, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config = {});

}  // namespace xai

#endif  // XAI_DBX_TUPLE_SHAPLEY_H_
