#include "xai/dbx/tuple_shapley.h"

#include <algorithm>
#include <unordered_map>

#include "xai/core/combinatorics.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/shared_scan.h"

namespace xai {
namespace {

Status CheckPlayers(int n) {
  if (n == 0) return Status::InvalidArgument("no endogenous tuples");
  if (n > 63) return Status::Unimplemented("more than 63 endogenous tuples");
  return Status::OK();
}

bool Exact(int n, const TupleShapleyConfig& config) {
  return n <= config.exact_limit && n <= 24;
}

/// Shapley values of the coalition game `value` over the players
/// `endogenous` (mask bit i = endogenous[i]): subset enumeration when
/// Exact(), which evaluates every coalition once, else permutation
/// sampling. Every permutation starts at the empty coalition and ends at
/// the grand one, and short prefixes recur, so sampling evaluates each
/// distinct coalition once and memoizes it; the memo returns the very
/// double the game would, so the estimate is bit-identical to evaluating
/// every visit.
TupleShapleyResult Shapley(const std::function<double(uint64_t)>& value,
                           const std::vector<int>& endogenous,
                           const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  TupleShapleyResult result;
  result.exact = Exact(n, config);
  if (result.exact) {
    std::vector<double> phi = ShapleyOfSetFunction(n, value);
    for (int i = 0; i < n; ++i) result.values[endogenous[i]] = phi[i];
    result.game_evaluations = 1 << n;
    return result;
  }

  std::unordered_map<uint64_t, double> memo;
  auto value_of_mask = [&](uint64_t mask) {
    auto [it, inserted] = memo.try_emplace(mask);
    if (inserted) it->second = value(mask);
    return it->second;
  };
  Rng rng(config.seed);
  std::vector<double> acc(n, 0.0);
  for (int p = 0; p < config.permutations; ++p) {
    std::vector<int> perm = rng.Permutation(n);
    uint64_t mask = 0;
    double prev = value_of_mask(0);
    for (int i : perm) {
      mask |= 1ULL << i;
      double cur = value_of_mask(mask);
      acc[i] += cur - prev;
      prev = cur;
    }
  }
  for (int i = 0; i < n; ++i)
    result.values[endogenous[i]] = acc[i] / config.permutations;
  result.game_evaluations = static_cast<int>(memo.size());
  // Each permutation visits n + 1 coalitions; all but the first visits
  // of each hit the memo.
  XAI_COUNTER_ADD("dbx/coalition_memo_hits",
                  int64_t{std::max(config.permutations, 0)} * (n + 1) -
                      result.game_evaluations);
  return result;
}

}  // namespace

Result<TupleShapleyResult> BooleanQueryTupleShapley(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckPlayers(n));

  // One compilation replaces the per-evaluation tree walk (which paid a
  // set lookup plus a linear endogenous scan per lineage node); every
  // coalition evaluation is then a pass over the residual AND/OR program.
  const CompiledLineage compiled = CompiledLineage::Compile(lineage,
                                                            endogenous);
  if (Exact(n, config)) {
    // Exact enumeration visits every coalition in mask order, so the truth
    // table fills block by block, 64 masks per program pass.
    LineageTruthTable table(compiled, n);
    return Shapley(
        [&](uint64_t mask) { return table.Holds(mask) ? 1.0 : 0.0; },
        endogenous, config);
  }
  CompiledLineage::Scratch scratch;
  return Shapley(
      [&](uint64_t mask) { return compiled.Eval(mask, &scratch) ? 1.0 : 0.0; },
      endogenous, config);
}

Result<TupleShapleyResult> NumericQueryTupleShapley(
    const std::function<double(const std::vector<int>& present)>& query_value,
    const std::vector<int>& endogenous, const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckPlayers(n));
  std::vector<int> present;
  present.reserve(n);
  return Shapley(
      [&](uint64_t mask) {
        present.clear();
        for (int i = 0; i < n; ++i)
          if (mask & (1ULL << i)) present.push_back(endogenous[i]);
        return query_value(present);
      },
      endogenous, config);
}

}  // namespace xai
