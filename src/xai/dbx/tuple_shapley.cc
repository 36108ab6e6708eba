#include "xai/dbx/tuple_shapley.h"

#include <bit>
#include <unordered_map>

#include "xai/core/combinatorics.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/shared_scan.h"

namespace xai {
namespace {

bool Exact(int n, const TupleShapleyConfig& config) {
  return n <= config.exact_limit && n <= 24;
}

Status CheckGame(int n, const TupleShapleyConfig& config) {
  if (n == 0) return Status::InvalidArgument("no endogenous tuples");
  if (n > 63) return Status::Unimplemented("more than 63 endogenous tuples");
  if (!Exact(n, config) && config.permutations <= 0)
    return Status::InvalidArgument(
        "permutation sampling needs permutations > 0");
  return Status::OK();
}

/// Exact Shapley values of a boolean game from its TruthTableWords table.
/// ShapleyOfSetFunction adds w[|S|] * (v(S + i) - v(S)) to phi[i] for
/// every S without i, in ascending order. On a 0/1 game the term is +w at
/// an up-swing, -w at a down-swing and +0.0 everywhere else, and adding
/// +0.0 changes only -0.0, which phi never is: it starts at +0.0, adds
/// nonzero terms, and an exact cancellation rounds to +0.0. Adding +/-w at
/// the swings alone, in ascending S, therefore performs that same chain
/// of roundings.
std::vector<double> BooleanShapley(const std::vector<uint64_t>& table,
                                   int n) {
  std::vector<double> w(n);
  for (int s = 0; s < n; ++s) w[s] = ShapleyWeight(n, s);
  std::vector<double> phi(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    ForEachSwingWord(table, i, [&](uint64_t base, uint64_t up,
                                   uint64_t down) {
      const int high = std::popcount(base);
      for (uint64_t lanes = up | down; lanes; lanes &= lanes - 1) {
        const int j = std::countr_zero(lanes);
        const double term = w[high + std::popcount(static_cast<unsigned>(j))];
        if ((up >> j) & 1) {
          acc += term;
        } else {
          acc -= term;
        }
      }
    });
    phi[i] = acc;
  }
  return phi;
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
                  int64_t{config.permutations} * (n + 1) -
                      result.game_evaluations);
  return result;
}

}  // namespace

Result<TupleShapleyResult> BooleanQueryTupleShapley(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckGame(n, config));

  // One compilation replaces the per-evaluation tree walk (which paid a
  // set lookup plus a linear endogenous scan per lineage node); every
  // coalition evaluation is then a pass over the residual AND/OR program.
  const CompiledLineage compiled = CompiledLineage::Compile(lineage,
                                                            endogenous);
  if (Exact(n, config)) {
    // Every coalition is evaluated, 64 per program pass.
    const std::vector<double> phi =
        BooleanShapley(TruthTableWords(compiled, n), n);
    TupleShapleyResult result;
    result.exact = true;
    for (int i = 0; i < n; ++i) result.values[endogenous[i]] = phi[i];
    result.game_evaluations = 1 << n;
    return result;
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
  XAI_RETURN_NOT_OK(CheckGame(n, config));
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
