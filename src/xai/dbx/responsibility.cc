#include "xai/dbx/responsibility.h"

#include <algorithm>
#include <array>
#include <bit>

#include "xai/dbx/shared_scan.h"

namespace xai {
namespace {

// kLanesOfSize[k] has lane j set iff j has k bits: the lanes of a
// truth-table word whose coalitions have k members below bit 6.
constexpr std::array<uint64_t, 7> kLanesOfSize = [] {
  std::array<uint64_t, 7> lanes{};
  for (unsigned j = 0; j < 64; ++j) lanes[std::popcount(j)] |= uint64_t{1} << j;
  return lanes;
}();

// Whether the contingency set left by up-swing coalition `s` comes before
// the one left by `than` (same size) in lexicographic order of positions.
// Two such sets first differ at the lowest position where the coalitions
// differ, and the set holding it comes first: the one whose coalition
// lacks it.
bool ContingencyBefore(uint64_t s, uint64_t than) {
  const uint64_t diff = s ^ than;
  return (than & diff & (~diff + 1)) != 0;
}

}  // namespace

Result<ResponsibilityResult> TupleResponsibility(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    int max_contingency_size) {
  int n = static_cast<int>(endogenous.size());
  if (n == 0) return Status::InvalidArgument("no endogenous tuples");
  if (n > 20)
    return Status::Unimplemented(
        "responsibility search limited to 20 endogenous tuples");

  const CompiledLineage compiled = CompiledLineage::Compile(lineage,
                                                            endogenous);
  const std::vector<uint64_t> table = TruthTableWords(compiled, n);
  const uint64_t all = (uint64_t{1} << n) - 1;

  ResponsibilityResult result;
  if (!((table[all >> 6] >> (all & 63)) & 1)) {
    // The answer does not hold at all: nothing is responsible.
    for (int id : endogenous) result.responsibility[id] = 0.0;
    return result;
  }

  // Removing Gamma keeps the answer and removing t too loses it exactly
  // when the coalition S of the players outside Gamma and t is an
  // up-swing of t: the lineage holds on S with t but not on S. So the
  // smallest Gamma belongs to the largest up-swing, |Gamma| = n - 1 - |S|,
  // and the size cap becomes a floor on |S|.
  const int64_t min_swing = int64_t{n} - 1 - max_contingency_size;
  for (int t = 0; t < n; ++t) {
    int best_size = -1;
    uint64_t best = 0;
    ForEachSwingWord(table, t, [&](uint64_t base, uint64_t up, uint64_t) {
      const int high = std::popcount(base);
      const int64_t floor = std::max<int64_t>(best_size, min_swing);
      for (int k = 6; k >= 0 && high + k >= floor; --k) {
        const uint64_t lanes = up & kLanesOfSize[k];
        if (lanes == 0) continue;
        uint64_t s = base | std::countr_zero(lanes);
        for (uint64_t rest = lanes & (lanes - 1); rest; rest &= rest - 1) {
          const uint64_t other = base | std::countr_zero(rest);
          if (ContingencyBefore(other, s)) s = other;
        }
        if (high + k > best_size || ContingencyBefore(s, best)) {
          best = s;
          best_size = high + k;
        }
        return;
      }
    });
    const uint64_t t_bit = uint64_t{1} << t;
    double responsibility = 0.0;
    std::vector<int> best_contingency;
    if (best_size >= 0) {
      const int size = n - 1 - best_size;
      responsibility = 1.0 / (1.0 + size);
      const uint64_t gamma = all & ~t_bit & ~best;
      for (int i = 0; i < n; ++i)
        if ((gamma >> i) & 1) best_contingency.push_back(endogenous[i]);
    }
    result.responsibility[endogenous[t]] = responsibility;
    result.contingency[endogenous[t]] = best_contingency;
  }
  return result;
}

}  // namespace xai
