#include "xai/dbx/responsibility.h"

#include "xai/core/combinatorics.h"
#include "xai/dbx/shared_scan.h"

namespace xai {

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
  LineageTruthTable table(compiled, n);
  const uint64_t all = (uint64_t{1} << n) - 1;

  // holds(removed_mask): does the answer hold when the endogenous tuples in
  // the mask are removed (all others present)? Presence is the complement
  // of removal within the n players.
  auto holds = [&](uint64_t removed_mask) {
    return table.Holds(all & ~removed_mask);
  };

  ResponsibilityResult result;
  if (!holds(0)) {
    // The answer does not hold at all: nothing is responsible.
    for (int id : endogenous) result.responsibility[id] = 0.0;
    return result;
  }

  for (int t = 0; t < n; ++t) {
    uint64_t t_bit = 1ULL << t;
    double responsibility = 0.0;
    std::vector<int> best_contingency;
    bool found = false;
    // BFS over contingency sizes: smallest Gamma first.
    for (int size = 0; size <= max_contingency_size && !found; ++size) {
      // Enumerate subsets of the other tuples of this size.
      std::vector<int> others;
      for (int i = 0; i < n; ++i)
        if (i != t) others.push_back(i);
      int m = static_cast<int>(others.size());
      if (size > m) break;
      std::vector<int> idx(size);
      for (int i = 0; i < size; ++i) idx[i] = i;
      bool more = true;
      while (more) {
        uint64_t gamma = 0;
        for (int i : idx) gamma |= 1ULL << others[i];
        if (holds(gamma) && !holds(gamma | t_bit)) {
          responsibility = 1.0 / (1.0 + size);
          for (int i : idx) best_contingency.push_back(endogenous[others[i]]);
          found = true;
          break;
        }
        // Next combination.
        if (size == 0) break;
        int i = size - 1;
        while (i >= 0 && idx[i] == m - size + i) --i;
        if (i < 0) {
          more = false;
        } else {
          ++idx[i];
          for (int j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
        }
      }
    }
    result.responsibility[endogenous[t]] = responsibility;
    result.contingency[endogenous[t]] = best_contingency;
  }
  return result;
}

}  // namespace xai
