#include "xai/explain/shapley/sampling_shapley.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "xai/core/parallel.h"
#include "xai/core/trace.h"

namespace xai {
namespace {

// Per-chunk accumulator: running sums of marginal contributions and their
// squares, combined across chunks in chunk order (ordered reduction).
struct MarginalSums {
  Vector sum;
  Vector sum_sq;
};

// Permutations are heavy (n coalition evaluations each), so a small grain
// keeps all workers busy; it is a fixed constant so the chunk layout — and
// therefore the floating-point accumulation order — never depends on the
// thread count.
constexpr int64_t kPermutationGrain = 4;

}  // namespace

SamplingShapleyResult SamplingShapley(const CoalitionGame& game,
                                      int permutations, Rng* rng) {
  XAI_SPAN("sampling_shapley/sweep");
  int n = game.num_players();
  // Each permutation draws from its own RNG stream derived from a single
  // base seed, so the estimate is independent of how permutations are
  // distributed over threads (and the caller's generator advances by
  // exactly one draw regardless of the permutation count).
  uint64_t base_seed = rng->NextU64();
  // Warm the v(empty) cache once before fanning out.
  double v_empty = game.Value(0);

  MarginalSums total = ParallelReduce(
      static_cast<int64_t>(permutations), kPermutationGrain,
      MarginalSums{Vector(n, 0.0), Vector(n, 0.0)},
      [&](int64_t begin, int64_t end, int64_t) {
        // Collect the chunk's permutations and the coalitions along them,
        // value every coalition in one Values() call, then take the
        // marginals in permutation order.
        std::vector<std::vector<int>> perms;
        std::vector<uint64_t> masks;
        perms.reserve(static_cast<size_t>(end - begin));
        masks.reserve(static_cast<size_t>(end - begin) * n);
        for (int64_t p = begin; p < end; ++p) {
          Rng perm_rng(SplitSeed(base_seed, static_cast<uint64_t>(p)));
          perms.push_back(perm_rng.Permutation(n));
          uint64_t mask = 0;
          for (int i : perms.back()) {
            mask |= 1ULL << i;
            masks.push_back(mask);
          }
        }
        std::vector<double> values(masks.size());
        game.Values(masks, values);

        MarginalSums acc{Vector(n, 0.0), Vector(n, 0.0)};
        size_t k = 0;
        for (const std::vector<int>& perm : perms) {
          double prev = v_empty;
          for (int i : perm) {
            double cur = values[k++];
            double marginal = cur - prev;
            acc.sum[i] += marginal;
            acc.sum_sq[i] += marginal * marginal;
            prev = cur;
          }
        }
        return acc;
      },
      [n](MarginalSums acc, const MarginalSums& part) {
        for (int i = 0; i < n; ++i) {
          acc.sum[i] += part.sum[i];
          acc.sum_sq[i] += part.sum_sq[i];
        }
        return acc;
      });

  SamplingShapleyResult result;
  result.permutations_used = permutations;
  result.values.resize(n);
  result.std_errors.resize(n);
  for (int i = 0; i < n; ++i) {
    double mean = total.sum[i] / permutations;
    result.values[i] = mean;
    if (permutations > 1) {
      double var =
          (total.sum_sq[i] - permutations * mean * mean) / (permutations - 1);
      result.std_errors[i] = std::sqrt(std::max(0.0, var) / permutations);
    }
  }
  return result;
}

int64_t SamplingShapleyPlannedEvals(int permutations, int num_features,
                                    int background_rows) {
  if (permutations < 1 || num_features < 1 || background_rows < 1) return 0;
  return static_cast<int64_t>(permutations) * num_features * background_rows;
}

}  // namespace xai
