#include "xai/explain/shapley/exact_shapley.h"

#include <numeric>
#include <span>
#include <vector>

#include "xai/core/combinatorics.h"
#include "xai/core/parallel.h"
#include "xai/core/trace.h"

namespace xai {
namespace {

// Fixed chunk size over the 2^n coalition space: thread-count independent,
// so the per-chunk accumulation (and its floating-point order) is too.
constexpr int64_t kMaskGrain = 2048;

// Evaluates every coalition once into a flat table indexed by mask, one
// Values() call per chunk. Each mask is owned by exactly one chunk, so
// cached games do no duplicate work and num_evaluations() stays exact.
std::vector<double> EvaluateAllCoalitions(const CoalitionGame& game,
                                          uint64_t limit) {
  XAI_SPAN("exact_shapley/enumerate");
  std::vector<double> values(limit);
  ParallelFor(static_cast<int64_t>(limit), kMaskGrain,
              [&](int64_t begin, int64_t end, int64_t) {
                std::vector<uint64_t> masks(static_cast<size_t>(end - begin));
                std::iota(masks.begin(), masks.end(),
                          static_cast<uint64_t>(begin));
                game.Values(masks, std::span(values).subspan(
                                       static_cast<size_t>(begin),
                                       masks.size()));
              });
  return values;
}

}  // namespace

Result<Vector> ExactShapley(const CoalitionGame& game) {
  XAI_SPAN("exact_shapley/explain");
  int n = game.num_players();
  if (n > 24)
    return Status::InvalidArgument(
        "ExactShapley is exponential; refusing n > 24");
  // Precompute the weights per subset size.
  Vector w(n);
  for (int s = 0; s < n; ++s) w[s] = ShapleyWeight(n, s);
  uint64_t limit = 1ULL << n;
  std::vector<double> v = EvaluateAllCoalitions(game, limit);
  return ParallelReduce(
      static_cast<int64_t>(limit), kMaskGrain, Vector(n, 0.0),
      [&](int64_t begin, int64_t end, int64_t) {
        Vector phi(n, 0.0);
        for (int64_t m = begin; m < end; ++m) {
          uint64_t mask = static_cast<uint64_t>(m);
          int size = PopCount(mask);
          if (size == n) continue;
          double v_s = v[mask];
          double weight = w[size];
          for (int i = 0; i < n; ++i) {
            if (mask & (1ULL << i)) continue;
            phi[i] += weight * (v[mask | (1ULL << i)] - v_s);
          }
        }
        return phi;
      },
      [n](Vector acc, const Vector& part) {
        for (int i = 0; i < n; ++i) acc[i] += part[i];
        return acc;
      });
}

Result<Vector> ExactBanzhaf(const CoalitionGame& game) {
  XAI_SPAN("exact_shapley/banzhaf");
  int n = game.num_players();
  if (n > 24)
    return Status::InvalidArgument(
        "ExactBanzhaf is exponential; refusing n > 24");
  uint64_t limit = 1ULL << n;
  double denom = static_cast<double>(limit) / 2.0;
  std::vector<double> v = EvaluateAllCoalitions(game, limit);
  return ParallelReduce(
      static_cast<int64_t>(limit), kMaskGrain, Vector(n, 0.0),
      [&](int64_t begin, int64_t end, int64_t) {
        Vector phi(n, 0.0);
        for (int64_t m = begin; m < end; ++m) {
          uint64_t mask = static_cast<uint64_t>(m);
          if (PopCount(mask) == n) continue;
          double v_s = v[mask];
          for (int i = 0; i < n; ++i) {
            if (mask & (1ULL << i)) continue;
            phi[i] += (v[mask | (1ULL << i)] - v_s) / denom;
          }
        }
        return phi;
      },
      [n](Vector acc, const Vector& part) {
        for (int i = 0; i < n; ++i) acc[i] += part[i];
        return acc;
      });
}

int64_t ExactShapleyPlannedEvals(int num_features, int background_rows) {
  if (num_features < 1 || background_rows < 1) return 0;
  constexpr int64_t kSaturated = 4000000000000000000;
  if (num_features >= 60) return kSaturated;
  int64_t coalitions = int64_t{1} << num_features;
  if (coalitions > kSaturated / background_rows) return kSaturated;
  return coalitions * background_rows;
}

}  // namespace xai
