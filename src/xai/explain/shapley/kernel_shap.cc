#include "xai/explain/shapley/kernel_shap.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "xai/core/combinatorics.h"
#include "xai/core/linalg.h"
#include "xai/core/parallel.h"
#include "xai/core/trace.h"

namespace xai {
namespace {

// Shapley kernel weight for coalition size s out of d.
double KernelWeight(int d, int s) {
  return (d - 1.0) / (BinomialCoefficient(d, s) * s * (d - s));
}

// Appends every coalition of `size` over d players to out.
void EnumerateSize(int d, int size, std::vector<uint64_t>* out) {
  std::vector<int> idx(size);
  for (int i = 0; i < size; ++i) idx[i] = i;
  for (;;) {
    uint64_t mask = 0;
    for (int i : idx) mask |= 1ULL << i;
    out->push_back(mask);
    int i = size - 1;
    while (i >= 0 && idx[i] == d - size + i) --i;
    if (i < 0) break;
    ++idx[i];
    for (int j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
  }
}

uint64_t RandomMaskOfSize(int d, int size, Rng* rng) {
  std::vector<int> chosen = rng->SampleWithoutReplacement(d, size);
  uint64_t mask = 0;
  for (int i : chosen) mask |= 1ULL << i;
  return mask;
}

}  // namespace

Result<AttributionExplanation> KernelShap(const CoalitionGame& game,
                                          const KernelShapConfig& config,
                                          Rng* rng) {
  XAI_SPAN("kernel_shap/explain");
  int d = game.num_players();
  if (d < 1) return Status::InvalidArgument("game has no players");
  if (d > 64)
    return Status::InvalidArgument(
        "KernelSHAP keys coalitions on a 64-bit mask; the game has " +
        std::to_string(d) + " players");
  const uint64_t full = d == 64 ? ~0ULL : (1ULL << d) - 1;
  if (d == 1) {
    const uint64_t anchors[2] = {0, full};
    double anchor_values[2];
    game.Values(anchors, anchor_values);
    AttributionExplanation exp;
    exp.base_value = anchor_values[0];
    exp.prediction = anchor_values[1];
    exp.attributions = {anchor_values[1] - anchor_values[0]};
    return exp;
  }

  // Collect coalitions and their regression weights. The two anchors, the
  // empty and the full coalition, lead the mask list (slots 0 and 1), so
  // the first block's Values calls evaluate them too; weights[i] belongs
  // to masks[2 + i].
  constexpr int kAnchors = 2;
  std::vector<uint64_t> masks = {0, full};
  std::vector<double> weights;
  double total_coalitions = std::pow(2.0, d) - 2.0;
  if (total_coalitions <= config.coalition_budget) {
    for (int s = 1; s < d; ++s) {
      EnumerateSize(d, s, &masks);
      weights.resize(masks.size() - kAnchors, KernelWeight(d, s));
    }
  } else {
    // Fill size pairs (s, d-s) from the extremes inward while they fit.
    int budget = config.coalition_budget;
    std::vector<bool> enumerated(d, false);
    for (int s = 1; s <= d / 2; ++s) {
      int other = d - s;
      double count = BinomialCoefficient(d, s);
      if (other != s) count *= 2.0;
      if (count > budget) break;
      EnumerateSize(d, s, &masks);
      weights.resize(masks.size() - kAnchors, KernelWeight(d, s));
      if (other != s) {
        EnumerateSize(d, other, &masks);
        weights.resize(masks.size() - kAnchors, KernelWeight(d, other));
      }
      enumerated[s] = enumerated[other] = true;
      budget -= static_cast<int>(count);
    }
    // Sample the remaining budget from the non-enumerated sizes with
    // probability proportional to the total kernel mass of the size. The
    // sampled coalitions' frequencies are then rescaled so their total
    // regression weight equals the kernel mass they stand in for — without
    // this, sampled (middle) sizes would dwarf the enumerated tails.
    std::vector<double> size_mass(d, 0.0);
    double remaining_mass = 0.0;
    for (int s = 1; s < d; ++s) {
      if (enumerated[s]) continue;
      size_mass[s] = KernelWeight(d, s) * BinomialCoefficient(d, s);
      remaining_mass += size_mass[s];
    }
    if (remaining_mass > 0.0 && budget > 0) {
      std::unordered_map<uint64_t, double> sampled;  // mask -> frequency.
      int drawn = 0;
      for (int q = 0; q < budget; ++q) {
        int s = rng->Categorical(size_mass);
        uint64_t mask = RandomMaskOfSize(d, s, rng);
        sampled[mask] += 1.0;
        ++drawn;
        // Paired complement sample (antithetic), as in the reference code.
        if (++q < budget) {
          sampled[full ^ mask] += 1.0;
          ++drawn;
        }
      }
      double scale =
          config.normalize_sampled_mass ? remaining_mass / drawn : 1.0;
      for (const auto& [mask, freq] : sampled) {
        masks.push_back(mask);
        weights.push_back(freq * scale);
      }
    }
  }

  if (weights.empty())
    return Status::InvalidArgument("coalition budget too small");

  // Mask→evaluate→weight→accumulate per row block. Each block's targets
  // come from Values() calls, block 0's with the anchors in front; then
  // its rows are filled and folded serially in ascending row order into
  // the streaming constrained solver, so nothing ever holds the full
  // budget x d design matrix. Where the region runs inline (nested in a
  // parallel region, or a one-thread pool), a block is one Values() call,
  // so a tree game scores it in as few passes as it can; otherwise it
  // splits into 128-mask chunks that the pool runs in parallel (the
  // games' memoization is thread-safe). Values() returns per mask what
  // Value() would, targets are written by index and the fold is serial,
  // so the result is identical at any thread count, grain and nesting.
  const int num_masks = static_cast<int>(weights.size());
  constexpr int kBlockRows = 1024;
  const bool inline_region = InParallelRegion() || GetNumThreads() == 1;
  std::vector<double> rows(static_cast<size_t>(kBlockRows) * d);
  std::vector<double> values(kAnchors + kBlockRows);
  const double* target = values.data() + kAnchors;
  std::optional<CwlsAccumulator> acc;
  double v0 = 0.0, vn = 0.0;
  {
    XAI_SPAN("kernel_shap/eval_coalitions");
    for (int base = 0; base < num_masks; base += kBlockRows) {
      const int bn = std::min(kBlockRows, num_masks - base);
      const int lead = base == 0 ? kAnchors : 0;
      const std::span<const uint64_t> in =
          std::span(masks).subspan(kAnchors + base - lead, bn + lead);
      const std::span<double> out =
          std::span(values).subspan(kAnchors - lead, bn + lead);
      ParallelFor(bn + lead, inline_region ? bn + lead : 128,
                  [&](int64_t begin, int64_t end, int64_t) {
                    const size_t n = static_cast<size_t>(end - begin);
                    game.Values(in.subspan(begin, n), out.subspan(begin, n));
                  });
      if (base == 0) {
        v0 = values[0];
        vn = values[1];
        acc.emplace(d, Vector(d, 1.0), vn - v0);
      }
      for (int r = 0; r < bn; ++r) {
        double* row = rows.data() + static_cast<size_t>(r) * d;
        const uint64_t mask = masks[kAnchors + base + r];
        for (int j = 0; j < d; ++j) row[j] = (mask >> j) & 1ULL ? 1.0 : 0.0;
        values[kAnchors + r] -= v0;
      }
      acc->AddBlock(rows.data(), target, weights.data() + base, bn);
    }
  }
  XAI_SPAN("kernel_shap/solve");
  XAI_ASSIGN_OR_RETURN(Vector phi, acc->Solve(config.ridge));
  AttributionExplanation exp;
  exp.attributions = std::move(phi);
  exp.base_value = v0;
  exp.prediction = vn;
  return exp;
}

int64_t KernelShapPlannedEvals(const KernelShapConfig& config,
                               int num_features, int background_rows) {
  if (num_features < 1 || background_rows < 1) return 0;
  // Full enumeration caps the budget: 2^d - 2 proper coalitions exist.
  double full = num_features < 62 ? std::pow(2.0, num_features) - 2.0 : 4e18;
  double coalitions =
      std::min(static_cast<double>(config.coalition_budget), full) + 2.0;
  double evals = coalitions * background_rows;
  return evals > 4e18 ? int64_t{4000000000000000000}
                      : static_cast<int64_t>(evals);
}

}  // namespace xai
