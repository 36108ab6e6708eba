#ifndef XAI_EXPLAIN_SHAPLEY_VALUE_FUNCTION_H_
#define XAI_EXPLAIN_SHAPLEY_VALUE_FUNCTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "xai/causal/scm.h"
#include "xai/core/matrix.h"
#include "xai/core/rng.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/model.h"

namespace xai {

/// \brief A cooperative game over feature coalitions (bitmask of players).
///
/// Shapley-value explainers (§2.1.2-2.1.3) differ only in this value
/// function: marginal expectations for SHAP, interventional expectations for
/// causal Shapley values, model-performance for Data Shapley. Implementations
/// may cache: Value() is expected to be deterministic per coalition.
///
/// Threading: the parallel explainers (KernelSHAP, sampling Shapley, exact
/// enumeration; see core/parallel.h) call Value() and Values() concurrently
/// from pool workers. Implementations must be const-reentrant — the
/// built-in games below guard their memoization caches with a mutex and
/// only capture const-reentrant PredictFns (see the Model threading
/// contract in model/model.h).
class CoalitionGame {
 public:
  virtual ~CoalitionGame() = default;
  /// Number of players n. Coalitions are bitmasks over n bits in a
  /// uint64_t, so n <= 64 is a hard structural limit — the built-in games
  /// XAI_CHECK it at construction (silent mask truncation would
  /// mis-attribute every feature past the 64th).
  virtual int num_players() const = 0;
  /// Worth of a coalition.
  virtual double Value(uint64_t coalition) const = 0;
  /// Worth of a block of coalitions: the estimators make one call per
  /// parallel chunk, so a game can share work across the block. Contract:
  ///   - out[i] is bit-identical to Value(masks[i]);
  ///   - counters (`shap/cache_hits`, `shap/cache_misses`,
  ///     `shap/cache_entries`, `model/evals`, a game's num_evaluations())
  ///     move exactly as if the masks had gone through Value one by one, in
  ///     order: a mask repeated inside the block is a hit after its first
  ///     occurrence.
  /// The default loops over Value. `out` is as long as `masks`.
  virtual void Values(std::span<const uint64_t> masks,
                      std::span<double> out) const;
};

/// \brief The coalition → value memo of the built-in games below. Counts
/// `shap/cache_hits` per memoized answer, `shap/cache_misses` per computed
/// value and `shap/cache_entries` per distinct coalition stored.
class CoalitionMemo {
 public:
  /// Computes the values of a block of distinct coalitions.
  using BlockFn =
      std::function<void(std::span<const uint64_t>, std::span<double>)>;

  /// The memoized values of `masks`. The block is probed under one lock; a
  /// mask stored already, or repeated inside the block, is a hit. The
  /// misses run through one `compute` call outside the lock and are stored
  /// under one lock.
  void Get(std::span<const uint64_t> masks, std::span<double> out,
           const BlockFn& compute);

  /// The one-mask case of the block form.
  double Get(uint64_t coalition, const std::function<double()>& compute);

  /// Distinct coalitions stored so far. Atomic: exact and safely readable
  /// while pool workers are inside Get().
  int64_t entries() const { return entries_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;  // Guards cache_.
  std::unordered_map<uint64_t, double> cache_;
  std::atomic<int64_t> entries_{0};
};

/// \brief The (marginal / interventional-by-independence) SHAP game:
///
///   v(S) = (1/B) sum_b f(x_S ; background_b restricted to ~S)
///
/// i.e. features in S take the instance's values, the rest take values from
/// background rows. Values are memoized, so exact enumeration over 2^d
/// coalitions costs each coalition only once.
class MarginalFeatureGame : public CoalitionGame {
 public:
  /// `background` rows supply the off-coalition feature values. If
  /// `max_background` > 0 only the first `max_background` rows are used.
  MarginalFeatureGame(PredictFn f, Vector instance, Matrix background,
                      int max_background = 0);

  /// Model-aware overload. Tree models (decision tree, random forest,
  /// GBDT) score each block of coalitions with a CoalitionScorer
  /// (model/flat_ensemble.h) from precomputed split decisions, building no
  /// hybrid row; other models score each coalition's hybrid rows with one
  /// PredictBatch call. Values are bit-identical to the PredictFn
  /// constructor either way: every row adds the same leaves in the same
  /// order, and rows are summed serially in background order. The model
  /// must outlive the game.
  MarginalFeatureGame(const Model& model, Vector instance, Matrix background,
                      int max_background = 0);

  int num_players() const override;
  double Value(uint64_t coalition) const override;
  void Values(std::span<const uint64_t> masks,
              std::span<double> out) const override;

  /// Number of distinct coalition evaluations so far (for cost accounting);
  /// safely readable while pool workers are inside Value().
  int64_t num_evaluations() const { return memo_.entries(); }

 private:
  /// The memo's miss path: v(S) for a block of distinct coalitions.
  void Compute(std::span<const uint64_t> masks, std::span<double> out) const;

  PredictFn f_;
  /// Model overload only: the tree scorer, or else the batched model call.
  std::optional<CoalitionScorer> scorer_;
  BatchPredictFn batch_f_;
  Vector instance_;
  Matrix background_;
  mutable CoalitionMemo memo_;
};

/// \brief The *conditional* (on-manifold) SHAP game (Aas et al.'s empirical
/// conditioning; the answer to §2.1.2's criticism that marginal Shapley
/// values cannot "capture the indirect influences of features"):
///
///   v(S) = E[ f(X) | X_S = x_S ]
///
/// estimated by averaging f over the `k` training rows closest to the
/// instance in the coalition's coordinates (standardized distance), with
/// the coalition features forced to the instance's values. Because the
/// off-coalition values come from *matching real rows*, correlated features
/// move together and the evaluation points stay near the data manifold —
/// which also blunts OOD-detector-based adversarial attacks (§2.1.1).
class ConditionalFeatureGame : public CoalitionGame {
 public:
  ConditionalFeatureGame(PredictFn f, Vector instance, Matrix background,
                         int k_neighbors = 20);

  /// Model-aware overload: the k matched-neighbor evaluations per coalition
  /// go through one batched model call (see MarginalFeatureGame). The model
  /// must outlive the game.
  ConditionalFeatureGame(const Model& model, Vector instance,
                         Matrix background, int k_neighbors = 20);

  int num_players() const override;
  double Value(uint64_t coalition) const override;

 private:
  PredictFn f_;
  BatchPredictFn batch_f_;  // Non-null only for the Model overload.
  Vector instance_;
  Matrix background_;
  int k_;
  Vector stddevs_;  // Per-feature scale for the conditioning distance.
  mutable CoalitionMemo memo_;
};

/// \brief The causal Shapley game of Heskes et al. (§2.1.3):
///
///   v(S) = E[ f(X) | do(X_S = x_S) ]
///
/// estimated by sampling the SCM under the hard intervention. The RNG is
/// re-seeded per coalition (common random numbers), making Value()
/// deterministic and reducing the variance of marginal contrasts.
class InterventionalScmGame : public CoalitionGame {
 public:
  InterventionalScmGame(const LinearScm* scm, PredictFn f, Vector instance,
                        int mc_samples, uint64_t seed);

  /// Model-aware overload: the sampled interventional matrix is scored with
  /// one batched model call (see MarginalFeatureGame). The model must
  /// outlive the game.
  InterventionalScmGame(const LinearScm* scm, const Model& model,
                        Vector instance, int mc_samples, uint64_t seed);

  int num_players() const override;
  double Value(uint64_t coalition) const override;

 private:
  const LinearScm* scm_;
  PredictFn f_;
  BatchPredictFn batch_f_;  // Non-null only for the Model overload.
  Vector instance_;
  int mc_samples_;
  uint64_t seed_;
  mutable CoalitionMemo memo_;
};

}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_VALUE_FUNCTION_H_
