#include "xai/explain/shapley/value_function.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/telemetry.h"

namespace xai {
namespace {

/// Coalition masks are uint64_t: a 65th feature would silently fall off the
/// mask and every explainer built on the game would mis-attribute it. Fail
/// loudly at construction instead.
void CheckCoalitionWidth(const Vector& instance) {
  XAI_CHECK_MSG(instance.size() <= 64,
                "coalition games key on a 64-bit mask; instances with more "
                "than 64 features are not representable");
}

}  // namespace

void CoalitionGame::Values(std::span<const uint64_t> masks,
                           std::span<double> out) const {
  XAI_CHECK_EQ(masks.size(), out.size());
  for (size_t i = 0; i < masks.size(); ++i) out[i] = Value(masks[i]);
}

void CoalitionMemo::Get(std::span<const uint64_t> masks,
                        std::span<double> out, const BlockFn& compute) {
  XAI_CHECK_EQ(masks.size(), out.size());
  // Distinct masks the memo lacks, and for each position the miss that
  // answers it (-1: answered from the memo; sized at the first miss, so an
  // all-hit block allocates nothing).
  std::vector<uint64_t> misses;
  std::vector<int64_t> miss_of;
  std::unordered_map<uint64_t, int64_t> first_miss;
  int64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < masks.size(); ++i) {
      auto it = cache_.find(masks[i]);
      if (it != cache_.end()) {
        out[i] = it->second;
        ++hits;
        continue;
      }
      if (miss_of.empty()) miss_of.assign(masks.size(), -1);
      auto [first, fresh] = first_miss.emplace(
          masks[i], static_cast<int64_t>(misses.size()));
      if (fresh) {
        misses.push_back(masks[i]);
      } else {
        ++hits;  // A repeat inside the block, as Value() would have seen it.
      }
      miss_of[i] = first->second;
    }
  }
  // Count after dropping the lock: telemetry must not lengthen the
  // critical section other threads are waiting on.
  if (hits > 0) XAI_COUNTER_ADD("shap/cache_hits", hits);
  if (misses.empty()) return;

  // Compute outside the lock: values are deterministic per coalition, so if
  // two threads race on the same mask they produce the same value and the
  // duplicate work is the only cost. entries_ counts cache insertions, i.e.
  // distinct coalitions, which stays deterministic; the miss counter counts
  // computed coalitions (race duplicates included), so hits + misses equals
  // the number of masks asked for exactly.
  XAI_COUNTER_ADD("shap/cache_misses", static_cast<int64_t>(misses.size()));
  std::vector<double> values(misses.size());
  compute(misses, values);
  int64_t inserted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t k = 0; k < misses.size(); ++k) {
      auto [it, fresh] = cache_.emplace(misses[k], values[k]);
      values[k] = it->second;
      inserted += fresh;
    }
  }
  if (inserted > 0) {
    entries_.fetch_add(inserted, std::memory_order_relaxed);
    XAI_COUNTER_ADD("shap/cache_entries", inserted);
  }
  for (size_t i = 0; i < masks.size(); ++i)
    if (miss_of[i] >= 0) out[i] = values[miss_of[i]];
}

double CoalitionMemo::Get(uint64_t coalition,
                          const std::function<double()>& compute) {
  double value = 0.0;
  Get({&coalition, 1}, {&value, 1},
      [&](std::span<const uint64_t>, std::span<double> out) {
        out[0] = compute();
      });
  return value;
}

MarginalFeatureGame::MarginalFeatureGame(PredictFn f, Vector instance,
                                         Matrix background,
                                         int max_background)
    : f_(std::move(f)), instance_(std::move(instance)) {
  CheckCoalitionWidth(instance_);
  XAI_CHECK_GT(background.rows(), 0);
  XAI_CHECK_EQ(background.cols(), static_cast<int>(instance_.size()));
  if (max_background > 0 && max_background < background.rows()) {
    Matrix truncated(max_background, background.cols());
    for (int i = 0; i < max_background; ++i)
      truncated.SetRow(i, background.Row(i));
    background_ = std::move(truncated);
  } else {
    background_ = std::move(background);
  }
}

MarginalFeatureGame::MarginalFeatureGame(const Model& model, Vector instance,
                                         Matrix background,
                                         int max_background)
    : MarginalFeatureGame(AsPredictFn(model), std::move(instance),
                          std::move(background), max_background) {
  if (std::shared_ptr<const FlatEnsemble> flat = FlatEnsembleOf(model)) {
    scorer_.emplace(std::move(flat), background_, instance_);
  } else {
    batch_f_ = AsBatchPredictFn(model);
  }
}

int MarginalFeatureGame::num_players() const {
  return static_cast<int>(instance_.size());
}

double MarginalFeatureGame::Value(uint64_t coalition) const {
  double value = 0.0;
  Values({&coalition, 1}, {&value, 1});
  return value;
}

void MarginalFeatureGame::Values(std::span<const uint64_t> masks,
                                 std::span<double> out) const {
  memo_.Get(masks, out,
            [this](std::span<const uint64_t> misses, std::span<double> sums) {
              Compute(misses, sums);
            });
}

void MarginalFeatureGame::Compute(std::span<const uint64_t> masks,
                                  std::span<double> out) const {
  const int d = num_players();
  const int rows = background_.rows();
  if (scorer_) {
    // The scorer adds each row's leaves in tree order and sums the rows in
    // background order, as ScoreRows plus the serial sum below would; it
    // evaluates no model rows itself, so the game counts them here.
    scorer_->SumOver(masks, out);
    XAI_COUNTER_ADD("model/evals", static_cast<int64_t>(masks.size()) * rows);
  } else if (batch_f_) {
    // One batched model call per coalition's background sweep. Rows are
    // filled in the same order as the scalar path and the predictions are
    // summed serially in row order, so the value is bit-identical; the
    // model's PredictBatch owns the model/evals accounting on this path.
    Matrix hybrid(rows, d);
    for (size_t i = 0; i < masks.size(); ++i) {
      for (int b = 0; b < rows; ++b) {
        const double* bg = background_.RowPtr(b);
        double* row = hybrid.RowPtr(b);
        for (int j = 0; j < d; ++j)
          row[j] = (masks[i] & (1ULL << j)) ? instance_[j] : bg[j];
      }
      double acc = 0.0;
      for (double p : batch_f_(hybrid)) acc += p;
      out[i] = acc;
    }
  } else {
    Vector row(d);
    for (size_t i = 0; i < masks.size(); ++i) {
      double acc = 0.0;
      for (int b = 0; b < rows; ++b) {
        const double* bg = background_.RowPtr(b);
        for (int j = 0; j < d; ++j)
          row[j] = (masks[i] & (1ULL << j)) ? instance_[j] : bg[j];
        acc += f_(row);
      }
      out[i] = acc;
    }
    XAI_COUNTER_ADD("model/evals", static_cast<int64_t>(masks.size()) * rows);
  }
  for (double& sum : out) sum /= rows;
}

ConditionalFeatureGame::ConditionalFeatureGame(PredictFn f, Vector instance,
                                               Matrix background,
                                               int k_neighbors)
    : f_(std::move(f)),
      instance_(std::move(instance)),
      background_(std::move(background)),
      k_(k_neighbors) {
  CheckCoalitionWidth(instance_);
  XAI_CHECK_GT(background_.rows(), 0);
  XAI_CHECK_EQ(background_.cols(), static_cast<int>(instance_.size()));
  XAI_CHECK_GT(k_, 0);
  // Per-feature scales for the conditioning distance.
  int d = background_.cols();
  stddevs_.assign(d, 1.0);
  for (int j = 0; j < d; ++j) {
    double mean = 0.0;
    for (int i = 0; i < background_.rows(); ++i) mean += background_(i, j);
    mean /= background_.rows();
    double var = 0.0;
    for (int i = 0; i < background_.rows(); ++i) {
      double diff = background_(i, j) - mean;
      var += diff * diff;
    }
    var /= std::max(1, background_.rows() - 1);
    stddevs_[j] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
}

ConditionalFeatureGame::ConditionalFeatureGame(const Model& model,
                                               Vector instance,
                                               Matrix background,
                                               int k_neighbors)
    : ConditionalFeatureGame(AsPredictFn(model), std::move(instance),
                             std::move(background), k_neighbors) {
  batch_f_ = AsBatchPredictFn(model);
}

int ConditionalFeatureGame::num_players() const {
  return static_cast<int>(instance_.size());
}

double ConditionalFeatureGame::Value(uint64_t coalition) const {
  return memo_.Get(coalition, [&] {
    int d = num_players();
    int n = background_.rows();
    int k = std::min(k_, n);

    // Rank background rows by distance to the instance over the coalition's
    // features (empty coalition: every row is equally close).
    std::vector<std::pair<double, int>> by_dist(n);
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int j = 0; j < d; ++j) {
        if (!(coalition & (1ULL << j))) continue;
        double diff = (background_(i, j) - instance_[j]) / stddevs_[j];
        acc += diff * diff;
      }
      by_dist[i] = {acc, i};
    }
    std::nth_element(by_dist.begin(), by_dist.begin() + (k - 1),
                     by_dist.end());

    double acc = 0.0;
    if (batch_f_) {
      // Batched: same k rows in the same neighbor order, summed serially
      // (bit-identical to the scalar loop); PredictBatch counts model/evals.
      Matrix rows(k, d);
      for (int q = 0; q < k; ++q) {
        int i = by_dist[q].second;
        double* out = rows.RowPtr(q);
        for (int j = 0; j < d; ++j)
          out[j] = (coalition & (1ULL << j)) ? instance_[j]
                                             : background_(i, j);
      }
      const Vector preds = batch_f_(rows);
      for (double p : preds) acc += p;
    } else {
      Vector row(d);
      for (int q = 0; q < k; ++q) {
        int i = by_dist[q].second;
        for (int j = 0; j < d; ++j)
          row[j] = (coalition & (1ULL << j)) ? instance_[j]
                                             : background_(i, j);
        acc += f_(row);
      }
      XAI_COUNTER_ADD("model/evals", k);
    }
    return acc / k;
  });
}

InterventionalScmGame::InterventionalScmGame(const LinearScm* scm,
                                             PredictFn f, Vector instance,
                                             int mc_samples, uint64_t seed)
    : scm_(scm),
      f_(std::move(f)),
      instance_(std::move(instance)),
      mc_samples_(mc_samples),
      seed_(seed) {
  CheckCoalitionWidth(instance_);
  XAI_CHECK(scm != nullptr);
  XAI_CHECK_EQ(scm->num_nodes(), static_cast<int>(instance_.size()));
}

InterventionalScmGame::InterventionalScmGame(const LinearScm* scm,
                                             const Model& model,
                                             Vector instance, int mc_samples,
                                             uint64_t seed)
    : InterventionalScmGame(scm, AsPredictFn(model), std::move(instance),
                            mc_samples, seed) {
  batch_f_ = AsBatchPredictFn(model);
}

int InterventionalScmGame::num_players() const {
  return static_cast<int>(instance_.size());
}

double InterventionalScmGame::Value(uint64_t coalition) const {
  return memo_.Get(coalition, [&] {
    std::map<int, double> interventions;
    for (int j = 0; j < num_players(); ++j)
      if (coalition & (1ULL << j)) interventions[j] = instance_[j];
    // Common random numbers: the same seed for every coalition.
    Rng rng(seed_);
    Matrix samples =
        scm_->SampleInterventional(interventions, mc_samples_, &rng);
    double acc = 0.0;
    if (batch_f_) {
      // The sampled matrix is already materialized: score it in one batched
      // model call and sum serially in sample order (bit-identical to the
      // scalar loop); PredictBatch counts model/evals.
      const Vector preds = batch_f_(samples);
      for (double p : preds) acc += p;
    } else {
      for (int i = 0; i < samples.rows(); ++i) acc += f_(samples.Row(i));
      XAI_COUNTER_ADD("model/evals", samples.rows());
    }
    return acc / mc_samples_;
  });
}

}  // namespace xai
