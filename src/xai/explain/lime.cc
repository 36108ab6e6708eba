#include "xai/explain/lime.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "xai/core/linalg.h"
#include "xai/core/parallel.h"
#include "xai/core/simd.h"
#include "xai/core/stats.h"
#include "xai/core/telemetry.h"
#include "xai/core/trace.h"

namespace xai {

LimeExplainer::LimeExplainer(const Dataset& train, const LimeConfig& config)
    : config_(config),
      schema_(train.schema()),
      perturber_(train, config.strategy, config.discretizer_bins) {}

namespace {

// Weighted R^2 of predictions vs targets.
double WeightedR2(const Vector& pred, const Vector& target, const Vector& w) {
  double wsum = 0.0, mean = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    wsum += w[i];
    mean += w[i] * target[i];
  }
  if (wsum <= 0.0) return 0.0;
  mean /= wsum;
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    ss_res += w[i] * (target[i] - pred[i]) * (target[i] - pred[i]);
    ss_tot += w[i] * (target[i] - mean) * (target[i] - mean);
  }
  if (ss_tot <= 1e-12) return 1.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace

Result<LimeExplanation> LimeExplainer::Explain(const PredictFn& f,
                                               const Vector& instance,
                                               uint64_t seed) const {
  // The block's rows fan out over the runtime, one f call each; f must be
  // const-reentrant (see the Model threading contract).
  auto predict_rows = [&f](const Matrix& rows) {
    Vector out(rows.rows());
    ParallelFor(rows.rows(), /*grain=*/64,
                [&](int64_t begin, int64_t end, int64_t) {
                  XAI_COUNTER_ADD("model/evals", end - begin);
                  Vector row(rows.cols());
                  for (int64_t i = begin; i < end; ++i) {
                    const double* r = rows.RowPtr(static_cast<int>(i));
                    std::copy(r, r + rows.cols(), row.begin());
                    out[i] = f(row);
                  }
                });
    return out;
  };
  return ExplainBlocks(predict_rows, instance, seed);
}

Result<LimeExplanation> LimeExplainer::Explain(const Model& model,
                                               const Vector& instance,
                                               uint64_t seed) const {
  return ExplainBlocks(AsBatchPredictFn(model), instance, seed);
}

Result<LimeExplanation> LimeExplainer::ExplainBlocks(const BatchPredictFn& f,
                                                     const Vector& instance,
                                                     uint64_t seed) const {
  XAI_SPAN("lime/explain");
  int d = static_cast<int>(instance.size());
  if (d != schema_.num_features())
    return Status::InvalidArgument("instance width does not match schema");
  Rng rng(seed);
  int n = config_.num_samples;

  // Interpretable representation of one neighborhood sample; row 0 of the
  // design is the instance itself, as in the reference implementation. In
  // discretized mode the representation is Perturber::Interpretable's
  // binary same-bin indicators, against the instance's bins computed once;
  // in Gaussian mode numeric features enter as standardized raw values (the
  // reference discretize_continuous=False behavior) and categoricals as
  // match indicators.
  bool discretized = config_.strategy == Perturber::Strategy::kDiscretized;
  double width = config_.kernel_width > 0.0
                     ? config_.kernel_width
                     : 0.75 * std::sqrt(static_cast<double>(d));
  const QuantileDiscretizer& bins = perturber_.discretizer();
  std::vector<int> instance_bins(discretized ? d : 0);
  for (int j = 0; j < d && discretized; ++j)
    instance_bins[j] = bins.BinOf(j, instance[j]);
  auto fill_row = [&](const double* sample, double* zr) {
    if (discretized) {
      for (int j = 0; j < d; ++j)
        zr[j] = instance_bins[j] == bins.BinOf(j, sample[j]) ? 1.0 : 0.0;
    } else {
      for (int j = 0; j < d; ++j) {
        if (schema_.features[j].is_categorical()) {
          zr[j] = static_cast<int>(sample[j]) == static_cast<int>(instance[j])
                      ? 1.0
                      : 0.0;
        } else {
          zr[j] =
              (sample[j] - perturber_.means()[j]) / perturber_.stddevs()[j];
        }
      }
    }
  };

  // One pass per row block: the block's raw rows are drawn into one
  // matrix (block-wise draws reproduce the one-shot RNG stream exactly,
  // since sampling consumes the shared Rng strictly row-major), then each
  // row's interpretable row, distance and kernel weight are written from
  // its raw row pointer in a ParallelFor, and `f` scores the block in one
  // call. Rows carry a trailing intercept column. Without forward
  // selection each block folds into the accumulator in ascending row
  // order, so the (n+1) x d design is never materialized. Forward
  // selection refits candidate subsets of the design, so there the blocks
  // are kept, side by side, as one (n+1)-row design.
  const bool forward_selection = config_.top_k > 0 && config_.top_k < d;
  constexpr int kBlockRows = 1024;
  const int kept_rows = forward_selection ? n + 1 : std::min(kBlockRows, n + 1);
  Matrix z(kept_rows, d + 1);
  Vector target(kept_rows);
  Vector weight(kept_rows);
  WlsAccumulator acc(d + 1, /*fit_intercept=*/true);
  double instance_pred = 0.0;
  {
    XAI_SPAN("lime/neighborhood");
    for (int base = 0; base < n + 1; base += kBlockRows) {
      const int bn = std::min(kBlockRows, n + 1 - base);
      const int row0 = forward_selection ? base : 0;
      // Row 0 is the instance itself, so the first block draws one fewer
      // perturbed sample.
      Matrix raw(bn, d);
      const int drawn_from = base == 0 ? 1 : 0;
      if (base == 0) std::copy(instance.begin(), instance.end(), raw.RowPtr(0));
      perturber_.SampleInto(instance, bn - drawn_from, &rng,
                            raw.RowPtr(drawn_from));
      ParallelFor(bn, /*grain=*/64, [&](int64_t begin, int64_t end, int64_t) {
        for (int64_t i = begin; i < end; ++i) {
          const double* s = raw.RowPtr(static_cast<int>(i));
          const int r = row0 + static_cast<int>(i);
          double* zr = z.RowPtr(r);
          fill_row(s, zr);
          zr[d] = 1.0;
          double dist = perturber_.Distance(instance.data(), s, d);
          weight[r] = std::exp(-dist * dist / (width * width));
        }
      });
      const Vector pred = f(raw);
      std::copy(pred.begin(), pred.end(), target.begin() + row0);
      if (base == 0) instance_pred = target[0];
      if (!forward_selection)
        acc.AddBlock(z.RowPtr(0), target.data(), weight.data(), bn);
    }
  }

  LimeExplanation exp;
  exp.prediction = instance_pred;
  for (int j = 0; j < d; ++j)
    exp.feature_names.push_back(schema_.features[j].name);
  if (!forward_selection) {
    XAI_ASSIGN_OR_RETURN(Vector coef, acc.Solve(config_.ridge));
    exp.attributions.assign(coef.begin(), coef.begin() + d);
    exp.intercept = coef.back();
    exp.base_value = coef.back();
    // Weighted R^2 from the accumulated moments: exact up to summation
    // order, not bitwise against a row-by-row residual pass.
    double wsum = acc.weight_sum();
    if (wsum <= 0.0) {
      exp.local_r2 = 0.0;
      return exp;
    }
    double ss_res = acc.ResidualSumOfSquares(coef);
    double ss_tot = acc.weighted_yy_sum() -
                    acc.weighted_y_sum() * acc.weighted_y_sum() / wsum;
    exp.local_r2 = ss_tot <= 1e-12 ? 1.0 : 1.0 - ss_res / ss_tot;
    return exp;
  }

  // Weighted forward selection of top_k interpretable features.
  std::vector<int> selected;
  std::set<int> remaining;
  for (int j = 0; j < d; ++j) remaining.insert(j);
  while (static_cast<int>(selected.size()) < config_.top_k) {
    // Score every remaining candidate independently in parallel, then
    // pick the winner in candidate order (strict >), which reproduces the
    // serial scan exactly.
    std::vector<int> candidates(remaining.begin(), remaining.end());
    std::vector<double> r2s(candidates.size(), -1e18);
    ParallelFor(static_cast<int64_t>(candidates.size()), /*grain=*/1,
                [&](int64_t begin, int64_t end, int64_t) {
                  for (int64_t q = begin; q < end; ++q) {
                    std::vector<int> cand = selected;
                    cand.push_back(candidates[q]);
                    Matrix sub(n + 1, static_cast<int>(cand.size()));
                    for (int i = 0; i <= n; ++i) {
                      const double* zr = z.RowPtr(i);
                      double* sr = sub.RowPtr(i);
                      for (size_t c = 0; c < cand.size(); ++c)
                        sr[c] = zr[cand[c]];
                    }
                    auto coef = WeightedRidgeRegression(
                        sub, target, weight, config_.ridge, true);
                    if (!coef.ok()) continue;
                    const Vector& cf = coef.ValueUnsafe();
                    Vector pred(n + 1);
                    for (int i = 0; i <= n; ++i)
                      pred[i] = cf.back() + simd::Dot(cf.data(),
                                                      sub.RowPtr(i),
                                                      cand.size());
                    r2s[q] = WeightedR2(pred, target, weight);
                  }
                });
    int best = -1;
    double best_r2 = -1e18;
    for (size_t q = 0; q < candidates.size(); ++q) {
      if (r2s[q] > best_r2) {
        best_r2 = r2s[q];
        best = candidates[q];
      }
    }
    if (best < 0) break;
    selected.push_back(best);
    remaining.erase(best);
  }

  Matrix design(n + 1, static_cast<int>(selected.size()));
  for (int i = 0; i <= n; ++i) {
    const double* zr = z.RowPtr(i);
    double* dr = design.RowPtr(i);
    for (size_t c = 0; c < selected.size(); ++c) dr[c] = zr[selected[c]];
  }
  XAI_ASSIGN_OR_RETURN(Vector coef,
                       WeightedRidgeRegression(design, target, weight,
                                               config_.ridge, true));

  exp.attributions.assign(d, 0.0);
  for (size_t c = 0; c < selected.size(); ++c)
    exp.attributions[selected[c]] = coef[c];
  exp.intercept = coef.back();
  exp.base_value = coef.back();

  Vector pred(n + 1);
  for (int i = 0; i <= n; ++i)
    pred[i] =
        exp.intercept + simd::Dot(coef.data(), design.RowPtr(i),
                                  selected.size());
  exp.local_r2 = WeightedR2(pred, target, weight);
  return exp;
}

Result<LimeStability> EvaluateLimeStability(const LimeExplainer& explainer,
                                            const PredictFn& f,
                                            const Vector& instance, int runs,
                                            int top_k, uint64_t seed) {
  if (runs < 2) return Status::InvalidArgument("need at least 2 runs");
  // Each run is an independent Explain call with its own seed; fan the runs
  // out and fold diagnostics in run order afterwards. Nested parallelism
  // inside Explain automatically runs inline.
  std::vector<LimeExplanation> explanations(runs);
  std::vector<Status> statuses(runs);
  ParallelFor(runs, /*grain=*/1, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t r = begin; r < end; ++r) {
      auto result = explainer.Explain(f, instance, seed + r);
      if (result.ok())
        explanations[r] = std::move(result).ValueUnsafe();
      else
        statuses[r] = result.status();
    }
  });
  std::vector<Vector> coefs;
  std::vector<std::set<int>> tops;
  LimeStability out;
  for (int r = 0; r < runs; ++r) {
    XAI_RETURN_NOT_OK(statuses[r]);
    const LimeExplanation& e = explanations[r];
    coefs.push_back(e.attributions);
    std::vector<int> top = e.TopFeatures(top_k);
    tops.emplace_back(top.begin(), top.end());
    out.mean_r2 += e.local_r2 / runs;
  }
  int d = static_cast<int>(instance.size());
  double acc = 0.0;
  for (int j = 0; j < d; ++j) {
    std::vector<double> vals;
    for (const Vector& c : coefs) vals.push_back(c[j]);
    acc += StdDev(vals);
  }
  out.coefficient_stddev = acc / d;

  double jac = 0.0;
  int pairs = 0;
  for (size_t a = 0; a < tops.size(); ++a) {
    for (size_t b = a + 1; b < tops.size(); ++b) {
      std::vector<int> inter;
      std::set_intersection(tops[a].begin(), tops[a].end(), tops[b].begin(),
                            tops[b].end(), std::back_inserter(inter));
      std::set<int> uni = tops[a];
      uni.insert(tops[b].begin(), tops[b].end());
      jac += uni.empty() ? 1.0
                         : static_cast<double>(inter.size()) / uni.size();
      ++pairs;
    }
  }
  out.jaccard_top_k = pairs > 0 ? jac / pairs : 1.0;
  return out;
}

int64_t LimePlannedEvals(const LimeConfig& config) {
  return std::max(0, config.num_samples);
}

LimeConfig LimeForBudget(LimeConfig config, int64_t max_evals) {
  constexpr int kFloor = 50;
  config.num_samples = static_cast<int>(std::clamp<int64_t>(
      max_evals, kFloor, std::max(kFloor, config.num_samples)));
  return config;
}

}  // namespace xai
