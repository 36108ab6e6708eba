#include "xai/explain/lime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "xai/core/linalg.h"
#include "xai/core/parallel.h"
#include "xai/core/simd.h"
#include "xai/core/telemetry.h"
#include "xai/data/synthetic.h"
#include "xai/model/gbdt.h"
#include "xai/model/linear_regression.h"
#include "xai/model/logistic_regression.h"

namespace xai {
namespace {

TEST(PerturberTest, GaussianKeepsFrozenFeatures) {
  Dataset d = MakeLoans(300, 1);
  Perturber p(d, Perturber::Strategy::kGaussian);
  Rng rng(2);
  Vector instance = d.Row(0);
  Matrix samples = p.Sample(instance, 50, &rng, {0, 2});
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(samples(i, 0), instance[0]);
    EXPECT_DOUBLE_EQ(samples(i, 2), instance[2]);
  }
}

TEST(PerturberTest, GaussianPerturbsNumerics) {
  Dataset d = MakeLoans(300, 2);
  Perturber p(d, Perturber::Strategy::kGaussian);
  Rng rng(3);
  Vector instance = d.Row(0);
  Matrix samples = p.Sample(instance, 50, &rng);
  int changed = 0;
  for (int i = 0; i < 50; ++i)
    if (samples(i, 0) != instance[0]) ++changed;
  EXPECT_GT(changed, 45);
}

TEST(PerturberTest, CategoricalSamplesValidCodes) {
  Dataset d = MakeLoans(300, 3);
  Perturber p(d, Perturber::Strategy::kDiscretized);
  Rng rng(4);
  int purpose = d.schema().FeatureIndex("purpose");
  Matrix samples = p.Sample(d.Row(0), 200, &rng);
  for (int i = 0; i < 200; ++i) {
    int c = static_cast<int>(samples(i, purpose));
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
}

TEST(PerturberTest, InterpretableSelfIsAllOnes) {
  Dataset d = MakeLoans(300, 5);
  Perturber p(d, Perturber::Strategy::kDiscretized);
  Vector instance = d.Row(7);
  std::vector<int> z = p.Interpretable(instance, instance);
  for (int v : z) EXPECT_EQ(v, 1);
}

TEST(PerturberTest, DistanceZeroToSelf) {
  Dataset d = MakeLoans(100, 6);
  Perturber p(d, Perturber::Strategy::kGaussian);
  EXPECT_DOUBLE_EQ(p.Distance(d.Row(3), d.Row(3)), 0.0);
  EXPECT_GT(p.Distance(d.Row(3), d.Row(4)), 0.0);
}

TEST(LimeTest, RecoversSignsOfLinearModel) {
  // Black box = logistic with known weights; LIME (gaussian mode, no
  // discretization) should produce attributions whose signs match w.
  auto [d, gt] = MakeLogisticData(800, 4, 7);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  LimeConfig config;
  config.strategy = Perturber::Strategy::kGaussian;
  config.num_samples = 2000;
  LimeExplainer lime(d, config);
  // An instance near the decision boundary, where the local slope matters.
  Vector instance(4, 0.1);
  LimeExplanation exp =
      lime.Explain(AsPredictFn(model), instance, 1).ValueOrDie();
  EXPECT_GT(exp.local_r2, 0.5);
  ASSERT_EQ(exp.attributions.size(), 4u);
  // Gaussian-mode attributions are local slopes on standardized features:
  // their signs must match the model weights.
  for (int j = 0; j < 4; ++j) {
    EXPECT_GT(exp.attributions[j] * model.weights()[j], 0.0)
        << "feature " << j;
  }
}

TEST(LimeTest, HighFidelityOnAlreadyLinearTarget) {
  // Explaining a *linear regression* black box: the surrogate can be
  // near-perfect locally.
  auto [d, gt] = MakeLinearData(500, 3, 0.0, 8);
  (void)gt;
  auto model = LinearRegressionModel::Train(d).ValueOrDie();
  LimeConfig config;
  config.strategy = Perturber::Strategy::kGaussian;
  config.num_samples = 1500;
  config.ridge = 1e-6;
  LimeExplainer lime(d, config);
  LimeExplanation exp =
      lime.Explain(AsPredictFn(model), d.Row(0), 3).ValueOrDie();
  EXPECT_GT(exp.local_r2, 0.5);
}

TEST(LimeTest, DeterministicForFixedSeed) {
  Dataset d = MakeLoans(400, 9);
  GbdtModel::Config mc;
  mc.n_trees = 20;
  auto model = GbdtModel::Train(d, mc).ValueOrDie();
  LimeExplainer lime(d);
  auto a = lime.Explain(AsPredictFn(model), d.Row(5), 42).ValueOrDie();
  auto b = lime.Explain(AsPredictFn(model), d.Row(5), 42).ValueOrDie();
  for (size_t j = 0; j < a.attributions.size(); ++j)
    EXPECT_DOUBLE_EQ(a.attributions[j], b.attributions[j]);
}

TEST(LimeTest, TopKSelectsRequestedCount) {
  Dataset d = MakeLoans(400, 10);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  LimeConfig config;
  config.top_k = 3;
  config.num_samples = 400;
  LimeExplainer lime(d, config);
  LimeExplanation exp =
      lime.Explain(AsPredictFn(model), d.Row(1), 5).ValueOrDie();
  int nonzero = 0;
  for (double a : exp.attributions)
    if (a != 0.0) ++nonzero;
  EXPECT_LE(nonzero, 3);
}

TEST(LimeTest, RejectsWrongWidthInstance) {
  Dataset d = MakeLoans(100, 11);
  LimeExplainer lime(d);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  EXPECT_FALSE(lime.Explain(AsPredictFn(model), Vector{1.0, 2.0}, 1).ok());
}

TEST(LimeStabilityTest, MoreSamplesMoreStable) {
  // The §2.1.1 claim: LIME's neighborhood sampling makes explanations
  // unstable; stability improves with the sample budget.
  Dataset d = MakeLoans(600, 12);
  GbdtModel::Config mc;
  mc.n_trees = 25;
  auto model = GbdtModel::Train(d, mc).ValueOrDie();
  LimeConfig small_cfg, large_cfg;
  small_cfg.num_samples = 60;
  large_cfg.num_samples = 3000;
  LimeExplainer small(d, small_cfg), large(d, large_cfg);
  Vector instance = d.Row(3);
  auto s =
      EvaluateLimeStability(small, AsPredictFn(model), instance, 8, 3, 1)
          .ValueOrDie();
  auto l =
      EvaluateLimeStability(large, AsPredictFn(model), instance, 8, 3, 1)
          .ValueOrDie();
  EXPECT_LT(l.coefficient_stddev, s.coefficient_stddev);
}

TEST(LimeStabilityTest, RejectsSingleRun) {
  Dataset d = MakeLoans(100, 13);
  LimeExplainer lime(d);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  EXPECT_FALSE(
      EvaluateLimeStability(lime, AsPredictFn(model), d.Row(0), 1, 3, 1)
          .ok());
}

// --- The streamed pipeline against a test-local materialized reference:
// the whole (n+1) x d design built at once from the explainer's public
// pieces (Perturber::Sample with the same seed, the interpretable row, the
// kernel weight) and fitted with WeightedRidgeRegression. The explainer
// must reproduce it bit for bit on the default SIMD tiers at any thread
// count. Row blocks hold 1024 rows, so 2100 samples cross two block
// boundaries. ---

::testing::AssertionResult SameBits(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<simd::Backend> DefaultBackends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  if (simd::MaxSupported() >= simd::Backend::kAvx2)
    out.push_back(simd::Backend::kAvx2);
  return out;
}

struct Neighborhood {
  Matrix z;       // (n+1) x d interpretable design; row 0 is the instance.
  Vector target;  // f on each row.
  Vector weight;  // Exponential kernel weight of each row.
};

Neighborhood MaterializedNeighborhood(const Dataset& train,
                                      const LimeExplainer& lime,
                                      const LimeConfig& config,
                                      const PredictFn& f,
                                      const Vector& instance, uint64_t seed) {
  const Perturber& p = lime.perturber();
  const int d = static_cast<int>(instance.size());
  const int n = config.num_samples;
  const double width = 0.75 * std::sqrt(static_cast<double>(d));
  Rng rng(seed);
  Matrix raw = p.Sample(instance, n, &rng);
  Neighborhood out{Matrix(n + 1, d), Vector(n + 1), Vector(n + 1)};
  for (int i = 0; i <= n; ++i) {
    Vector sample = i == 0 ? instance : raw.Row(i - 1);
    double* zr = out.z.RowPtr(i);
    if (config.strategy == Perturber::Strategy::kDiscretized) {
      std::vector<int> zi = p.Interpretable(instance, sample);
      for (int j = 0; j < d; ++j) zr[j] = zi[j];
    } else {
      for (int j = 0; j < d; ++j) {
        if (train.schema().features[j].is_categorical()) {
          zr[j] = static_cast<int>(sample[j]) == static_cast<int>(instance[j])
                      ? 1.0
                      : 0.0;
        } else {
          zr[j] = (sample[j] - p.means()[j]) / p.stddevs()[j];
        }
      }
    }
    out.target[i] = f(sample);
    const double dist = p.Distance(instance, sample);
    out.weight[i] = std::exp(-dist * dist / (width * width));
  }
  return out;
}

Matrix Columns(const Matrix& z, const std::vector<int>& cols) {
  Matrix out(z.rows(), static_cast<int>(cols.size()));
  for (int i = 0; i < z.rows(); ++i)
    for (size_t c = 0; c < cols.size(); ++c)
      out(i, static_cast<int>(c)) = z(i, cols[c]);
  return out;
}

// Weighted R^2 of a ridge fit (intercept last) over `x`, row by row.
double FitR2(const Matrix& x, const Vector& coef, const Neighborhood& nb) {
  const int rows = x.rows();
  Vector pred(rows);
  for (int i = 0; i < rows; ++i)
    pred[i] = coef.back() + simd::Dot(coef.data(), x.RowPtr(i), x.cols());
  double wsum = 0.0, mean = 0.0;
  for (int i = 0; i < rows; ++i) {
    wsum += nb.weight[i];
    mean += nb.weight[i] * nb.target[i];
  }
  if (wsum <= 0.0) return 0.0;
  mean /= wsum;
  double ss_res = 0.0, ss_tot = 0.0;
  for (int i = 0; i < rows; ++i) {
    ss_res += nb.weight[i] * (nb.target[i] - pred[i]) *
              (nb.target[i] - pred[i]);
    ss_tot += nb.weight[i] * (nb.target[i] - mean) * (nb.target[i] - mean);
  }
  if (ss_tot <= 1e-12) return 1.0;
  return 1.0 - ss_res / ss_tot;
}

// LIME on the materialized design: with top_k, weighted forward selection
// (each step keeps the first candidate, in index order, with the strictly
// best R^2); then one ridge fit on the chosen columns in selection order.
LimeExplanation MaterializedLime(const Neighborhood& nb,
                                 const LimeConfig& config) {
  const int d = nb.z.cols();
  std::vector<int> selected;
  if (config.top_k > 0 && config.top_k < d) {
    while (static_cast<int>(selected.size()) < config.top_k) {
      int best = -1;
      double best_r2 = -1e18;
      for (int j = 0; j < d; ++j) {
        if (std::find(selected.begin(), selected.end(), j) != selected.end())
          continue;
        std::vector<int> cand = selected;
        cand.push_back(j);
        Matrix sub = Columns(nb.z, cand);
        auto coef = WeightedRidgeRegression(sub, nb.target, nb.weight,
                                            config.ridge, true);
        if (!coef.ok()) continue;
        const double r2 = FitR2(sub, coef.ValueUnsafe(), nb);
        if (r2 > best_r2) {
          best_r2 = r2;
          best = j;
        }
      }
      if (best < 0) break;
      selected.push_back(best);
    }
  } else {
    for (int j = 0; j < d; ++j) selected.push_back(j);
  }
  Matrix design = Columns(nb.z, selected);
  Vector coef = WeightedRidgeRegression(design, nb.target, nb.weight,
                                        config.ridge, true)
                    .ValueOrDie();
  LimeExplanation exp;
  exp.attributions.assign(d, 0.0);
  for (size_t c = 0; c < selected.size(); ++c)
    exp.attributions[selected[c]] = coef[c];
  exp.intercept = coef.back();
  exp.base_value = coef.back();
  exp.prediction = nb.target[0];
  exp.local_r2 = FitR2(design, coef, nb);
  return exp;
}

// The reference, computed on the scalar tier with one thread.
LimeExplanation ReferenceLime(const Dataset& train, const LimeConfig& config,
                              const PredictFn& f, const Vector& instance,
                              uint64_t seed) {
  simd::Backend prev = simd::Active();
  int prev_threads = GetNumThreads();
  simd::SetBackend(simd::Backend::kScalar);
  SetNumThreads(1);
  LimeExplainer lime(train, config);
  LimeExplanation ref = MaterializedLime(
      MaterializedNeighborhood(train, lime, config, f, instance, seed),
      config);
  simd::SetBackend(prev);
  SetNumThreads(prev_threads);
  return ref;
}

TEST(LimeStreamedTest, MatchesMaterializedReferenceAcrossTiersAndThreads) {
  Dataset d = MakeLoans(400, 14);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  PredictFn f = AsPredictFn(model);
  Vector instance = d.Row(2);
  for (auto strategy : {Perturber::Strategy::kDiscretized,
                        Perturber::Strategy::kGaussian}) {
    for (int num_samples : {600, 2100}) {
      LimeConfig config;
      config.strategy = strategy;
      config.num_samples = num_samples;
      LimeExplanation ref = ReferenceLime(d, config, f, instance, 7);
      LimeExplainer lime(d, config);
      simd::Backend prev = simd::Active();
      int prev_threads = GetNumThreads();
      for (simd::Backend be : DefaultBackends()) {
        for (int threads : {1, 4, 8}) {
          simd::SetBackend(be);
          SetNumThreads(threads);
          LimeExplanation got = lime.Explain(f, instance, 7).ValueOrDie();
          const std::string where =
              std::string("backend=") + simd::BackendName(be) +
              " threads=" + std::to_string(threads) +
              " samples=" + std::to_string(num_samples);
          EXPECT_TRUE(SameBits(ref.attributions, got.attributions)) << where;
          EXPECT_TRUE(
              SameBits({ref.intercept, ref.base_value, ref.prediction},
                       {got.intercept, got.base_value, got.prediction}))
              << where;
          // The streamed fit computes local_r2 from the accumulated
          // moments — tolerance, not bitwise.
          EXPECT_NEAR(got.local_r2, ref.local_r2, 1e-9) << where;
        }
      }
      simd::SetBackend(prev);
      SetNumThreads(prev_threads);
    }
  }
}

TEST(LimeStreamedTest, TopKMatchesReferenceAcrossTiersAndThreads) {
  // Forward selection keeps the whole design. The selected features and
  // their coefficients must not depend on the tier or the thread count, and
  // must equal WeightedRidgeRegression on the reference design restricted
  // to the features the reference selection picks.
  Dataset d = MakeLoans(300, 15);
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  PredictFn f = AsPredictFn(model);
  Vector instance = d.Row(1);
  for (int num_samples : {300, 2100}) {
    LimeConfig config;
    config.top_k = 3;
    config.num_samples = num_samples;
    LimeExplanation ref = ReferenceLime(d, config, f, instance, 5);
    int nonzero = 0;
    for (double a : ref.attributions) nonzero += a != 0.0;
    EXPECT_EQ(nonzero, 3);
    LimeExplainer lime(d, config);
    simd::Backend prev = simd::Active();
    int prev_threads = GetNumThreads();
    for (simd::Backend be : DefaultBackends()) {
      for (int threads : {1, 4, 8}) {
        simd::SetBackend(be);
        SetNumThreads(threads);
        LimeExplanation got = lime.Explain(f, instance, 5).ValueOrDie();
        const std::string where =
            std::string("backend=") + simd::BackendName(be) +
            " threads=" + std::to_string(threads) +
            " samples=" + std::to_string(num_samples);
        EXPECT_TRUE(SameBits(ref.attributions, got.attributions)) << where;
        EXPECT_TRUE(SameBits({ref.intercept, ref.prediction, ref.local_r2},
                             {got.intercept, got.prediction, got.local_r2}))
            << where;
      }
    }
    simd::SetBackend(prev);
    SetNumThreads(prev_threads);
  }
}

// Every output of a LIME run, as bits.
std::vector<uint64_t> LimeBits(const LimeExplanation& e) {
  std::vector<uint64_t> out;
  for (double v : e.attributions) out.push_back(std::bit_cast<uint64_t>(v));
  for (double v : {e.intercept, e.base_value, e.prediction, e.local_r2})
    out.push_back(std::bit_cast<uint64_t>(v));
  return out;
}

// The Model entry point (one PredictBatch per block, serving's path)
// against the PredictFn entry point (rows through f one at a time), bit
// for bit: both strategies over the loans data's numeric and categorical
// features, with and without forward selection, for neighborhoods of one
// row and just under, at and over one and two 1 024-row blocks, at 1 and
// 4 threads and nested in a 2-thread ParallelFor the way
// RequestBatcher::ExecuteBatch runs a batch. Both entry points count one
// model/evals per neighborhood row.
TEST(LimeModelEntryTest, MatchesPredictFnEntryBitForBit) {
  Dataset d = MakeLoans(300, 16);
  GbdtConfig gbdt_config;
  gbdt_config.n_trees = 15;
  auto gbdt = GbdtModel::Train(d, gbdt_config).ValueOrDie();
  auto logistic = LogisticRegressionModel::Train(d).ValueOrDie();
  const Vector instance = d.Row(3);
  const int prev_threads = GetNumThreads();
  for (const Model* model : {static_cast<const Model*>(&gbdt),
                             static_cast<const Model*>(&logistic)}) {
    const PredictFn f = AsPredictFn(*model);
    for (auto strategy : {Perturber::Strategy::kDiscretized,
                          Perturber::Strategy::kGaussian}) {
      for (int top_k : {-1, 3}) {
        for (int num_samples : {1, 1023, 1024, 1025, 2049}) {
          LimeConfig config;
          config.strategy = strategy;
          config.top_k = top_k;
          config.num_samples = num_samples;
          const LimeExplainer lime(d, config);
          const std::string where =
              model->name() + " discretized=" +
              std::to_string(strategy == Perturber::Strategy::kDiscretized) +
              " top_k=" + std::to_string(top_k) +
              " samples=" + std::to_string(num_samples);
          SetNumThreads(1);
          telemetry::Registry::Global().Reset();
          const std::vector<uint64_t> want =
              LimeBits(lime.Explain(f, instance, 11).ValueOrDie());
          if (XAI_TELEMETRY) {
            EXPECT_EQ(telemetry::Registry::Global().CounterSnapshot()
                          ["model/evals"],
                      num_samples + 1)
                << where;
          }
          for (int threads : {1, 4}) {
            SetNumThreads(threads);
            telemetry::Registry::Global().Reset();
            EXPECT_EQ(LimeBits(lime.Explain(*model, instance, 11)
                                   .ValueOrDie()),
                      want)
                << where << " threads=" << threads;
            if (XAI_TELEMETRY) {
              EXPECT_EQ(telemetry::Registry::Global().CounterSnapshot()
                            ["model/evals"],
                        num_samples + 1)
                  << where << " threads=" << threads;
            }
          }
          SetNumThreads(2);
          std::vector<std::vector<uint64_t>> nested(2);
          ParallelFor(2, 1, [&](int64_t begin, int64_t end, int64_t) {
            for (int64_t k = begin; k < end; ++k) {
              nested[k] = LimeBits(
                  k == 0 ? lime.Explain(*model, instance, 11).ValueOrDie()
                         : lime.Explain(f, instance, 11).ValueOrDie());
            }
          });
          EXPECT_EQ(nested[0], want) << where << " nested, Model entry";
          EXPECT_EQ(nested[1], want) << where << " nested, PredictFn entry";
        }
      }
    }
  }
  SetNumThreads(prev_threads);
}

TEST(MedianAbsoluteDeviationTest, KnownValues) {
  Matrix x = {{1}, {2}, {3}, {4}, {100}};
  Vector mad = MedianAbsoluteDeviation(x);
  // Median 3, deviations {2,1,0,1,97}, median deviation 1.
  EXPECT_DOUBLE_EQ(mad[0], 1.0);
}

TEST(MedianAbsoluteDeviationTest, ConstantColumnFallsBackToOne) {
  Matrix x = {{5}, {5}, {5}};
  EXPECT_DOUBLE_EQ(MedianAbsoluteDeviation(x)[0], 1.0);
}

}  // namespace
}  // namespace xai
