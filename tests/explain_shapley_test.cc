#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "xai/core/combinatorics.h"
#include "xai/core/linalg.h"
#include "xai/core/parallel.h"
#include "xai/core/simd.h"

#include "support/explain_reference.h"
#include "xai/causal/scm.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/exact_shapley.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/qii.h"
#include "xai/explain/shapley/sampling_shapley.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/random_forest.h"

namespace xai {
namespace {

// The materialized constrained solve KernelSHAP's streamed solve is
// checked against.
using reference::ConstrainedWeightedLeastSquares;

// A deterministic synthetic game for estimator tests.
class FunctionGame : public CoalitionGame {
 public:
  FunctionGame(int n, std::function<double(uint64_t)> fn)
      : n_(n), fn_(std::move(fn)) {}
  int num_players() const override { return n_; }
  double Value(uint64_t mask) const override { return fn_(mask); }

 private:
  int n_;
  std::function<double(uint64_t)> fn_;
};

TEST(ExactShapleyTest, AdditiveGame) {
  FunctionGame game(4, [](uint64_t mask) {
    double vals[] = {1.0, -2.0, 0.5, 3.0};
    double acc = 0;
    for (int i = 0; i < 4; ++i)
      if (mask & (1ULL << i)) acc += vals[i];
    return acc;
  });
  Vector phi = ExactShapley(game).ValueOrDie();
  EXPECT_NEAR(phi[0], 1.0, 1e-12);
  EXPECT_NEAR(phi[1], -2.0, 1e-12);
  EXPECT_NEAR(phi[2], 0.5, 1e-12);
  EXPECT_NEAR(phi[3], 3.0, 1e-12);
}

TEST(ExactShapleyTest, RefusesLargeGames) {
  FunctionGame game(25, [](uint64_t) { return 0.0; });
  EXPECT_FALSE(ExactShapley(game).ok());
}

TEST(ExactBanzhafTest, MatchesShapleyOnAdditiveGames) {
  FunctionGame game(3, [](uint64_t mask) {
    return (mask & 1 ? 2.0 : 0.0) + (mask & 2 ? -1.0 : 0.0) +
           (mask & 4 ? 0.5 : 0.0);
  });
  Vector shapley = ExactShapley(game).ValueOrDie();
  Vector banzhaf = ExactBanzhaf(game).ValueOrDie();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(shapley[i], banzhaf[i], 1e-12);
}

TEST(MarginalGameTest, EmptyCoalitionIsMeanPrediction) {
  auto [d, gt] = MakeLogisticData(50, 3, 1);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(0), d.x());
  double mean = 0;
  for (int i = 0; i < d.num_rows(); ++i)
    mean += model.Predict(d.Row(i)) / d.num_rows();
  EXPECT_NEAR(game.Value(0), mean, 1e-12);
}

TEST(MarginalGameTest, FullCoalitionIsInstancePrediction) {
  auto [d, gt] = MakeLogisticData(50, 3, 2);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  Vector instance = d.Row(7);
  MarginalFeatureGame game(AsPredictFn(model), instance, d.x());
  EXPECT_NEAR(game.Value((1ULL << 3) - 1), model.Predict(instance), 1e-12);
}

TEST(MarginalGameTest, CachesEvaluations) {
  auto [d, gt] = MakeLogisticData(30, 3, 3);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(0), d.x());
  game.Value(0b101);
  game.Value(0b101);
  game.Value(0b101);
  EXPECT_EQ(game.num_evaluations(), 1);
}

TEST(MarginalGameTest, MaxBackgroundTruncates) {
  auto [d, gt] = MakeLogisticData(100, 2, 4);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame truncated(AsPredictFn(model), d.Row(0), d.x(), 10);
  Matrix small(10, 2);
  for (int i = 0; i < 10; ++i) small.SetRow(i, d.Row(i));
  MarginalFeatureGame manual(AsPredictFn(model), d.Row(0), small);
  EXPECT_NEAR(truncated.Value(0b01), manual.Value(0b01), 1e-12);
}

TEST(ShapleyEfficiencyTest, ExactSumsToFullMinusEmpty) {
  auto [d, gt] = MakeLogisticData(80, 5, 5);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(3), d.x(), 20);
  Vector phi = ExactShapley(game).ValueOrDie();
  double sum = 0;
  for (double p : phi) sum += p;
  uint64_t full = (1ULL << 5) - 1;
  EXPECT_NEAR(sum, game.Value(full) - game.Value(0), 1e-9);
}

TEST(SamplingShapleyTest, ConvergesToExact) {
  auto [d, gt] = MakeLogisticData(60, 4, 6);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(1), d.x(), 16);
  Vector exact = ExactShapley(game).ValueOrDie();
  Rng rng(7);
  SamplingShapleyResult approx = SamplingShapley(game, 3000, &rng);
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(approx.values[j], exact[j], 0.02);
}

TEST(SamplingShapleyTest, StdErrorsShrinkWithSamples) {
  auto [d, gt] = MakeLogisticData(60, 4, 8);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(2), d.x(), 16);
  Rng rng1(1), rng2(1);
  auto small = SamplingShapley(game, 50, &rng1);
  auto large = SamplingShapley(game, 2000, &rng2);
  double se_small = 0, se_large = 0;
  for (int j = 0; j < 4; ++j) {
    se_small += small.std_errors[j];
    se_large += large.std_errors[j];
  }
  EXPECT_LT(se_large, se_small);
}

TEST(KernelShapTest, ExactWhenBudgetCoversAllCoalitions) {
  // Kernel SHAP with full enumeration solves the exact Shapley values.
  auto [d, gt] = MakeLogisticData(60, 5, 9);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(4), d.x(), 16);
  Vector exact = ExactShapley(game).ValueOrDie();
  Rng rng(10);
  KernelShapConfig config;
  config.coalition_budget = 1 << 10;
  AttributionExplanation ks = KernelShap(game, config, &rng).ValueOrDie();
  for (int j = 0; j < 5; ++j)
    EXPECT_NEAR(ks.attributions[j], exact[j], 1e-6);
}

TEST(KernelShapTest, EfficiencyConstraintAlwaysHolds) {
  auto [d, gt] = MakeLogisticData(60, 8, 11);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(0), d.x(), 8);
  Rng rng(12);
  KernelShapConfig config;
  config.coalition_budget = 64;  // Forces sampling.
  AttributionExplanation ks = KernelShap(game, config, &rng).ValueOrDie();
  EXPECT_NEAR(ks.AttributionSum(), ks.prediction, 1e-8);
}

TEST(KernelShapTest, SampledCloseToExact) {
  auto [d, gt] = MakeLogisticData(60, 10, 13);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(6), d.x(), 8);
  Vector exact = ExactShapley(game).ValueOrDie();
  Rng rng(14);
  KernelShapConfig config;
  config.coalition_budget = 700;
  AttributionExplanation ks = KernelShap(game, config, &rng).ValueOrDie();
  for (int j = 0; j < 10; ++j)
    EXPECT_NEAR(ks.attributions[j], exact[j], 0.05);
}

// A game with pairwise interactions, so the regression is non-trivial.
double InteractionGame11(uint64_t mask) {
  const double vals[] = {1.0, -2.0, 0.5, 3.0, -0.7, 1.3, 0.2, -1.1, 2.4, -0.3,
                         0.9};
  double acc = 0;
  for (int i = 0; i < 11; ++i)
    if (mask & (1ULL << i)) acc += vals[i];
  if ((mask & 3ULL) == 3ULL) acc += 1.7;
  if ((mask & 12ULL) == 12ULL) acc -= 0.9;
  return acc;
}

std::vector<simd::Backend> DefaultBackends() {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::MaxSupported() >= simd::Backend::kAvx2)
    backends.push_back(simd::Backend::kAvx2);
  return backends;
}

// Runs KernelSHAP on every default tier at 1, 4 and 8 threads and checks
// each run's attributions bit for bit against `ref`.
void ExpectKernelShapBits(const CoalitionGame& game,
                          const KernelShapConfig& config,
                          const AttributionExplanation& ref) {
  simd::Backend prev = simd::Active();
  int prev_threads = GetNumThreads();
  for (simd::Backend be : DefaultBackends()) {
    for (int threads : {1, 4, 8}) {
      simd::SetBackend(be);
      SetNumThreads(threads);
      Rng rng(77);
      auto got = KernelShap(game, config, &rng).ValueOrDie();
      ASSERT_EQ(got.attributions.size(), ref.attributions.size());
      for (size_t j = 0; j < ref.attributions.size(); ++j) {
        EXPECT_EQ(std::memcmp(&ref.attributions[j], &got.attributions[j],
                              sizeof(double)),
                  0)
            << "budget=" << config.coalition_budget << " phi[" << j
            << "] backend=" << simd::BackendName(be)
            << " threads=" << threads;
      }
      EXPECT_DOUBLE_EQ(got.base_value, ref.base_value);
      EXPECT_DOUBLE_EQ(got.prediction, ref.prediction);
    }
  }
  simd::SetBackend(prev);
  SetNumThreads(prev_threads);
}

TEST(KernelShapTest, EnumeratedMatchesMaterializedConstrainedSolve) {
  // Budget 2048 >= 2^11 - 2 enumerates every proper coalition. The
  // test-local reference lists them by size, each size in lexicographic
  // index order as the library does, weights each with the Shapley kernel
  // and solves the materialized design with ConstrainedWeightedLeastSquares.
  constexpr int d = 11;
  FunctionGame game(d, InteractionGame11);
  KernelShapConfig config;
  config.coalition_budget = 2048;
  const double v0 = game.Value(0);
  const double vn = game.Value((1ULL << d) - 1);
  std::vector<uint64_t> masks;
  Vector weights;
  for (int s = 1; s < d; ++s) {
    std::vector<bool> in(d, false);
    std::fill(in.begin(), in.begin() + s, true);
    do {
      uint64_t mask = 0;
      for (int j = 0; j < d; ++j)
        if (in[j]) mask |= 1ULL << j;
      masks.push_back(mask);
      weights.push_back((d - 1.0) / (BinomialCoefficient(d, s) * s * (d - s)));
    } while (std::prev_permutation(in.begin(), in.end()));
  }
  ASSERT_EQ(masks.size(), (1u << d) - 2);
  Matrix design(static_cast<int>(masks.size()), d);
  Vector target(masks.size());
  for (size_t r = 0; r < masks.size(); ++r) {
    for (int j = 0; j < d; ++j)
      design(static_cast<int>(r), j) = (masks[r] >> j) & 1ULL ? 1.0 : 0.0;
    target[r] = game.Value(masks[r]) - v0;
  }
  simd::Backend prev = simd::Active();
  simd::SetBackend(simd::Backend::kScalar);
  AttributionExplanation ref;
  ref.attributions =
      ConstrainedWeightedLeastSquares(design, target, weights, Vector(d, 1.0),
                                      vn - v0, config.ridge)
          .ValueOrDie();
  ref.base_value = v0;
  ref.prediction = vn;
  simd::SetBackend(prev);
  ExpectKernelShapBits(game, config, ref);
}

TEST(KernelShapTest, SampledBitIdenticalAcrossTiersAndThreads) {
  // Budget 700 < 2^11 - 2: the tails are enumerated and the middle sizes
  // sampled, so the reference is the scalar tier at one thread.
  FunctionGame game(11, InteractionGame11);
  KernelShapConfig config;
  config.coalition_budget = 700;
  simd::Backend prev = simd::Active();
  int prev_threads = GetNumThreads();
  simd::SetBackend(simd::Backend::kScalar);
  SetNumThreads(1);
  Rng ref_rng(77);
  auto ref = KernelShap(game, config, &ref_rng).ValueOrDie();
  simd::SetBackend(prev);
  SetNumThreads(prev_threads);
  ExpectKernelShapBits(game, config, ref);
}

TEST(KernelShapTest, SinglePlayerGame) {
  FunctionGame game(1, [](uint64_t mask) { return mask ? 5.0 : 2.0; });
  Rng rng(15);
  AttributionExplanation ks = KernelShap(game, {}, &rng).ValueOrDie();
  EXPECT_NEAR(ks.attributions[0], 3.0, 1e-12);
}

// Records every coalition it is asked for; v(S) = |S|.
class RecordingGame : public CoalitionGame {
 public:
  explicit RecordingGame(int n) : n_(n) {}
  int num_players() const override { return n_; }
  double Value(uint64_t mask) const override {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.push_back(mask);
    return PopCount(mask);
  }
  std::vector<uint64_t> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  int n_;
  mutable std::mutex mu_;
  mutable std::vector<uint64_t> seen_;
};

TEST(KernelShapTest, CoalitionMasksStayInsideThePlayers) {
  for (int d : {62, 63, 64}) {
    RecordingGame game(d);
    KernelShapConfig config;
    config.coalition_budget = 200;
    Rng rng(31);
    AttributionExplanation ks = KernelShap(game, config, &rng).ValueOrDie();
    const uint64_t outside = d == 64 ? 0 : ~0ULL << d;
    for (uint64_t mask : game.seen())
      ASSERT_EQ(mask & outside, 0u) << "d=" << d << " mask=" << mask;
    EXPECT_EQ(ks.base_value, 0.0);
    EXPECT_EQ(ks.prediction, d);
    double sum = 0.0;
    for (double phi : ks.attributions) sum += phi;
    EXPECT_NEAR(sum, ks.prediction - ks.base_value, 1e-9) << "d=" << d;
  }
}

TEST(KernelShapTest, RefusesMoreThan64Players) {
  RecordingGame game(65);
  Rng rng(32);
  Result<AttributionExplanation> ks = KernelShap(game, {}, &rng);
  ASSERT_FALSE(ks.ok());
  EXPECT_EQ(ks.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(game.seen().empty());
}

// Every estimator on a tree model: the Model game (coalition scorer, one
// Values() call per chunk) against the PredictFn game (hybrid rows one at
// a time), bit for bit, at 1, 4 and 8 threads.
TEST(ModelGameEstimatorsTest, BitEqualToPredictFnGameAtEveryThreadCount) {
  Dataset train = MakeLoans(300, 33);
  GbdtConfig gbdt_config;
  gbdt_config.n_trees = 12;
  auto gbdt = GbdtModel::Train(train, gbdt_config).ValueOrDie();
  RandomForestConfig rf_config;
  rf_config.n_trees = 6;
  auto forest = RandomForestModel::Train(train, rf_config).ValueOrDie();
  const Matrix background = MakeLoans(70, 34).x();
  const Vector x = train.Row(4);

  auto run_all = [&](const CoalitionGame& game) {
    std::vector<Vector> out;
    KernelShapConfig enumerated;  // 2^8 - 2 <= 2048: every coalition.
    KernelShapConfig sampled;
    sampled.coalition_budget = 60;
    for (const KernelShapConfig& config : {enumerated, sampled}) {
      Rng rng(35);
      AttributionExplanation ks = KernelShap(game, config, &rng).ValueOrDie();
      out.push_back(ks.attributions);
      out.push_back({ks.base_value, ks.prediction});
    }
    out.push_back(ExactShapley(game).ValueOrDie());
    out.push_back(ExactBanzhaf(game).ValueOrDie());
    Rng rng(36);
    SamplingShapleyResult sampling = SamplingShapley(game, 24, &rng);
    out.push_back(sampling.values);
    out.push_back(sampling.std_errors);
    return out;
  };
  auto bits = [](const std::vector<Vector>& values) {
    std::vector<std::vector<uint64_t>> out;
    for (const Vector& v : values) {
      std::vector<uint64_t> row(v.size());
      std::memcpy(row.data(), v.data(), v.size() * sizeof(double));
      out.push_back(row);
    }
    return out;
  };

  const int prev_threads = GetNumThreads();
  for (const Model* model : {static_cast<const Model*>(&gbdt),
                             static_cast<const Model*>(&forest)}) {
    SetNumThreads(1);
    MarginalFeatureGame reference(AsPredictFn(*model), x, background);
    const auto want = bits(run_all(reference));
    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      MarginalFeatureGame game(*model, x, background);
      EXPECT_EQ(bits(run_all(game)), want)
          << model->name() << " threads=" << threads;
    }
  }
  SetNumThreads(prev_threads);
}

TEST(QiiTest, UnaryQiiZeroForDummyFeature) {
  FunctionGame game(3, [](uint64_t mask) {
    return (mask & 1 ? 1.0 : 0.0) + (mask & 2 ? 2.0 : 0.0);
  });
  Vector iota = UnaryQii(game);
  EXPECT_NEAR(iota[0], 1.0, 1e-12);
  EXPECT_NEAR(iota[1], 2.0, 1e-12);
  EXPECT_NEAR(iota[2], 0.0, 1e-12);
}

TEST(QiiTest, BanzhafMatchesExactOnAdditive) {
  FunctionGame game(3, [](uint64_t mask) {
    return (mask & 1 ? 1.5 : 0.0) - (mask & 4 ? 0.7 : 0.0);
  });
  Rng rng(16);
  Vector banzhaf = BanzhafQii(game, 400, &rng);
  EXPECT_NEAR(banzhaf[0], 1.5, 0.05);
  EXPECT_NEAR(banzhaf[1], 0.0, 0.05);
  EXPECT_NEAR(banzhaf[2], -0.7, 0.05);
}

TEST(QiiTest, ShapleyQiiMatchesExact) {
  auto [d, gt] = MakeLogisticData(60, 4, 17);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(9), d.x(), 16);
  Vector exact = ExactShapley(game).ValueOrDie();
  Rng rng(18);
  Vector qii = ShapleyQii(game, 2000, &rng);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(qii[j], exact[j], 0.02);
}

TEST(ConditionalGameTest, FullCoalitionIsInstancePrediction) {
  auto [d, gt] = MakeLogisticData(100, 3, 30);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  Vector instance = d.Row(4);
  ConditionalFeatureGame game(AsPredictFn(model), instance, d.x(), 10);
  EXPECT_NEAR(game.Value(0b111), model.Predict(instance), 1e-12);
}

TEST(ConditionalGameTest, EmptyCoalitionWithFullKIsMeanPrediction) {
  auto [d, gt] = MakeLogisticData(60, 2, 31);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  ConditionalFeatureGame game(AsPredictFn(model), d.Row(0), d.x(),
                              /*k_neighbors=*/60);
  double mean = 0;
  for (int i = 0; i < 60; ++i) mean += model.Predict(d.Row(i)) / 60;
  EXPECT_NEAR(game.Value(0), mean, 1e-12);
}

TEST(ConditionalGameTest, CapturesIndirectInfluenceThroughCorrelation) {
  // The §2.1.2 criticism: marginal Shapley values cannot "capture the
  // indirect influences of features". Build data where x0 drives x1 and
  // the model reads only x1: the conditional game credits x0, the marginal
  // game does not.
  LinearScm scm = MakeChainScm(1.0, 1.0);  // x0 -> x1 -> x2.
  Rng rng(32);
  Matrix background = scm.Sample(400, &rng);
  PredictFn f = [](const Vector& x) { return x[1]; };
  Vector instance = {2.0, 2.0, 2.0};

  MarginalFeatureGame marginal(f, instance, background, 200);
  Vector phi_marginal = ExactShapley(marginal).ValueOrDie();
  ConditionalFeatureGame conditional(f, instance, background, 25);
  Vector phi_conditional = ExactShapley(conditional).ValueOrDie();

  EXPECT_NEAR(phi_marginal[0], 0.0, 1e-9);      // Marginal: x0 invisible.
  EXPECT_GT(phi_conditional[0], 0.3);           // Conditional: x0 credited.
  EXPECT_GT(phi_conditional[1], phi_conditional[0]);  // x1 still dominant.
}

TEST(ConditionalGameTest, OnManifoldEvaluationResistsOodGating) {
  // Rows fed to the model are splices of the instance with *similar* real
  // rows, so for singleton coalitions they stay close to the manifold:
  // much closer than marginal-game splices of arbitrary rows.
  auto [d, gt] = MakeLogisticData(300, 3, 33);
  (void)gt;
  // Record every row the game evaluates and measure its distance to the
  // nearest training row.
  Matrix x = d.x();
  auto nearest_dist = [&](const Vector& row) {
    double best = 1e300;
    for (int i = 0; i < x.rows(); ++i) {
      double acc = 0;
      for (int j = 0; j < 3; ++j) {
        double diff = row[j] - x(i, j);
        acc += diff * diff;
      }
      best = std::min(best, acc);
    }
    return std::sqrt(best);
  };
  double conditional_dist = 0, marginal_dist = 0;
  int evals_cond = 0, evals_marg = 0;
  PredictFn probe_cond = [&](const Vector& row) {
    conditional_dist += nearest_dist(row);
    ++evals_cond;
    return 0.0;
  };
  PredictFn probe_marg = [&](const Vector& row) {
    marginal_dist += nearest_dist(row);
    ++evals_marg;
    return 0.0;
  };
  Vector instance = d.Row(0);
  ConditionalFeatureGame cond(probe_cond, instance, d.x(), 20);
  MarginalFeatureGame marg(probe_marg, instance, d.x(), 20);
  for (uint64_t mask : {1ULL, 2ULL, 4ULL, 3ULL, 5ULL}) {
    cond.Value(mask);
    marg.Value(mask);
  }
  EXPECT_LT(conditional_dist / evals_cond, marginal_dist / evals_marg);
}

// Property sweep: efficiency across instances.
class EfficiencyTest : public ::testing::TestWithParam<int> {};

TEST_P(EfficiencyTest, KernelShapEfficiencyPerInstance) {
  auto [d, gt] = MakeLogisticData(50, 6, 19);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  MarginalFeatureGame game(AsPredictFn(model), d.Row(GetParam()), d.x(), 10);
  Rng rng(20 + GetParam());
  AttributionExplanation ks = KernelShap(game, {}, &rng).ValueOrDie();
  EXPECT_NEAR(ks.AttributionSum(), ks.prediction, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Instances, EfficiencyTest,
                         ::testing::Values(0, 5, 10, 15, 20, 25));

}  // namespace
}  // namespace xai
