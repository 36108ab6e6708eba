// Tests for the compiled SoA tree-ensemble inference kernel
// (model/flat_ensemble.h): bit-identity against the scalar AoS paths it
// replaces across every model kind, structural edge cases, cache
// invalidation, and the 64-feature coalition-mask guard.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "xai/causal/scm.h"
#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/decision_tree.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/random_forest.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {
namespace {

// Scalar reference for a random forest: sum Tree::PredictRow, divide by T,
// exactly like RandomForestModel::Predict.
double ScalarForest(const RandomForestModel& model, const Vector& row) {
  double acc = 0.0;
  for (const Tree& tree : model.trees()) acc += tree.PredictRow(row);
  return model.trees().empty() ? 0.0 : acc / model.trees().size();
}

// Scalar reference for a GBDT, mirroring GbdtModel::Predict.
double ScalarGbdt(const GbdtModel& model, const Vector& row) {
  double acc = model.base_score();
  for (const Tree& tree : model.trees()) acc += tree.PredictRow(row);
  return model.task() == TaskType::kClassification ? Sigmoid(acc) : acc;
}

TEST(FlatEnsembleTest, ForestBitIdenticalToScalarTrees) {
  Dataset d = MakeLoans(400, 11);
  RandomForestConfig config;
  config.n_trees = 13;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  auto flat = model.shared_flat();
  ASSERT_EQ(flat->num_trees(), 13);
  for (int i = 0; i < d.num_rows(); ++i) {
    Vector row = d.Row(i);
    EXPECT_EQ(flat->PredictRow(row), ScalarForest(model, row));
    EXPECT_EQ(model.Predict(row), ScalarForest(model, row));
  }
}

TEST(FlatEnsembleTest, GbdtBitIdenticalToScalarTrees) {
  Dataset d = MakeLoans(400, 12);
  GbdtConfig config;
  config.n_trees = 17;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  auto flat = model.shared_flat();
  EXPECT_TRUE(flat->sigmoid());
  for (int i = 0; i < d.num_rows(); ++i) {
    Vector row = d.Row(i);
    EXPECT_EQ(flat->PredictRow(row), ScalarGbdt(model, row));
    EXPECT_EQ(flat->MarginRow(row.data()), model.Margin(row));
  }
}

TEST(FlatEnsembleTest, SingleTreeBitIdentical) {
  Dataset d = MakeLoans(300, 13);
  auto model = DecisionTreeModel::Train(d).ValueOrDie();
  auto flat = model.shared_flat();
  ASSERT_EQ(flat->num_trees(), 1);
  EXPECT_EQ(flat->num_nodes(), model.tree().num_nodes());
  for (int i = 0; i < d.num_rows(); ++i) {
    Vector row = d.Row(i);
    EXPECT_EQ(flat->PredictRow(row), model.tree().PredictRow(row));
  }
}

TEST(FlatEnsembleTest, ViewFlatFoldsScalesBitIdentically) {
  Dataset d = MakeLoans(300, 14);
  RandomForestConfig config;
  config.n_trees = 9;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  auto flat = view.flat();
  // The view pre-scales each tree by 1/T; its flat kernel must reproduce
  // that accumulation order, not the forest's sum-then-divide.
  for (int i = 0; i < 50; ++i) {
    Vector row = d.Row(i);
    EXPECT_EQ(flat->PredictRow(row), view.Margin(row));
  }
}

TEST(FlatEnsembleTest, BatchMatchesRowPathAtEveryThreadCount) {
  Dataset d = MakeLoans(257, 15);  // Deliberately not a multiple of 64.
  RandomForestConfig rf_config;
  rf_config.n_trees = 8;
  auto rf = RandomForestModel::Train(d, rf_config).ValueOrDie();
  GbdtConfig gb_config;
  gb_config.n_trees = 8;
  auto gb = GbdtModel::Train(d, gb_config).ValueOrDie();

  Vector rf_serial(d.num_rows()), gb_serial(d.num_rows());
  for (int i = 0; i < d.num_rows(); ++i) {
    rf_serial[i] = rf.Predict(d.Row(i));
    gb_serial[i] = gb.Predict(d.Row(i));
  }
  const int saved = GetNumThreads();
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    Vector rf_batch = rf.PredictBatch(d.x());
    Vector gb_batch = gb.PredictBatch(d.x());
    for (int i = 0; i < d.num_rows(); ++i) {
      EXPECT_EQ(rf_batch[i], rf_serial[i]) << "threads=" << threads;
      EXPECT_EQ(gb_batch[i], gb_serial[i]) << "threads=" << threads;
    }
  }
  SetNumThreads(saved);
}

TEST(FlatEnsembleTest, EmptyEnsembleScoresBase) {
  FlatEnsemble::Options options;
  options.base = 2.5;
  FlatEnsemble flat = FlatEnsemble::Build({}, options);
  EXPECT_EQ(flat.num_trees(), 0);
  Matrix x(3, 2, 1.0);
  Vector out = flat.PredictBatch(x);
  for (double v : out) EXPECT_EQ(v, 2.5);
}

TEST(FlatEnsembleTest, SingleNodeTreeIsALeaf) {
  Tree leaf({TreeNode{}});
  ASSERT_TRUE(leaf.nodes()[0].IsLeaf());
  Tree stump = leaf;
  stump.mutable_nodes()->front().value = 0.75;
  FlatEnsemble flat = FlatEnsemble::Build({&stump}, {});
  EXPECT_EQ(flat.num_nodes(), 1);
  Vector row = {1.0, 2.0};
  EXPECT_EQ(flat.PredictRow(row), 0.75);
}

TEST(FlatEnsembleTest, NanRoutesRightLikeScalarPath) {
  // Internal node: x0 <= 0.5 -> leaf(1), else leaf(2).
  std::vector<TreeNode> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = -1.0;
  nodes[2].value = 1.0;
  Tree tree(std::move(nodes));
  FlatEnsemble flat = FlatEnsemble::Build({&tree}, {});
  Vector nan_row = {std::nan("")};
  EXPECT_EQ(flat.PredictRow(nan_row), tree.PredictRow(nan_row));
  EXPECT_EQ(flat.PredictRow(nan_row), 1.0);
}

TEST(FlatEnsembleTest, MutableTreesInvalidatesCachedKernel) {
  Dataset d = MakeLoans(200, 16);
  GbdtConfig config;
  config.n_trees = 4;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  Vector row = d.Row(0);
  const double before = model.PredictBatch(d.x())[0];

  // Shift every leaf of the first tree; the next batch call must rebuild
  // the kernel and see the mutation.
  for (TreeNode& node : *model.mutable_trees()->front().mutable_nodes())
    if (node.IsLeaf()) node.value += 1.0;
  const double after = model.PredictBatch(d.x())[0];
  EXPECT_NE(before, after);
  EXPECT_EQ(after, ScalarGbdt(model, row));
}

TEST(FlatEnsembleTest, AsPredictFnUsesKernelAndMatchesPredict) {
  Dataset d = MakeLoans(300, 17);
  RandomForestConfig rf_config;
  rf_config.n_trees = 6;
  auto rf = RandomForestModel::Train(d, rf_config).ValueOrDie();
  GbdtConfig gb_config;
  gb_config.n_trees = 6;
  auto gb = GbdtModel::Train(d, gb_config).ValueOrDie();
  auto dt = DecisionTreeModel::Train(d).ValueOrDie();
  PredictFn rf_fn = AsPredictFn(rf);
  PredictFn gb_fn = AsPredictFn(gb);
  PredictFn dt_fn = AsPredictFn(dt);
  for (int i = 0; i < 40; ++i) {
    Vector row = d.Row(i);
    EXPECT_EQ(rf_fn(row), rf.Predict(row));
    EXPECT_EQ(gb_fn(row), gb.Predict(row));
    EXPECT_EQ(dt_fn(row), dt.Predict(row));
  }
}

TEST(FlatEnsembleTest, ModelAwareGameBitMatchesPredictFnGame) {
  // Every built-in game on every mask: the Model overload (one batched
  // call per coalition) must bit-match the per-row PredictFn overload, and
  // the coalition memo must count exactly. A first sweep misses every mask
  // and evaluates the game's rows once per coalition; a second sweep only
  // hits.
  Dataset loans = MakeLoans(120, 18);
  GbdtConfig config;
  config.n_trees = 6;
  auto loans_model = GbdtModel::Train(loans, config).ValueOrDie();
  LinearScm scm = MakeChainScm(1.0, -0.5);
  Rng rng(19);
  Dataset chain = scm.SampleDataset(
      120, &rng, [](const Vector& x) { return x[2] > 0.0 ? 1.0 : 0.0; });
  auto chain_model = GbdtModel::Train(chain, config).ValueOrDie();
  const Vector loans_x = loans.Row(0);
  const Vector chain_x = chain.Row(0);
  const PredictFn loans_f = AsPredictFn(loans_model);
  const PredictFn chain_f = AsPredictFn(chain_model);

  struct GamePair {
    const char* name;
    std::unique_ptr<CoalitionGame> fn_game;
    std::unique_ptr<CoalitionGame> batch_game;
    int64_t rows_per_value;
  };
  std::vector<GamePair> games;
  games.push_back(
      {"marginal",
       std::make_unique<MarginalFeatureGame>(loans_f, loans_x, loans.x()),
       std::make_unique<MarginalFeatureGame>(loans_model, loans_x, loans.x()),
       120});
  games.push_back({"conditional",
                   std::make_unique<ConditionalFeatureGame>(
                       loans_f, loans_x, loans.x(), 10),
                   std::make_unique<ConditionalFeatureGame>(
                       loans_model, loans_x, loans.x(), 10),
                   10});
  games.push_back({"interventional_scm",
                   std::make_unique<InterventionalScmGame>(&scm, chain_f,
                                                           chain_x, 50, 3),
                   std::make_unique<InterventionalScmGame>(
                       &scm, chain_model, chain_x, 50, 3),
                   50});

  for (const GamePair& g : games) {
    const int64_t num_masks = int64_t{1} << g.fn_game->num_players();
    std::vector<Vector> values;
    for (const CoalitionGame* game : {g.fn_game.get(), g.batch_game.get()}) {
      Vector first;
      for (int sweep = 0; sweep < 2; ++sweep) {
        telemetry::Registry::Global().Reset();
        Vector got;
        for (int64_t mask = 0; mask < num_masks; ++mask)
          got.push_back(game->Value(static_cast<uint64_t>(mask)));
        auto counters = telemetry::Registry::Global().CounterSnapshot();
        const int64_t misses = sweep == 0 ? num_masks : 0;
        if (XAI_TELEMETRY != 0) {
          EXPECT_EQ(counters["shap/cache_hits"], num_masks - misses)
              << g.name << " sweep " << sweep;
          EXPECT_EQ(counters["shap/cache_misses"], misses)
              << g.name << " sweep " << sweep;
          EXPECT_EQ(counters["shap/cache_entries"], misses)
              << g.name << " sweep " << sweep;
          EXPECT_EQ(counters["model/evals"], misses * g.rows_per_value)
              << g.name << " sweep " << sweep;
        }
        if (sweep == 0) first = got;
        EXPECT_EQ(got, first) << g.name;
      }
      values.push_back(first);
    }
    for (int64_t mask = 0; mask < num_masks; ++mask)
      EXPECT_EQ(values[0][mask], values[1][mask]) << g.name << " " << mask;
  }
  const auto* marginal =
      static_cast<const MarginalFeatureGame*>(games[0].batch_game.get());
  EXPECT_EQ(marginal->num_evaluations(), 256);
}

TEST(FlatEnsembleDeathTest, GamesRejectMoreThan64Features) {
  // 65 features cannot key a uint64_t coalition mask; the game must abort
  // loudly instead of silently truncating attributions.
  Vector instance(65, 0.0);
  Matrix background(2, 65, 0.0);
  PredictFn f = [](const Vector&) { return 0.0; };
  EXPECT_DEATH(MarginalFeatureGame(f, instance, background), "64");
  EXPECT_DEATH(ConditionalFeatureGame(f, instance, background), "64");
}

TEST(FlatEnsembleDeathTest, BuildRejectsEmptyTree) {
  Tree empty;
  EXPECT_DEATH(FlatEnsemble::Build({&empty}, {}), "empty");
}

}  // namespace
}  // namespace xai
