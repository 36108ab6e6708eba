// Tests for the compiled SoA tree-ensemble inference kernel
// (model/flat_ensemble.h): bit-identity against the scalar AoS paths it
// replaces across every model kind, structural edge cases, cache
// invalidation, the 64-feature coalition-mask guard, and generated
// differential tests of the coalition scorer against hybrid rows.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xai/causal/scm.h"
#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/kernel_shap.h"
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

TEST(FlatEnsembleTest, MinWidthIsWidestSplitFeaturePlusOne) {
  Tree leaf({TreeNode{}});
  EXPECT_EQ(FlatEnsemble::Build({&leaf}, {}).min_width(), 0);
  // A parsed snapshot may split on feature INT_MAX; its width of 2^31 must
  // not overflow.
  std::vector<TreeNode> nodes(3);
  nodes[0].feature = std::numeric_limits<int>::max();
  nodes[0].left = 1;
  nodes[0].right = 2;
  Tree wide(std::move(nodes));
  EXPECT_EQ(FlatEnsemble::Build({&leaf, &wide}, {}).min_width(),
            int64_t{1} << 31);
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

// ---- Coalition scorer: generated differential tests ----------------------

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// A seeded random tree over `d` features. Internal nodes split on a random
// feature, so features repeat along paths, at a threshold from the grid
// {-1, -0.5, ..., 1} that GridValue also draws from, so rows tie with it.
// Below the root a node becomes a leaf with probability `leaf_prob`.
Tree RandomTree(Rng* rng, int d, int depth, double leaf_prob) {
  std::vector<TreeNode> nodes;
  std::function<int(int)> grow = [&](int level) {
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    if (level == depth || (level > 0 && rng->Bernoulli(leaf_prob))) {
      nodes[id].value = rng->Normal();
      return id;
    }
    nodes[id].feature = rng->UniformInt(d);
    nodes[id].threshold = 0.5 * rng->UniformInt(-2, 3);
    const int left = grow(level + 1);
    const int right = grow(level + 1);
    nodes[id].left = left;
    nodes[id].right = right;
    return id;
  };
  grow(0);
  return Tree(std::move(nodes));
}

Tree SingleLeaf(double value) {
  std::vector<TreeNode> nodes(1);
  nodes[0].value = value;
  return Tree(std::move(nodes));
}

int SplitNodes(const Tree& tree) {
  return tree.num_nodes() - tree.NumLeaves();
}

// A threshold-grid value, an off-grid value, or (with `nan_prob`) NaN.
double GridValue(Rng* rng, double nan_prob) {
  if (rng->Bernoulli(nan_prob)) return std::nan("");
  return rng->Bernoulli(0.5) ? 0.5 * rng->UniformInt(-3, 4) : rng->Normal();
}

Matrix RandomRows(Rng* rng, int rows, int d, double nan_prob) {
  Matrix m(rows, d);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < d; ++j) m(i, j) = GridValue(rng, nan_prob);
  return m;
}

// The reference the scorer replaces: materialized hybrid rows, one
// PredictBatch, a serial sum in row order.
double HybridRowSum(const Model& model, uint64_t mask, const Vector& x,
                    const Matrix& background) {
  Matrix rows(background.rows(), background.cols());
  for (int b = 0; b < background.rows(); ++b)
    for (int j = 0; j < background.cols(); ++j)
      rows(b, j) = (mask >> j) & 1 ? x[j] : background(b, j);
  double acc = 0.0;
  for (double p : model.PredictBatch(rows)) acc += p;
  return acc;
}

// A block of `size` masks over d players with repeats; ∅ and the full set
// lead every block of more than one mask.
std::vector<uint64_t> RandomBlock(Rng* rng, int size, int d) {
  const uint64_t full = d == 64 ? ~0ULL : (1ULL << d) - 1;
  std::vector<uint64_t> block;
  if (size > 1) block = {0, full};
  while (static_cast<int>(block.size()) < size) {
    if (!block.empty() && rng->Bernoulli(0.2)) {
      block.push_back(block[rng->UniformInt(static_cast<int>(block.size()))]);
    } else {
      block.push_back(rng->NextU64() & full);
    }
  }
  return block;
}

struct NamedModel {
  std::string name;
  std::unique_ptr<Model> model;
  int d;
};

// Hand-built ensembles over both folds (RF divisor, GBDT base + sigmoid),
// both tasks, single-leaf trees, and trees deeper than 8 with more than 64
// split nodes.
std::vector<NamedModel> RandomEnsembles(Rng* rng) {
  std::vector<NamedModel> models;
  {
    Tree deep = RandomTree(rng, 6, 11, 0.12);
    EXPECT_GT(deep.Depth(), 8);
    EXPECT_GT(SplitNodes(deep), 64);
    models.push_back({"tree/regression",
                      std::make_unique<DecisionTreeModel>(
                          DecisionTreeModel::FromTree(
                              std::move(deep), TaskType::kRegression)),
                      6});
  }
  {
    std::vector<Tree> trees;
    for (int t = 0; t < 5; ++t) trees.push_back(RandomTree(rng, 6, 10, 0.1));
    trees.push_back(SingleLeaf(0.25));
    models.push_back({"forest/classification",
                      std::make_unique<RandomForestModel>(
                          RandomForestModel::FromTrees(
                              std::move(trees), TaskType::kClassification)),
                      6});
  }
  {
    std::vector<Tree> trees;
    trees.push_back(SingleLeaf(-0.75));
    for (int t = 0; t < 8; ++t) trees.push_back(RandomTree(rng, 6, 4, 0.2));
    models.push_back({"gbdt/classification",
                      std::make_unique<GbdtModel>(GbdtModel::FromParts(
                          std::move(trees), 0.3, TaskType::kClassification)),
                      6});
  }
  {
    std::vector<Tree> trees;
    for (int t = 0; t < 8; ++t) trees.push_back(RandomTree(rng, 40, 7, 0.1));
    models.push_back({"gbdt/regression/d40",
                      std::make_unique<GbdtModel>(GbdtModel::FromParts(
                          std::move(trees), -1.25, TaskType::kRegression)),
                      40});
  }
  return models;
}

TEST(CoalitionScorerTest, BitMatchesHybridRowsOnRandomEnsembles) {
  Rng rng(20);
  for (const NamedModel& m : RandomEnsembles(&rng)) {
    std::shared_ptr<const FlatEnsemble> flat = FlatEnsembleOf(*m.model);
    ASSERT_NE(flat, nullptr) << m.name;
    for (int rows : {1, 63, 64, 65, 130}) {
      const Matrix background = RandomRows(&rng, rows, m.d, 0.1);
      for (int instance_id = 0; instance_id < 3; ++instance_id) {
        // The first instance carries NaNs, which must route right.
        const Vector x =
            RandomRows(&rng, 1, m.d, instance_id == 0 ? 0.3 : 0.0).Row(0);
        const CoalitionScorer scorer(flat, background, x);
        ASSERT_EQ(scorer.num_rows(), rows);
        for (int size : {1, 7, 128, 300}) {
          const std::vector<uint64_t> masks = RandomBlock(&rng, size, m.d);
          std::vector<double> got(masks.size());
          scorer.SumOver(masks, got);
          for (size_t i = 0; i < masks.size(); ++i) {
            const double want =
                HybridRowSum(*m.model, masks[i], x, background);
            ASSERT_EQ(Bits(got[i]), Bits(want))
                << m.name << " rows=" << rows << " instance=" << instance_id
                << " block=" << size << " mask=" << masks[i] << ": "
                << got[i] << " vs " << want;
          }
        }
      }
    }
  }
}

TEST(CoalitionScorerTest, ModelGameBlocksMatchPredictFnGameAndCountAlike) {
  // Values on the Model game equals Value on the PredictFn game for every
  // mask, through max_background truncation; a block with repeats moves
  // every counter exactly as the same masks sent one by one.
  Rng rng(21);
  for (const NamedModel& m : RandomEnsembles(&rng)) {
    if (m.d != 6) continue;
    const PredictFn f = AsPredictFn(*m.model);
    const Matrix background = RandomRows(&rng, 130, m.d, 0.1);
    const Vector x = RandomRows(&rng, 1, m.d, 0.2).Row(0);
    for (int max_background : {0, 65, 64, 1}) {
      MarginalFeatureGame fn_game(f, x, background, max_background);
      MarginalFeatureGame model_game(*m.model, x, background, max_background);
      std::vector<uint64_t> all(64);
      for (uint64_t mask = 0; mask < 64; ++mask) all[mask] = mask;
      std::vector<double> block(64);
      model_game.Values(all, block);
      for (uint64_t mask = 0; mask < 64; ++mask)
        ASSERT_EQ(Bits(block[mask]), Bits(fn_game.Value(mask)))
            << m.name << " max_background=" << max_background
            << " mask=" << mask;
    }
    if (XAI_TELEMETRY == 0) continue;
    const std::vector<uint64_t> masks = RandomBlock(&rng, 200, m.d);
    const int64_t rows = background.rows();
    for (bool model_aware : {true, false}) {
      auto make = [&] {
        return model_aware
                   ? std::make_unique<MarginalFeatureGame>(*m.model, x,
                                                           background)
                   : std::make_unique<MarginalFeatureGame>(f, x, background);
      };
      std::map<std::string, int64_t> counts[2];
      int64_t evaluations[2];
      for (int blocked = 0; blocked < 2; ++blocked) {
        const auto game = make();
        // Warm part of the memo so the block meets stored coalitions too.
        game->Value(masks[5]);
        game->Value(masks[9]);
        telemetry::Registry::Global().Reset();
        std::vector<double> out(masks.size());
        if (blocked) {
          game->Values(masks, out);
        } else {
          for (size_t i = 0; i < masks.size(); ++i)
            out[i] = game->Value(masks[i]);
        }
        counts[blocked] = telemetry::Registry::Global().CounterSnapshot();
        evaluations[blocked] = game->num_evaluations();
      }
      EXPECT_EQ(evaluations[0], evaluations[1]) << m.name;
      for (const char* counter :
           {"shap/cache_hits", "shap/cache_misses", "shap/cache_entries",
            "model/evals", "model/flat_predict_rows"}) {
        EXPECT_EQ(counts[0][counter], counts[1][counter])
            << m.name << " " << counter << " model_aware=" << model_aware;
      }
      const int64_t misses = counts[1]["shap/cache_misses"];
      EXPECT_EQ(counts[1]["shap/cache_hits"] + misses,
                static_cast<int64_t>(masks.size()));
      EXPECT_EQ(counts[1]["model/evals"], misses * rows) << m.name;
      // The scorer evaluates no model rows of its own.
      if (model_aware) {
        EXPECT_EQ(counts[1]["model/flat_predict_rows"], 0);
      }
    }
  }
}

TEST(CoalitionScorerTest, FlatEnsembleOfKnowsOnlyTreeModels) {
  Dataset d = MakeLoans(120, 22);
  auto logistic = LogisticRegressionModel::Train(d).ValueOrDie();
  EXPECT_EQ(FlatEnsembleOf(logistic), nullptr);
  auto tree = DecisionTreeModel::Train(d).ValueOrDie();
  EXPECT_EQ(FlatEnsembleOf(tree), tree.shared_flat());
}

TEST(CoalitionScorerTest, ShallowTreesMatchHybridRowsAcrossPasses) {
  // Depth-2 trees split on at most three features, so each forms at most
  // eight groups and the leaf vectors are sized far below one per mask.
  // Blocks of many passes must still match the hybrid rows.
  Rng rng(22);
  std::vector<Tree> trees;
  for (int t = 0; t < 9; ++t) trees.push_back(RandomTree(&rng, 6, 2, 0.0));
  const GbdtModel model =
      GbdtModel::FromParts(std::move(trees), 0.1, TaskType::kClassification);
  const Matrix background = RandomRows(&rng, 65, 6, 0.1);
  const Vector x = RandomRows(&rng, 1, 6, 0.2).Row(0);
  const CoalitionScorer scorer(FlatEnsembleOf(model), background, x);
  for (int size : {1200, 1300, 2600}) {
    const std::vector<uint64_t> masks = RandomBlock(&rng, size, 6);
    std::vector<double> got(masks.size());
    scorer.SumOver(masks, got);
    for (size_t i = 0; i < masks.size(); ++i)
      ASSERT_EQ(Bits(got[i]), Bits(HybridRowSum(model, masks[i], x,
                                                background)))
          << "block=" << size << " mask=" << masks[i];
  }
}

// ---- KernelSHAP on the Model game: generated differential tests ----------

// A row value that may be NaN, an infinity or -0.0, else a GridValue.
double SpecialValue(Rng* rng, double special_prob) {
  if (!rng->Bernoulli(special_prob)) return GridValue(rng, 0.0);
  const double specials[] = {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  return specials[rng->UniformInt(4)];
}

Matrix SpecialRows(Rng* rng, int rows, int d, double special_prob) {
  Matrix m(rows, d);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < d; ++j) m(i, j) = SpecialValue(rng, special_prob);
  return m;
}

// A single tree, a random forest or a GBDT of 1-40 trees of the given
// depth over d features.
std::unique_ptr<Model> RandomTreeModel(Rng* rng, int d, int depth) {
  const TaskType task =
      rng->Bernoulli(0.5) ? TaskType::kRegression : TaskType::kClassification;
  const double leaf_prob = 0.15 * rng->Uniform();
  const int kind = rng->UniformInt(3);
  if (kind == 0) {
    return std::make_unique<DecisionTreeModel>(DecisionTreeModel::FromTree(
        RandomTree(rng, d, depth, leaf_prob), task));
  }
  std::vector<Tree> trees;
  const int num_trees = 1 + rng->UniformInt(40);
  for (int t = 0; t < num_trees; ++t)
    trees.push_back(RandomTree(rng, d, depth, leaf_prob));
  if (kind == 1) {
    return std::make_unique<RandomForestModel>(
        RandomForestModel::FromTrees(std::move(trees), task));
  }
  return std::make_unique<GbdtModel>(
      GbdtModel::FromParts(std::move(trees), rng->Normal(), task));
}

std::vector<uint64_t> KernelShapBits(const AttributionExplanation& e) {
  std::vector<uint64_t> out;
  for (double a : e.attributions) out.push_back(Bits(a));
  out.push_back(Bits(e.base_value));
  out.push_back(Bits(e.prediction));
  return out;
}

// KernelSHAP over the Model game (the coalition scorer) against the
// PredictFn game at one thread, bit for bit: at 1 and 4 threads, where a
// block splits into 128-mask chunks, and nested inside a 2- and a 4-thread
// ParallelFor the way RequestBatcher::ExecuteBatch runs a batch, where
// each block is one Values() call. Budgets enumerate (d <= 11) or sample,
// and the first case's 1 024-value first block of many-feature trees
// crosses the scorer's pass bound.
TEST(ScorerKernelShapTest, GeneratedModelGamesMatchPredictFnGame) {
  Rng rng(60);
  const int prev_threads = GetNumThreads();
  const int kBackgrounds[] = {1, 63, 64, 65, 130};
  for (int c = 0; c < 14; ++c) {
    const int kWidths[] = {1, 2, 5, 8, 10, 11, 20, 40, 64};
    const int kBudgets[] = {60, 300, 1100, 2100};
    const int d = c == 0 ? 40 : kWidths[rng.UniformInt(9)];
    const int depth = c == 0 ? 8 : rng.UniformInt(9);
    const std::unique_ptr<Model> model = RandomTreeModel(&rng, d, depth);
    const int rows = kBackgrounds[c == 0 ? 3 : rng.UniformInt(5)];
    const Matrix background = SpecialRows(&rng, rows, d, 0.1);
    const Vector x = SpecialRows(&rng, 1, d, 0.2).Row(0);
    KernelShapConfig config;
    config.coalition_budget = c == 0 ? 1100 : kBudgets[rng.UniformInt(4)];
    const uint64_t seed = rng.NextU64();
    auto explain = [&](const CoalitionGame& game) {
      Rng ks_rng(seed);
      return KernelShapBits(KernelShap(game, config, &ks_rng).ValueOrDie());
    };
    SetNumThreads(1);
    const std::vector<uint64_t> want =
        explain(MarginalFeatureGame(AsPredictFn(*model), x, background));
    const std::string where = model->name() + " d=" + std::to_string(d) +
                              " depth=" + std::to_string(depth) +
                              " rows=" + std::to_string(rows) + " budget=" +
                              std::to_string(config.coalition_budget);
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      EXPECT_EQ(explain(MarginalFeatureGame(*model, x, background)), want)
          << where << " threads=" << threads;
    }
    for (int threads : {2, 4}) {
      SetNumThreads(threads);
      std::vector<std::vector<uint64_t>> got(threads);
      ParallelFor(threads, 1, [&](int64_t begin, int64_t end, int64_t) {
        for (int64_t k = begin; k < end; ++k)
          got[k] = explain(MarginalFeatureGame(*model, x, background));
      });
      for (int k = 0; k < threads; ++k)
        EXPECT_EQ(got[k], want) << where << " nested in " << threads
                                << " threads, request " << k;
    }
  }
  SetNumThreads(prev_threads);
}

// Decision record: a serve_miss-shaped KernelSHAP request (8 features, 64
// background rows, budget 512: 254 coalitions and the 2 anchors) on a
// tree model is one scorer pass when it runs nested, as every request of
// a RequestBatcher batch does, or on a one-thread pool; alone on a
// 2-thread pool its block splits into two 128-mask chunks, one per worker.
TEST(ScorerKernelShapTest, ScorerPassesPerServeMissShapedRequest) {
  if (XAI_TELEMETRY == 0) GTEST_SKIP() << "built with XAI_TELEMETRY=0";
  const Dataset train = MakeLoans(300, 62);
  ASSERT_EQ(train.num_features(), 8);
  GbdtConfig gbdt_config;
  gbdt_config.n_trees = 20;
  gbdt_config.max_depth = 3;
  const GbdtModel gbdt = GbdtModel::Train(train, gbdt_config).ValueOrDie();
  const Matrix background = MakeLoans(64, 63).x();
  KernelShapConfig config;
  config.coalition_budget = 512;
  auto request = [&](int i) {
    MarginalFeatureGame game(gbdt, train.Row(i), background);
    Rng rng(i);
    ASSERT_TRUE(KernelShap(game, config, &rng).ok());
  };
  auto passes = [&](int threads, int requests, bool nested) {
    SetNumThreads(threads);
    telemetry::Registry::Global().Reset();
    if (nested) {
      ParallelFor(requests, 1, [&](int64_t begin, int64_t end, int64_t) {
        for (int64_t k = begin; k < end; ++k) request(static_cast<int>(k));
      });
    } else {
      for (int k = 0; k < requests; ++k) request(k);
    }
    return telemetry::Registry::Global().CounterSnapshot()
        ["model/scorer_passes"];
  };
  const int prev_threads = GetNumThreads();
  EXPECT_EQ(passes(2, 2, /*nested=*/true), 2);
  EXPECT_EQ(passes(4, 4, /*nested=*/true), 4);
  EXPECT_EQ(passes(1, 1, /*nested=*/false), 1);
  EXPECT_EQ(passes(2, 1, /*nested=*/false), 2);
  SetNumThreads(prev_threads);
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

TEST(FlatEnsembleDeathTest, ScorerRejectsSplitsOutsideTheInstance) {
  // A split on feature 3 cannot be decided for a 3-feature instance; the
  // hybrid-row path would read past the row.
  std::vector<TreeNode> nodes(3);
  nodes[0].feature = 3;
  nodes[0].left = 1;
  nodes[0].right = 2;
  Tree tree(std::move(nodes));
  auto model = DecisionTreeModel::FromTree(std::move(tree),
                                           TaskType::kRegression);
  const Vector x(3, 0.0);
  const Matrix background(4, 3, 0.0);
  EXPECT_DEATH(CoalitionScorer(FlatEnsembleOf(model), background, x),
               "outside the instance");
  EXPECT_DEATH(MarginalFeatureGame(model, x, background),
               "outside the instance");
}

// One split on feature 5: a row must hold six values. Rows of ones reach
// the right leaf (3.0).
DecisionTreeModel SplitOnFeature5() {
  std::vector<TreeNode> nodes(3);
  nodes[0] = {5, 0.0, 1, 2, 0.0, 4.0};
  nodes[1] = {-1, 0.0, -1, -1, 1.0, 2.0};
  nodes[2] = {-1, 0.0, -1, -1, 3.0, 2.0};
  return DecisionTreeModel::FromTree(Tree(std::move(nodes)),
                                     TaskType::kRegression);
}

TEST(FlatEnsembleDeathTest, PredictRowRejectsARowNarrowerThanItsSplits) {
  // The kernel would read row[5] past the end of a two-value row.
  const DecisionTreeModel model = SplitOnFeature5();
  const std::shared_ptr<const FlatEnsemble> flat = FlatEnsembleOf(model);
  ASSERT_EQ(flat->min_width(), 6);
  EXPECT_DEATH(flat->PredictRow(Vector{1.0, 2.0}), "narrower than");
  EXPECT_DEATH(AsPredictFn(model)(Vector{1.0, 2.0}), "narrower than");
  EXPECT_EQ(flat->PredictRow(Vector(6, 1.0)), 3.0);
}

TEST(FlatEnsembleDeathTest, BatchPathsRejectRowsNarrowerThanTheirSplits) {
  // PredictBatch and every batch path that reaches it (the tree models,
  // TreeEnsembleView::MarginBatch) score rows through ScoreRows.
  const DecisionTreeModel model = SplitOnFeature5();
  const std::shared_ptr<const FlatEnsemble> flat = FlatEnsembleOf(model);
  const Matrix narrow(3, 2, 1.0);
  Vector out(3);
  EXPECT_DEATH(flat->ScoreRows(narrow, 0, 3, out.data()), "narrower than");
  EXPECT_DEATH(flat->PredictBatch(narrow), "narrower than");
  EXPECT_DEATH(model.PredictBatch(narrow), "narrower than");
  EXPECT_DEATH(TreeEnsembleView::Of(model).MarginBatch(narrow),
               "narrower than");
  const Vector wide = flat->PredictBatch(Matrix(3, 6, 1.0));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(wide[i], 3.0);
}

// The per-row Predict(const Vector&) of each tree model walks its Trees,
// not the flat kernel, and would read row[5] past the end of a two-value
// row.
TEST(TreeModelDeathTest, DecisionTreePredictRejectsANarrowRow) {
  const DecisionTreeModel model = SplitOnFeature5();
  EXPECT_DEATH(model.Predict(Vector{1.0, 2.0}), "narrower than");
  EXPECT_EQ(model.Predict(Vector(6, 1.0)), 3.0);
}

TEST(TreeModelDeathTest, RandomForestPredictRejectsANarrowRow) {
  const DecisionTreeModel single = SplitOnFeature5();
  const Tree& tree = single.tree();
  const RandomForestModel model =
      RandomForestModel::FromTrees({tree, tree}, TaskType::kRegression);
  EXPECT_DEATH(model.Predict(Vector{1.0, 2.0}), "narrower than");
  EXPECT_EQ(model.Predict(Vector(6, 1.0)), 3.0);
}

TEST(TreeModelDeathTest, GbdtPredictAndMarginRejectANarrowRow) {
  const GbdtModel model = GbdtModel::FromParts(
      {SplitOnFeature5().tree()}, 0.5, TaskType::kRegression);
  EXPECT_DEATH(model.Predict(Vector{1.0, 2.0}), "narrower than");
  EXPECT_DEATH(model.Margin(Vector{1.0, 2.0}), "narrower than");
  EXPECT_EQ(model.Margin(Vector(6, 1.0)), 3.5);
}

TEST(FlatEnsembleDeathTest, BuildRejectsEmptyTree) {
  Tree empty;
  EXPECT_DEATH(FlatEnsemble::Build({&empty}, {}), "empty");
}

}  // namespace
}  // namespace xai
