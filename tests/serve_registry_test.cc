#include "xai/serve/model_registry.h"

#include <gtest/gtest.h>

#include <string>

#include "xai/data/synthetic.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/serialization.h"

namespace xai {
namespace serve {
namespace {

TEST(ContentHashTest, MatchesFnv1aReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(ContentHash64(std::string("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ContentHash64(std::string("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ContentHash64(std::string("foobar")), 0x85944171f73967e8ULL);
}

TEST(ContentHashTest, VectorHashCoversEveryByte) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {1.0, 2.0, 3.0};
  Vector c = {1.0, 2.0, 3.0000000001};
  EXPECT_EQ(ContentHash64(a), ContentHash64(b));
  EXPECT_NE(ContentHash64(a), ContentHash64(c));
}

class ModelRegistryTest : public ::testing::Test {
 protected:
  ModelRegistryTest()
      : train_(MakeLoans(300, 3)), background_(MakeLoans(64, 4)) {}

  std::string SerializedGbdt() {
    GbdtModel::Config config;
    config.n_trees = 10;
    auto model = GbdtModel::Train(train_, config).ValueOrDie();
    return SerializeModel(model);
  }

  Dataset train_;
  Dataset background_;
};

TEST_F(ModelRegistryTest, RegisterExposesSnapshotAndFingerprint) {
  ModelRegistry registry;
  const std::string text = SerializedGbdt();
  uint64_t fp = registry.Register("loans", text, background_).ValueOrDie();
  EXPECT_EQ(fp, Fingerprint(text));

  auto entry = registry.Find("loans");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "loans");
  EXPECT_EQ(entry->kind, "gbdt");
  EXPECT_EQ(entry->fingerprint, fp);
  EXPECT_NE(entry->background_fingerprint, 0u);
  EXPECT_NE(entry->model, nullptr);
  EXPECT_NE(entry->tree_view, nullptr) << "gbdt must expose a tree view";
  EXPECT_EQ(entry->num_features(), background_.num_features());
}

TEST_F(ModelRegistryTest, ReloadOfIdenticalSnapshotKeepsFingerprint) {
  ModelRegistry registry;
  const std::string text = SerializedGbdt();
  uint64_t fp1 = registry.Register("loans", text, background_).ValueOrDie();
  uint64_t fp2 = registry.Register("loans", text, background_).ValueOrDie();
  EXPECT_EQ(fp1, fp2);

  // A second registry (fresh process, conceptually) agrees.
  ModelRegistry other;
  EXPECT_EQ(other.Register("loans", text, background_).ValueOrDie(), fp1);

  // Deserialize/re-serialize round trip is canonical, so a snapshot that
  // travels through a model store re-fingerprints identically.
  auto loaded = DeserializeGbdt(text).ValueOrDie();
  EXPECT_EQ(Fingerprint(SerializeModel(loaded)), fp1);
}

TEST_F(ModelRegistryTest, DifferentSnapshotsGetDifferentFingerprints) {
  GbdtModel::Config small;
  small.n_trees = 5;
  GbdtModel::Config large;
  large.n_trees = 12;
  auto a = GbdtModel::Train(train_, small).ValueOrDie();
  auto b = GbdtModel::Train(train_, large).ValueOrDie();
  EXPECT_NE(Fingerprint(a), Fingerprint(b));
}

TEST_F(ModelRegistryTest, ReRegisterSwapsWhileOldEntrySurvives) {
  ModelRegistry registry;
  const std::string text = SerializedGbdt();
  registry.Register("m", text, background_).ValueOrDie();
  auto old_entry = registry.Find("m");

  auto logistic = LogisticRegressionModel::Train(train_).ValueOrDie();
  registry.Register("m", SerializeModel(logistic), background_).ValueOrDie();
  auto new_entry = registry.Find("m");

  EXPECT_EQ(new_entry->kind, "logistic_regression");
  EXPECT_EQ(new_entry->tree_view, nullptr);
  // In-flight requests holding the old snapshot still work.
  EXPECT_EQ(old_entry->kind, "gbdt");
  EXPECT_NE(old_entry->model, nullptr);
  EXPECT_EQ(registry.size(), 1);
}

TEST_F(ModelRegistryTest, UnregisterAndNames) {
  ModelRegistry registry;
  const std::string text = SerializedGbdt();
  registry.Register("b", text, background_).ValueOrDie();
  registry.Register("a", text, background_).ValueOrDie();
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"a", "b"}));

  EXPECT_TRUE(registry.Unregister("a").ok());
  EXPECT_EQ(registry.Unregister("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Find("a"), nullptr);
  EXPECT_EQ(registry.size(), 1);
}

TEST_F(ModelRegistryTest, RejectsBadInput) {
  ModelRegistry registry;
  const std::string text = SerializedGbdt();
  EXPECT_EQ(registry.Register("", text, background_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      registry.Register("m", "not a model", background_).status().code(),
      StatusCode::kInvalidArgument);

  Dataset empty(background_.schema(), Matrix(0, background_.num_features()),
                Vector{});
  EXPECT_EQ(registry.Register("m", text, empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelRegistryTest, RefusesCraftedSnapshots) {
  // Each snapshot crashed Register or the first Predict: counts that
  // allocate before anything is read, models wider or narrower than the
  // 8-feature background, and node graphs that are not trees (a cycle, a
  // shared node, no node at all).
  auto logistic = [](int weights) {
    std::string text = "xai_model v1 logistic_regression\nweights " +
                       std::to_string(weights);
    for (int i = 0; i < weights; ++i) text += " 0";
    return text + "\nbias 0\nl2 0\n";
  };
  const std::string leaf = "node -1 0 -1 -1 1 1\n";
  const std::string wide_tree =
      "tree 3\nnode 1000000 0.5 1 2 0 1\n" + leaf + leaf;
  const std::string tree_model = "xai_model v1 decision_tree regression\n";
  const std::string cases[] = {
      tree_model + "tree 2000000000\n",
      "xai_model v1 logistic_regression\nweights 2000000000\n",
      tree_model + wide_tree,
      "xai_model v1 random_forest regression\ntrees 1\n" + wide_tree,
      logistic(2),
      logistic(64),
      tree_model + "tree 2\nnode 0 0.5 0 1 0 1\n" + leaf,
      tree_model + "tree 2\nnode 0 0.5 1 1 0 1\n" + leaf,
      tree_model + "tree 0\n",
  };
  ASSERT_EQ(background_.num_features(), 8);
  ModelRegistry registry;
  for (const std::string& text : cases) {
    EXPECT_EQ(registry.Register("m", text, background_).status().code(),
              StatusCode::kInvalidArgument)
        << text.substr(0, 80);
  }
  EXPECT_EQ(registry.size(), 0);
  // The same shapes at the background's width register and serve.
  const Vector row = background_.Row(0);
  ASSERT_TRUE(registry.Register("lr", logistic(8), background_).ok());
  EXPECT_EQ(registry.Find("lr")->model->Predict(row), 0.5);
  ASSERT_TRUE(registry
                  .Register("dt", tree_model + "tree 3\nnode 7 0.5 1 2 0 1\n" +
                                      leaf + "node -1 0 -1 -1 2 1\n",
                            background_)
                  .ok());
  EXPECT_EQ(registry.Find("dt")->model->Predict(row),
            row[7] <= 0.5 ? 1.0 : 2.0);
}

}  // namespace
}  // namespace serve
}  // namespace xai
