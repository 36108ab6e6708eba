#include "xai/model/serialization.h"

#include <gtest/gtest.h>

#include <string>

#include "xai/data/synthetic.h"

namespace xai {
namespace {

TEST(SerializationTest, LinearRoundTripIsExact) {
  auto [d, gt] = MakeLinearData(100, 3, 0.2, 1);
  (void)gt;
  auto model = LinearRegressionModel::Train(d).ValueOrDie();
  std::string text = SerializeModel(model);
  auto loaded = DeserializeLinearRegression(text).ValueOrDie();
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(i)), model.Predict(d.Row(i)));
  EXPECT_DOUBLE_EQ(loaded.config().l2, model.config().l2);
}

TEST(SerializationTest, LogisticRoundTripIsExact) {
  auto [d, gt] = MakeLogisticData(150, 4, 2);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  auto loaded =
      DeserializeLogisticRegression(SerializeModel(model)).ValueOrDie();
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(i)), model.Predict(d.Row(i)));
}

TEST(SerializationTest, DecisionTreeRoundTripIsExact) {
  Dataset d = MakeLoans(400, 3);
  auto model = DecisionTreeModel::Train(d).ValueOrDie();
  auto loaded =
      DeserializeDecisionTree(SerializeModel(model)).ValueOrDie();
  EXPECT_EQ(loaded.task(), model.task());
  EXPECT_EQ(loaded.tree().num_nodes(), model.tree().num_nodes());
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(i)), model.Predict(d.Row(i)));
}

TEST(SerializationTest, RandomForestRoundTripIsExact) {
  Dataset d = MakeLoans(400, 4);
  RandomForestModel::Config config;
  config.n_trees = 8;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  auto loaded =
      DeserializeRandomForest(SerializeModel(model)).ValueOrDie();
  EXPECT_EQ(loaded.trees().size(), 8u);
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(i)), model.Predict(d.Row(i)));
}

TEST(SerializationTest, GbdtRoundTripIsExact) {
  Dataset d = MakeLoans(500, 5);
  GbdtModel::Config config;
  config.n_trees = 15;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  auto loaded = DeserializeGbdt(SerializeModel(model)).ValueOrDie();
  EXPECT_DOUBLE_EQ(loaded.base_score(), model.base_score());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(loaded.Margin(d.Row(i)), model.Margin(d.Row(i)));
    EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(i)), model.Predict(d.Row(i)));
  }
}

TEST(SerializationTest, GbdtRegressionTaskPreserved) {
  auto [d, gt] = MakeLinearData(300, 3, 0.3, 6);
  (void)gt;
  GbdtModel::Config config;
  config.n_trees = 10;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  auto loaded = DeserializeGbdt(SerializeModel(model)).ValueOrDie();
  EXPECT_EQ(loaded.task(), TaskType::kRegression);
  EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(0)), model.Predict(d.Row(0)));
}

TEST(SerializationTest, PeekKindDispatch) {
  auto [d, gt] = MakeLogisticData(50, 2, 7);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  EXPECT_EQ(PeekModelKind(SerializeModel(model)).ValueOrDie(),
            "logistic_regression");
  EXPECT_FALSE(PeekModelKind("garbage").ok());
}

TEST(SerializationTest, RejectsWrongKindAndMalformedInput) {
  auto [d, gt] = MakeLogisticData(50, 2, 8);
  (void)gt;
  auto model = LogisticRegressionModel::Train(d).ValueOrDie();
  std::string text = SerializeModel(model);
  EXPECT_FALSE(DeserializeLinearRegression(text).ok());   // Wrong kind.
  EXPECT_FALSE(DeserializeLogisticRegression("junk").ok());
  EXPECT_FALSE(
      DeserializeLogisticRegression("xai_model v1 logistic_regression\n")
          .ok());  // Truncated.
  // Counts beyond what the text can hold are refused before anything is
  // allocated (the first two would ask for 16 GB and 80 GB).
  EXPECT_FALSE(DeserializeLogisticRegression(
                   "xai_model v1 logistic_regression\nweights 2000000000\n")
                   .ok());
  EXPECT_FALSE(DeserializeDecisionTree(
                   "xai_model v1 decision_tree regression\ntree 2000000000\n")
                   .ok());
  EXPECT_FALSE(DeserializeRandomForest(
                   "xai_model v1 random_forest regression\ntrees 2000000000\n")
                   .ok());
}

TEST(SerializationTest, TreeChildIndexValidation) {
  const std::string header = "xai_model v1 decision_tree classification\n";
  const std::string leaf = "node -1 0 -1 -1 1 1\n";
  const std::string bad_trees[] = {
      "tree 1\nnode 0 0.5 7 8 0 1\n",          // Children out of range.
      "tree 2\nnode 0 0.5 0 1 0 1\n" + leaf,   // Root is its own child.
      "tree 2\nnode 0 0.5 1 1 0 1\n" + leaf,   // Both children one node.
      "tree 0\n",                               // No root.
  };
  for (const std::string& tree : bad_trees)
    EXPECT_FALSE(DeserializeDecisionTree(header + tree).ok()) << tree;
  EXPECT_TRUE(DeserializeDecisionTree(header + "tree 3\nnode 0 0.5 1 2 0 1\n" +
                                      leaf + leaf)
                  .ok());
}

TEST(SerializationTest, FileRoundTrip) {
  auto [d, gt] = MakeLinearData(60, 2, 0.1, 9);
  (void)gt;
  auto model = LinearRegressionModel::Train(d).ValueOrDie();
  std::string path = ::testing::TempDir() + "/xai_model_test.txt";
  ASSERT_TRUE(SaveModelToFile(SerializeModel(model), path).ok());
  std::string text = LoadModelFile(path).ValueOrDie();
  auto loaded = DeserializeLinearRegression(text).ValueOrDie();
  EXPECT_DOUBLE_EQ(loaded.Predict(d.Row(0)), model.Predict(d.Row(0)));
  EXPECT_FALSE(LoadModelFile("/nonexistent/model.txt").ok());
}

}  // namespace
}  // namespace xai
