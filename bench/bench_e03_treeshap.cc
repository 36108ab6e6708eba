// E3 — TreeSHAP: polynomial-time exact Shapley values for trees (§2.1.2).
//
// Paper claim: "TreeSHAP introduces a polynomial-time algorithm to
// approximate Shapley values for tree-based complex models. It exploits
// properties of the tree structure for faster and efficient computation."
// (For the path-conditional game the algorithm is in fact *exact*.)
// Expected shape: TreeSHAP per-instance time grows linearly in the number
// of trees and stays microseconds-scale, while exact enumeration over the
// same game grows exponentially in d; the two agree to float precision.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "support/explain_reference.h"
#include "xai/core/combinatorics.h"
#include "xai/core/timer.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/gbdt.h"

namespace xai {
namespace {

void Run() {
  bench::Banner(
      "E3: TreeSHAP vs enumeration vs KernelSHAP",
      "\"TreeSHAP introduces a polynomial-time algorithm ... exploits "
      "properties of the tree structure\" (S2.1.2)",
      "GBDT on loans (d=8); per-instance explanation cost and exactness");

  Dataset train = MakeLoans(2000, 1);

  bench::Section("per-instance time vs ensemble size (20 instances)");
  std::printf("%8s %8s %18s %20s\n", "trees", "depth", "treeshap_us/inst",
              "margin_check");
  for (int n_trees : {10, 50, 150, 400}) {
    GbdtModel::Config config;
    config.n_trees = n_trees;
    config.max_depth = 4;
    auto model = GbdtModel::Train(train, config).ValueOrDie();
    TreeEnsembleView view = TreeEnsembleView::Of(model);
    WallTimer timer;
    double max_gap = 0;
    for (int i = 0; i < 20; ++i) {
      auto exp = TreeShap(view, train.Row(i));
      max_gap = std::max(max_gap, std::fabs(exp.AttributionSum() -
                                            model.Margin(train.Row(i))));
    }
    std::printf("%8d %8d %18.1f %20.2e\n", n_trees, 4,
                timer.Micros() / 20.0, max_gap);
  }

  bench::Section(
      "TreeSHAP vs brute-force enumeration of the same game (1 tree)");
  std::printf("%4s %18s %18s %14s\n", "d", "treeshap_us", "bruteforce_us",
              "max_diff");
  for (int dd : {6, 8, 10, 12, 14, 16}) {
    auto [data, gt] = MakeLogisticData(400, dd, 20 + dd);
    (void)gt;
    GbdtModel::Config config;
    config.n_trees = 1;
    config.max_depth = 6;
    config.min_samples_leaf = 2;
    auto model = GbdtModel::Train(data, config).ValueOrDie();
    const Tree& tree = model.trees()[0];
    TreeEnsembleView view;
    view.trees.push_back(&tree);
    view.scales.push_back(1.0);
    Vector x = data.Row(0);
    // The first call builds the flat kernel, its side-table and this
    // thread's path arena; time the second.
    TreeShap(view, x);

    WallTimer fast_timer;
    Vector fast = TreeShap(view, x).attributions;
    double fast_us = fast_timer.Micros();

    WallTimer slow_timer;
    std::vector<double> slow = ShapleyOfSetFunction(dd, [&](uint64_t mask) {
      return reference::TreeConditionalExpectation(tree, x, mask);
    });
    double slow_us = slow_timer.Micros();

    double diff = 0;
    for (int j = 0; j < dd; ++j)
      diff = std::max(diff, std::fabs(fast[j] - slow[j]));
    std::printf("%4d %18.1f %18.1f %14.2e\n", dd, fast_us, slow_us, diff);
  }

  bench::Section("TreeSHAP vs model-agnostic KernelSHAP on the GBDT (d=8)");
  GbdtModel::Config config;
  config.n_trees = 100;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  PredictFn margin_fn = [&model](const Vector& row) {
    return model.Margin(row);
  };
  std::printf("%22s %16s %14s\n", "method", "us/instance", "model_evals");
  {
    WallTimer timer;
    for (int i = 0; i < 10; ++i) TreeShap(view, train.Row(i));
    std::printf("%22s %16.1f %14s\n", "TreeSHAP", timer.Micros() / 10.0,
                "0");
  }
  {
    WallTimer timer;
    int evals = 0;
    for (int i = 0; i < 10; ++i) {
      MarginalFeatureGame game(margin_fn, train.Row(i), train.x(), 24);
      Rng rng(31 + i);
      KernelShapConfig ks_config;
      ks_config.coalition_budget = 254;  // All coalitions at d=8: exact.
      KernelShap(game, ks_config, &rng).ValueOrDie();
      evals += game.num_evaluations();
    }
    std::printf("%22s %16.1f %14d\n", "KernelSHAP(exact)",
                timer.Micros() / 10.0, evals / 10);
  }
  std::printf(
      "\nShape check: treeshap_us linear in trees; brute force explodes "
      "with d while TreeSHAP stays flat; max_diff ~ 1e-12.\n");
  bench::Footer();
}

}  // namespace
}  // namespace xai

int main() { xai::Run(); }
