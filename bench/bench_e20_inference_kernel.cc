// E20 — Flattened tree-ensemble inference kernel: SoA node layout, blocked
// batch traversal, zero-virtual dispatch under perturbation explainers.
//
// Systems claim (§3 of the paper: explanation workloads are data-management
// workloads): every perturbation-based explainer bottlenecks on batch model
// inference, so the ensemble traversal deserves a compiled kernel — one
// contiguous SoA block, rows x trees tiling for cache residency, and
// branch-reduced stepping — instead of a virtual call into 48-byte AoS
// nodes per perturbed row.
// Expected shape: the flat kernel wins >= 3x on batch inference over the
// scalar AoS walk at equal thread counts, stays bit-identical to it at 1/4/8
// threads, and the win carries through to end-to-end KernelSHAP and LIME
// wall-clock.
//
// Emits BENCH_e20.json (+ Chrome trace) via bench::RunReport; `--smoke`
// shrinks the workload for CI.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "bench_util.h"
#include "xai/core/timer.h"
#include "xai/data/synthetic.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/random_forest.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {
namespace {

// The pre-kernel batch path, replicated as the baseline: a serial loop that
// walks the original AoS TreeNode arrays through the ensemble-view
// indirections per row. Per-model post-ops mirror RandomForestModel::Predict
// (sum then divide) and GbdtModel::Predict (base + sum, sigmoid).
Vector ScalarForestBatch(const RandomForestModel& model, const Matrix& x) {
  Vector out(x.rows());
  const auto& trees = model.trees();
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double acc = 0.0;
    for (size_t t = 0; t < trees.size(); ++t) acc += trees[t].PredictRow(row);
    out[i] = trees.empty() ? 0.0 : acc / trees.size();
  }
  return out;
}

Vector ScalarGbdtBatch(const GbdtModel& model, const Matrix& x) {
  Vector out(x.rows());
  const auto& trees = model.trees();
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double acc = model.base_score();
    for (size_t t = 0; t < trees.size(); ++t) acc += trees[t].PredictRow(row);
    out[i] = model.task() == TaskType::kClassification ? Sigmoid(acc) : acc;
  }
  return out;
}

// Best-of-k wall time of `fn` (first call also serves as warm-up).
template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    WallTimer timer;
    fn();
    if (i > 0) best = std::min(best, timer.Seconds());
  }
  return best;
}

// E02-shaped perturbation batch: background rows with coalition-masked
// features overwritten by the instance, exactly the row stream a marginal
// SHAP game pushes through the model.
Matrix PerturbationBatch(const Matrix& background, const Vector& instance,
                         int rows, uint64_t seed) {
  Rng rng(seed);
  const int d = background.cols();
  Matrix batch(rows, d);
  for (int i = 0; i < rows; ++i) {
    const double* bg = background.RowPtr(i % background.rows());
    double* out = batch.RowPtr(i);
    const uint64_t mask = rng.NextU64();
    for (int j = 0; j < d; ++j)
      out[j] = (mask >> (j % 64)) & 1 ? instance[j] : bg[j];
  }
  return batch;
}

void RunBatchKernel(int threads, bool smoke, bench::RunReport* report) {
  bench::Section("batch inference: scalar AoS walk vs flat SoA kernel");
  const int kTrees = smoke ? 100 : 200;
  const int kRows = smoke ? 8000 : 40000;
  const int kReps = smoke ? 3 : 5;

  Dataset train = MakeLoans(1500, 20);
  RandomForestConfig rf_config;
  rf_config.n_trees = kTrees;
  auto rf = RandomForestModel::Train(train, rf_config).ValueOrDie();
  GbdtConfig gb_config;
  gb_config.n_trees = kTrees;
  gb_config.max_depth = 6;
  auto gb = GbdtModel::Train(train, gb_config).ValueOrDie();
  Matrix batch = PerturbationBatch(train.x(), train.Row(0), kRows, 7);

  std::printf("%8s %10s %12s %12s %9s %6s\n", "model", "layout", "threads",
              "time_ms", "Mrows/s", "biteq");
  struct Case {
    const char* name;
    std::function<Vector()> scalar;
    std::function<Vector()> flat;
  };
  const Case cases[] = {
      {"rf", [&] { return ScalarForestBatch(rf, batch); },
       [&] { return rf.PredictBatch(batch); }},
      {"gbdt", [&] { return ScalarGbdtBatch(gb, batch); },
       [&] { return gb.PredictBatch(batch); }},
  };
  for (const Case& c : cases) {
    SetNumThreads(1);
    Vector scalar_out;
    const double scalar_sec = BestOf(kReps, [&] { scalar_out = c.scalar(); });
    // Flat kernel, serial: isolates the layout + tiling win from the
    // ParallelFor win (which PR 1 already banked).
    Vector flat_serial;
    const double flat1_sec = BestOf(kReps, [&] { flat_serial = c.flat(); });
    const bool identical_serial = flat_serial == scalar_out;
    std::printf("%8s %10s %12d %12.2f %9.1f %6s\n", c.name, "scalar-AoS", 1,
                scalar_sec * 1e3, kRows / scalar_sec * 1e-6, "ref");
    std::printf("%8s %10s %12d %12.2f %9.1f %6s\n", c.name, "flat-SoA", 1,
                flat1_sec * 1e3, kRows / flat1_sec * 1e-6,
                identical_serial ? "yes" : "NO");
    const double kernel_speedup = flat1_sec > 0 ? scalar_sec / flat1_sec : 0;
    report->Metric(std::string(c.name) + "_flat_speedup_serial",
                   kernel_speedup);

    bool identical_all_threads = identical_serial;
    double flat_thr_sec = flat1_sec;
    for (int t : {4, 8}) {
      SetNumThreads(t);
      Vector flat_out;
      flat_thr_sec = BestOf(kReps, [&] { flat_out = c.flat(); });
      const bool identical = flat_out == scalar_out;
      identical_all_threads = identical_all_threads && identical;
      std::printf("%8s %10s %12d %12.2f %9.1f %6s\n", c.name, "flat-SoA", t,
                  flat_thr_sec * 1e3, kRows / flat_thr_sec * 1e-6,
                  identical ? "yes" : "NO");
      report->Metric(std::string(c.name) + "_flat_bit_identical_t" +
                         std::to_string(t),
                     identical ? 1.0 : 0.0);
    }
    report->Metric(std::string(c.name) + "_flat_bit_identical_t1",
                   identical_serial ? 1.0 : 0.0);
    report->Metric(std::string(c.name) + "_flat_speedup_vs_scalar_threaded",
                   flat_thr_sec > 0 ? scalar_sec / flat_thr_sec : 0.0);
    std::printf("%8s serial kernel speedup %.2fx, bit-identical at "
                "1/4/8 threads: %s\n",
                c.name, kernel_speedup,
                identical_all_threads ? "yes" : "NO");
  }
  SetNumThreads(threads);
}

void RunEndToEnd(int threads, bool smoke, bench::RunReport* report) {
  bench::Section("end-to-end explainers: scalar black box vs flat kernel");
  Dataset train = MakeLoans(smoke ? 400 : 800, 21);
  GbdtConfig config;
  config.n_trees = smoke ? 60 : 150;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  Vector instance = train.Row(3);
  const int kReps = smoke ? 3 : 5;

  // The pre-kernel black box: virtual dispatch + AoS walk per row, no
  // batching inside the game.
  PredictFn scalar_fn = [&model](const Vector& row) {
    return model.Predict(row);
  };

  {
    KernelShapConfig ks_config;
    ks_config.coalition_budget = smoke ? 512 : 2048;
    Vector scalar_phi, flat_phi;
    const double scalar_sec = BestOf(kReps, [&] {
      MarginalFeatureGame game(scalar_fn, instance, train.x(), 64);
      Rng rng(11);
      scalar_phi = KernelShap(game, ks_config, &rng).ValueOrDie().attributions;
    });
    const double flat_sec = BestOf(kReps, [&] {
      // Model-aware game: the flat kernel's coalition scorer values each
      // block of coalitions from precomputed split decisions.
      MarginalFeatureGame game(model, instance, train.x(), 64);
      Rng rng(11);
      flat_phi = KernelShap(game, ks_config, &rng).ValueOrDie().attributions;
    });
    bench::Speedup("KernelSHAP e2e", scalar_sec, flat_sec, threads,
                   scalar_phi == flat_phi);
    report->Metric("kernel_shap_e2e_speedup",
                   flat_sec > 0 ? scalar_sec / flat_sec : 0.0);
    report->Metric("kernel_shap_identical",
                   scalar_phi == flat_phi ? 1.0 : 0.0);
  }
  {
    LimeConfig lime_config;
    lime_config.num_samples = smoke ? 1000 : 4000;
    LimeExplainer lime(train, lime_config);
    PredictFn flat_fn = AsPredictFn(model);  // Flat-kernel fast path.
    Vector scalar_w, flat_w;
    const double scalar_sec = BestOf(kReps, [&] {
      scalar_w = lime.Explain(scalar_fn, instance, 5).ValueOrDie().attributions;
    });
    const double flat_sec = BestOf(kReps, [&] {
      flat_w = lime.Explain(flat_fn, instance, 5).ValueOrDie().attributions;
    });
    bench::Speedup("LIME e2e", scalar_sec, flat_sec, threads,
                   scalar_w == flat_w);
    report->Metric("lime_e2e_speedup",
                   flat_sec > 0 ? scalar_sec / flat_sec : 0.0);
    report->Metric("lime_identical", scalar_w == flat_w ? 1.0 : 0.0);
  }
}

// Telemetry cost on the kernel hot loop (counter bump per batch + per-row
// counters on the scalar fast path): runtime toggle, interleaved reps.
void RunTelemetryOverhead(bool smoke, bench::RunReport* report) {
  bench::Section("telemetry overhead on the flat batch hot loop");
  Dataset train = MakeLoans(1000, 22);
  GbdtConfig config;
  config.n_trees = smoke ? 60 : 150;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  Matrix batch = PerturbationBatch(train.x(), train.Row(0),
                                   smoke ? 4000 : 20000, 9);
  const int kReps = smoke ? 8 : 15;
  auto time_once = [&] {
    WallTimer timer;
    Vector out = model.PredictBatch(batch);
    (void)out;
    return timer.Seconds();
  };
  time_once();  // Warm-up (kernel build, pool spin-up).
  double on_sec = 1e300, off_sec = 1e300;
  for (int i = 0; i < kReps; ++i) {
    telemetry::SetEnabled(true);
    on_sec = std::min(on_sec, time_once());
    telemetry::SetEnabled(false);
    off_sec = std::min(off_sec, time_once());
  }
  telemetry::SetEnabled(true);
  double overhead_pct =
      off_sec > 0 ? (on_sec - off_sec) / off_sec * 100.0 : 0.0;
  std::printf("hot loop: enabled %.3f ms, disabled %.3f ms, overhead "
              "%+.2f%% (budget < 2%%)\n",
              on_sec * 1e3, off_sec * 1e3, overhead_pct);
  report->Metric("telemetry_overhead_pct", overhead_pct);
}

void Run(int threads, bool smoke) {
  const char* claim =
      "perturbation explainers are batch-inference workloads; a compiled "
      "SoA tree kernel beats the pointer-walking path without changing a "
      "single output bit (S3)";
  bench::Banner("E20: flattened tree-ensemble inference kernel", claim,
                "loans RF/GBDT; E02-shaped perturbation batches; KernelSHAP "
                "and LIME end to end");
  bench::RunReport report("e20", claim);
  telemetry::Registry::Global().Reset();

  RunBatchKernel(threads, smoke, &report);
  RunEndToEnd(threads, smoke, &report);
  RunTelemetryOverhead(smoke, &report);

  std::printf("\nShape check: flat kernel >= 3x over scalar batch at equal "
              "threads; all paths bit-identical; explainer wall-clock "
              "improves end to end.\n");
  report.Note("smoke", smoke ? "true" : "false");
  report.Write();
  bench::Footer();
}

}  // namespace
}  // namespace xai

int main(int argc, char** argv) {
  int threads = xai::bench::ThreadsFlag(argc, argv);
  bool smoke = xai::bench::SmokeFlag(argc, argv);
  xai::SetNumThreads(threads);
  xai::Run(threads, smoke);
}
