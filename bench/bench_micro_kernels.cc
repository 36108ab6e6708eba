// Microbenchmarks of the computational kernels (google-benchmark):
// Cholesky solve, TreeSHAP per instance, FP-Growth per database, tuple
// Shapley per endogenous tuple, LIME per explanation, and the columnar
// relational operators beside the row reference engine's.

#include <benchmark/benchmark.h>

#include "support/relational_reference.h"
#include "xai/core/matrix.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/simd.h"
#include "xai/data/synthetic.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/flat_tree_shap.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/model/gbdt.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/rules/fpgrowth.h"

namespace xai {
namespace {

// range(0) is the problem size, range(1) selects the simd backend
// (0 = scalar, 1 = dispatched best). The pairs of rows quantify what the
// kernel layer buys at each size; results are bit-identical by contract.
simd::Backend BenchBackend(int64_t selector) {
  return selector == 0 ? simd::Backend::kScalar : simd::MaxSupported();
}

void BM_DotKernel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  simd::Backend prev = simd::SetBackend(BenchBackend(state.range(1)));
  Rng rng(1);
  Vector a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
  }
  for (auto _ : state) {
    double d = simd::Dot(a.data(), b.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * n);
  simd::SetBackend(prev);
}
BENCHMARK(BM_DotKernel)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

void BM_AxpyKernel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  simd::Backend prev = simd::SetBackend(BenchBackend(state.range(1)));
  Rng rng(1);
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  for (auto _ : state) {
    simd::Axpy(1e-9, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  simd::SetBackend(prev);
}
BENCHMARK(BM_AxpyKernel)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

void BM_GemmKernel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  simd::Backend prev = simd::SetBackend(BenchBackend(state.range(1)));
  Rng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.Normal();
      b(i, j) = rng.Normal();
    }
  for (auto _ : state) {
    simd::Gemm(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n, c.RowPtr(0), n);
    benchmark::DoNotOptimize(c.RowPtr(0));
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<int64_t>(n) *
                          n * n);
  simd::SetBackend(prev);
}
BENCHMARK(BM_GemmKernel)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({192, 0})
    ->Args({192, 1});

// Packed GEMM flop-rate sweep: range(0) = n (C += A*B at n^3), range(1) =
// the Backend enum value (0 scalar, 2 avx2 — skipped when the host lacks
// it), range(2) = thread count.
// items_per_second == FLOP/s (2 n^3 per iteration).
void BM_GemmPackedFlopRate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto want = static_cast<simd::Backend>(state.range(1));
  simd::Backend prev = simd::Active();
  if (simd::SetBackend(want) != want) {
    simd::SetBackend(prev);
    state.SkipWithError("backend not supported on this host");
    return;
  }
  int prev_threads = GetNumThreads();
  SetNumThreads(static_cast<int>(state.range(2)));
  Rng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.Normal();
      b(i, j) = rng.Normal();
    }
  for (auto _ : state) {
    simd::GemmPacked(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n, c.RowPtr(0),
                     n);
    benchmark::DoNotOptimize(c.RowPtr(0));
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<int64_t>(n) *
                          n * n);
  SetNumThreads(prev_threads);
  simd::SetBackend(prev);
}
void GemmPackedSweepArgs(benchmark::internal::Benchmark* bench) {
  for (int size : {64, 128, 256, 512, 1024})
    for (int backend : {0, 2})
      for (int threads : {1, 4, 8}) bench->Args({size, backend, threads});
}
BENCHMARK(BM_GemmPackedFlopRate)->Apply(GemmPackedSweepArgs);

void BM_CholeskySolve(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix x(2 * n, n);
  for (int i = 0; i < 2 * n; ++i)
    for (int j = 0; j < n; ++j) x(i, j) = rng.Normal();
  Matrix a = x.Gram();
  a.AddScaledIdentity(1.0);
  Vector b(n);
  for (int j = 0; j < n; ++j) b[j] = rng.Normal();
  for (auto _ : state) {
    auto sol = CholeskySolve(a, b);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(8)->Arg(32)->Arg(128);

void BM_TreeShapPerInstance(benchmark::State& state) {
  int n_trees = static_cast<int>(state.range(0));
  Dataset train = MakeLoans(1000, 2);
  GbdtModel::Config config;
  config.n_trees = n_trees;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  int row = 0;
  for (auto _ : state) {
    auto exp = TreeShap(view, train.Row(row));
    benchmark::DoNotOptimize(exp);
    row = (row + 1) % train.num_rows();
  }
}
BENCHMARK(BM_TreeShapPerInstance)->Arg(10)->Arg(100);

void BM_TreeShapFlat(benchmark::State& state) {
  // Same workload through the flat iterative kernel (flat_tree_shap.h) on
  // a prebuilt FlatTreeShap, the serving configuration: SoA nodes + cover
  // side-table, register-resident hot-path chase, zero steady-state heap
  // allocation.
  int n_trees = static_cast<int>(state.range(0));
  Dataset train = MakeLoans(1000, 2);
  GbdtModel::Config config;
  config.n_trees = n_trees;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  FlatTreeShap kernel = FlatTreeShap::Build(view);
  int row = 0;
  for (auto _ : state) {
    auto exp = kernel.Shap(train.Row(row));
    benchmark::DoNotOptimize(exp);
    row = (row + 1) % train.num_rows();
  }
}
BENCHMARK(BM_TreeShapFlat)->Arg(10)->Arg(100);

void BM_EnsembleMarginScalar(benchmark::State& state) {
  // Single-row latency of the AoS pointer-walking path: per tree this pays
  // a 48-byte TreeNode chase; the view's Margin hoists the scales/trees
  // array bases but still walks the original node layout.
  int n_trees = static_cast<int>(state.range(0));
  Dataset train = MakeLoans(1000, 5);
  GbdtModel::Config config;
  config.n_trees = n_trees;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  int row = 0;
  for (auto _ : state) {
    double margin = view.Margin(train.Row(row));
    benchmark::DoNotOptimize(margin);
    row = (row + 1) % train.num_rows();
  }
}
BENCHMARK(BM_EnsembleMarginScalar)->Arg(10)->Arg(100);

void BM_EnsembleMarginFlat(benchmark::State& state) {
  // Same workload through the compiled SoA kernel (flat_ensemble.h):
  // branch-reduced stepping over 16-byte effective nodes.
  int n_trees = static_cast<int>(state.range(0));
  Dataset train = MakeLoans(1000, 5);
  GbdtModel::Config config;
  config.n_trees = n_trees;
  auto model = GbdtModel::Train(train, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  auto flat = view.flat();
  int row = 0;
  for (auto _ : state) {
    double margin = flat->MarginRow(train.x().RowPtr(row));
    benchmark::DoNotOptimize(margin);
    row = (row + 1) % train.num_rows();
  }
}
BENCHMARK(BM_EnsembleMarginFlat)->Arg(10)->Arg(100);

void BM_FpGrowth(benchmark::State& state) {
  auto db = MakeTransactions(1000, 80, 8, 6, 3, 3);
  int min_support = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = FpGrowth(db, min_support);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FpGrowth)->Arg(50)->Arg(10);

void BM_TupleShapleyExact(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  // Lineage = OR of AND pairs over n endogenous tuples.
  rel::ProvExprPtr lineage = rel::ProvExpr::Zero();
  std::vector<int> endo;
  for (int i = 0; i + 1 < n; i += 2) {
    lineage = rel::ProvExpr::Plus(
        lineage, rel::ProvExpr::Times(rel::ProvExpr::Base(i),
                                      rel::ProvExpr::Base(i + 1)));
  }
  for (int i = 0; i < n; ++i) endo.push_back(i);
  for (auto _ : state) {
    auto result = BooleanQueryTupleShapley(lineage, endo);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TupleShapleyExact)->Arg(10)->Arg(16);

// Row reference engine vs columnar engine on the same relational operator
// — the tuple-at-a-time interpreter against batch-of-1024 kernels. Outputs
// are bit-identical by contract (bench_e25 checks that; these rows
// quantify the per-operator throughput gap).
rel::Relation MicroFact(int rows) {
  Rng rng(13);
  rel::Relation fact("fact", {"k", "v"});
  for (int i = 0; i < rows; ++i) {
    (void)fact.AppendBase({rel::Value::Int(rng.UniformInt(64)),
                           rel::Value::Double(rng.Uniform(-1.0, 1.0))},
                          i);
  }
  return fact;
}

rel::ExprPtr MicroPred() {
  return rel::Expr::Gt(rel::Expr::Column(1),
                       rel::Expr::Const(rel::Value::Double(0.0)));
}

void BM_SelectRowEngine(benchmark::State& state) {
  rel::Relation fact = MicroFact(static_cast<int>(state.range(0)));
  rel::ExprPtr pred = MicroPred();
  for (auto _ : state) {
    auto out = rel::reference::Select(fact, pred).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectRowEngine)->Arg(4096)->Arg(65536);

void BM_SelectColumnar(benchmark::State& state) {
  SetNumThreads(1);
  rel::Relation fact = MicroFact(static_cast<int>(state.range(0)));
  rel::ColumnarRelation cfact =
      rel::ColumnarRelation::FromRows(fact).ValueOrDie();
  rel::ExprPtr pred = MicroPred();
  for (auto _ : state) {
    auto out = rel::Select(cfact, pred).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectColumnar)->Arg(4096)->Arg(65536);

void BM_GroupByRowEngine(benchmark::State& state) {
  rel::Relation fact = MicroFact(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto out =
        rel::reference::GroupByAggregate(fact, {0}, rel::AggFn::kSum, 1, "s")
            .ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByRowEngine)->Arg(4096)->Arg(65536);

void BM_GroupByColumnar(benchmark::State& state) {
  SetNumThreads(1);
  rel::Relation fact = MicroFact(static_cast<int>(state.range(0)));
  rel::ColumnarRelation cfact =
      rel::ColumnarRelation::FromRows(fact).ValueOrDie();
  for (auto _ : state) {
    auto out =
        rel::GroupByAggregate(cfact, {0}, rel::AggFn::kSum, 1, "s")
            .ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByColumnar)->Arg(4096)->Arg(65536);

void BM_LimeExplain(benchmark::State& state) {
  int n_samples = static_cast<int>(state.range(0));
  Dataset train = MakeLoans(800, 4);
  GbdtModel::Config mc;
  mc.n_trees = 30;
  auto model = GbdtModel::Train(train, mc).ValueOrDie();
  PredictFn f = AsPredictFn(model);
  LimeConfig config;
  config.num_samples = n_samples;
  LimeExplainer lime(train, config);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto exp = lime.Explain(f, train.Row(0), seed++);
    benchmark::DoNotOptimize(exp);
  }
}
BENCHMARK(BM_LimeExplain)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace xai
