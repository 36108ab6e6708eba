// E21 — SIMD math-kernel layer: dispatched dot/axpy/GEMM core.
//
// Pins the two claims DESIGN.md §10 makes for the kernel layer:
//  (1) Performance: the dispatched backend beats the scalar backend by >= 2x
//      on serial GEMM and WLS normal-equation assembly, and the win is
//      visible end-to-end in LIME and KernelSHAP (whose inner loop is a
//      weighted least-squares solve over the perturbation design).
//  (2) Accuracy: results differ from the pre-kernel textbook loops only by
//      summation order — max |delta| on WLS/GEMM outputs vs faithful
//      replicas of the seed implementations stays < 1e-9 — while the scalar
//      and AVX2 backends are BIT-identical to each other (the
//      striped-accumulator contract of core/simd.h).
//
// The "pre" numbers come from in-bench replicas of the seed loops (same
// summation order, same skip-zero guards), so the comparison tracks this
// binary and this compiler, not a stale snapshot.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "xai/core/linalg.h"
#include "xai/core/matrix.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/simd.h"
#include "xai/core/timer.h"
#include "xai/data/synthetic.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/logistic_regression.h"

namespace xai {
namespace {

template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

bool BitIdentical(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.rows() == 0 || a.cols() == 0) return true;
  return std::memcmp(a.RowPtr(0), b.RowPtr(0),
                     static_cast<size_t>(a.rows()) * a.cols() *
                         sizeof(double)) == 0;
}

double MaxAbsDelta(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

double MaxAbsDelta(const Matrix& a, const Matrix& b) {
  double m = 0.0;
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
  return m;
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m(i, j) = rng->Normal();
  return m;
}

// ---------------------------------------------------------------------------
// Replicas of the pre-kernel (seed) implementations, preserved with their
// original summation order and skip-zero guards. These define the accuracy
// baseline the kernels are pinned against.
// ---------------------------------------------------------------------------

Matrix PreMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (int k = 0; k < a.cols(); ++k) {
      double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (int j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix PreWeightedGram(const Matrix& x, const Vector& w) {
  Matrix g(x.cols(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double wi = w[i];
    if (wi == 0.0) continue;
    for (int a = 0; a < x.cols(); ++a) {
      double ra = wi * row[a];
      if (ra == 0.0) continue;
      double* grow = g.RowPtr(a);
      for (int b = a; b < x.cols(); ++b) grow[b] += ra * row[b];
    }
  }
  for (int a = 0; a < x.cols(); ++a)
    for (int b = 0; b < a; ++b) g(a, b) = g(b, a);
  return g;
}

Vector PreTransposeMatVec(const Matrix& x, const Vector& v) {
  Vector out(x.cols(), 0.0);
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    double vi = v[i];
    if (vi == 0.0) continue;
    for (int j = 0; j < x.cols(); ++j) out[j] += row[j] * vi;
  }
  return out;
}

Vector PreCholeskySolve(const Matrix& a, const Vector& b) {
  int n = a.rows();
  Matrix l(n, n);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    l(j, j) = std::sqrt(diag);
    for (int i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (int k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    double v = b[i];
    for (int k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  Vector x(n);
  for (int i = n - 1; i >= 0; --i) {
    double v = y[i];
    for (int k = i + 1; k < n; ++k) v -= l(k, i) * x[k];
    x[i] = v / l(i, i);
  }
  return x;
}

// Seed WeightedRidgeRegression flow on the replica primitives.
Vector PreWls(const Matrix& x, const Vector& y, const Vector& sw, double l2,
              bool fit_intercept) {
  Matrix xx = x;
  if (fit_intercept) {
    xx = Matrix(x.rows(), x.cols() + 1);
    for (int i = 0; i < x.rows(); ++i) {
      for (int j = 0; j < x.cols(); ++j) xx(i, j) = x(i, j);
      xx(i, x.cols()) = 1.0;
    }
  }
  Matrix gram = PreWeightedGram(xx, sw);
  int d = gram.rows();
  int reg_dims = fit_intercept ? d - 1 : d;
  for (int i = 0; i < reg_dims; ++i) gram(i, i) += l2;
  gram.AddScaledIdentity(1e-12);
  Vector wy(y.size());
  for (size_t i = 0; i < y.size(); ++i) wy[i] = sw[i] * y[i];
  Vector rhs = PreTransposeMatVec(xx, wy);
  return PreCholeskySolve(gram, rhs);
}

// ---------------------------------------------------------------------------

struct BackendAb {
  double scalar_sec = 0.0;
  double simd_sec = 0.0;
  bool bit_identical = false;
};

void Run(int argc, char** argv) {
  const bool smoke = bench::SmokeFlag(argc, argv);
  const int threads = bench::ThreadsFlag(argc, argv);
  const int kReps = smoke ? 3 : 7;
  const simd::Backend best = simd::MaxSupported();

  bench::Banner(
      "E21: SIMD math-kernel layer (dot/axpy/GEMM under WLS, Newton, "
      "batch predict)",
      "dispatched kernels give >= 2x serial GEMM / WLS-assembly speedup "
      "with bit-identical results across the scalar and avx2 backends and "
      "< 1e-9 drift vs the pre-kernel loops; the packed/tiled GEMM adds "
      ">= 2x over the direct kernel at 512^3",
      "GEMM 256^3 + packed 512^3; WLS 6000x64; LIME "
      "d=128 n=4000 and KernelSHAP d=64 end-to-end A/B between scalar and "
      "dispatched backends");
  bench::RunReport report(
      "e21",
      "SIMD kernel layer: >=2x serial GEMM/WLS-assembly speedup, "
      "bit-identical across backends, <1e-9 vs pre-kernel loops; packed "
      "GEMM >=2x over direct");
  report.Note("simd_best_backend", simd::BackendName(best));
  report.Note("mode", smoke ? "smoke" : "full");
  report.Metric("threads", threads);

  Rng rng(7);

  // -- GEMM kernel, serial ---------------------------------------------------
  {
    bench::Section("GEMM C = A * B (serial, scalar vs dispatched backend)");
    const int n = smoke ? 96 : 256;
    Matrix a = RandomMatrix(n, n, &rng), b = RandomMatrix(n, n, &rng);

    Matrix pre = PreMatMul(a, b);
    double pre_sec = BestOf(kReps, [&] {
      Matrix c = PreMatMul(a, b);
      (void)c;
    });

    simd::SetBackend(simd::Backend::kScalar);
    Matrix c_scalar = a.MatMul(b);
    double scalar_sec = BestOf(kReps, [&] {
      Matrix c = a.MatMul(b);
      (void)c;
    });
    simd::SetBackend(best);
    Matrix c_simd = a.MatMul(b);
    double simd_sec = BestOf(kReps, [&] {
      Matrix c = a.MatMul(b);
      (void)c;
    });

    bool identical = BitIdentical(c_scalar, c_simd);
    double delta = MaxAbsDelta(c_simd, pre);
    std::printf("n=%d  pre=%.2f ms  scalar=%.2f ms  %s=%.2f ms  "
                "speedup(scalar->%s)=%.2fx  bit-identical=%s  "
                "max|delta| vs pre=%.3g\n",
                n, pre_sec * 1e3, scalar_sec * 1e3, simd::BackendName(best),
                simd_sec * 1e3, simd::BackendName(best),
                scalar_sec / simd_sec, identical ? "yes" : "NO", delta);
    report.Metric("gemm_n", n);
    report.Metric("gemm_pre_ms", pre_sec * 1e3);
    report.Metric("gemm_scalar_ms", scalar_sec * 1e3);
    report.Metric("gemm_simd_ms", simd_sec * 1e3);
    report.Metric("gemm_speedup_serial", scalar_sec / simd_sec);
    report.Metric("gemm_bit_identical_backends", identical ? 1 : 0);
    report.Metric("gemm_max_delta_vs_pre", delta);
  }

  // -- Packed GEMM vs PR5 direct path ---------------------------------------
  {
    bench::Section(
        "packed GEMM vs direct (cache-blocked + register-tiled + threaded)");
    const int n = smoke ? 256 : 512;
    Matrix a = RandomMatrix(n, n, &rng), b = RandomMatrix(n, n, &rng);
    const double flops = 2.0 * n * n * n;

    simd::SetBackend(best);
    SetNumThreads(1);
    Matrix c_direct(n, n), c_packed(n, n);
    simd::GemmDirect(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n,
                     c_direct.RowPtr(0), n);
    simd::GemmPacked(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n,
                     c_packed.RowPtr(0), n);
    bool identical = BitIdentical(c_direct, c_packed);

    double direct_sec = BestOf(kReps, [&] {
      Matrix c(n, n);
      simd::GemmDirect(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n, c.RowPtr(0),
                       n);
    });
    double packed1_sec = BestOf(kReps, [&] {
      Matrix c(n, n);
      simd::GemmPacked(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n, c.RowPtr(0),
                       n);
    });
    SetNumThreads(8);
    double packed8_sec = BestOf(kReps, [&] {
      Matrix c(n, n);
      simd::GemmPacked(n, n, n, a.RowPtr(0), n, b.RowPtr(0), n, c.RowPtr(0),
                       n);
    });
    SetNumThreads(threads);

    std::printf("n=%d  direct=%.2f ms  packed(t1)=%.2f ms  "
                "packed(t8)=%.2f ms  speedup(t1)=%.2fx  speedup(t8)=%.2fx  "
                "%.2f GFLOP/s(t8)  bit-identical=%s\n",
                n, direct_sec * 1e3, packed1_sec * 1e3, packed8_sec * 1e3,
                direct_sec / packed1_sec, direct_sec / packed8_sec,
                flops / packed8_sec * 1e-9, identical ? "yes" : "NO");
    report.Metric("gemm_packed_n", n);
    report.Metric("gemm_direct_ms", direct_sec * 1e3);
    report.Metric("gemm_packed_t1_ms", packed1_sec * 1e3);
    report.Metric("gemm_packed_t8_ms", packed8_sec * 1e3);
    report.Metric("gemm_packed_speedup_vs_direct_serial",
                  direct_sec / packed1_sec);
    report.Metric("gemm_packed_speedup_vs_direct",
                  direct_sec / packed8_sec);
    report.Metric("gemm_packed_gflops", flops / packed8_sec * 1e-9);
    report.Metric("gemm_packed_bit_identical", identical ? 1 : 0);
  }

  // -- WLS assembly + solve --------------------------------------------------
  {
    bench::Section("WLS (X^T diag(s) X assembly + Cholesky solve)");
    const int rows = smoke ? 1200 : 6000;
    const int d = smoke ? 24 : 64;
    Matrix x = RandomMatrix(rows, d, &rng);
    Vector y(rows), w(rows);
    for (int i = 0; i < rows; ++i) {
      y[i] = rng.Normal();
      w[i] = rng.Uniform(0.05, 2.0);
    }

    Vector pre = PreWls(x, y, w, 0.01, true);
    double pre_sec = BestOf(kReps, [&] {
      Vector c = PreWls(x, y, w, 0.01, true);
      (void)c;
    });

    simd::SetBackend(simd::Backend::kScalar);
    Vector c_scalar =
        WeightedRidgeRegression(x, y, w, 0.01, true).ValueOrDie();
    double scalar_sec = BestOf(kReps, [&] {
      auto c = WeightedRidgeRegression(x, y, w, 0.01, true);
      (void)c;
    });
    double asm_scalar_sec = BestOf(kReps, [&] {
      Matrix g = x.WeightedGram(w);
      (void)g;
    });
    simd::SetBackend(best);
    Vector c_simd = WeightedRidgeRegression(x, y, w, 0.01, true).ValueOrDie();
    double simd_sec = BestOf(kReps, [&] {
      auto c = WeightedRidgeRegression(x, y, w, 0.01, true);
      (void)c;
    });
    double asm_simd_sec = BestOf(kReps, [&] {
      Matrix g = x.WeightedGram(w);
      (void)g;
    });

    bool identical = BitIdentical(c_scalar, c_simd);
    double delta = MaxAbsDelta(c_simd, pre);
    std::printf("rows=%d d=%d  pre=%.2f ms  scalar=%.2f ms  %s=%.2f ms  "
                "solve speedup=%.2fx  assembly speedup=%.2fx  "
                "bit-identical=%s  max|coef delta| vs pre=%.3g\n",
                rows, d, pre_sec * 1e3, scalar_sec * 1e3,
                simd::BackendName(best), simd_sec * 1e3,
                scalar_sec / simd_sec, asm_scalar_sec / asm_simd_sec,
                identical ? "yes" : "NO", delta);
    report.Metric("wls_rows", rows);
    report.Metric("wls_dim", d);
    report.Metric("wls_pre_ms", pre_sec * 1e3);
    report.Metric("wls_scalar_ms", scalar_sec * 1e3);
    report.Metric("wls_simd_ms", simd_sec * 1e3);
    report.Metric("wls_speedup_serial", scalar_sec / simd_sec);
    report.Metric("wls_assembly_speedup_serial",
                  asm_scalar_sec / asm_simd_sec);
    report.Metric("wls_bit_identical_backends", identical ? 1 : 0);
    report.Metric("wls_max_coef_delta_vs_pre", delta);
  }

  // -- Dot / Axpy throughput -------------------------------------------------
  {
    bench::Section("dot/axpy throughput (serial)");
    const size_t n = 1 << 14;
    const int inner = smoke ? 200 : 2000;
    Vector a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal();
      b[i] = rng.Normal();
    }
    double sink = 0.0;
    auto time_backend = [&](simd::Backend be, double* dot_gf,
                            double* axpy_gf) {
      simd::SetBackend(be);
      double dot_sec = BestOf(kReps, [&] {
        for (int r = 0; r < inner; ++r)
          sink += simd::Dot(a.data(), b.data(), n);
      });
      Vector y = b;
      double axpy_sec = BestOf(kReps, [&] {
        for (int r = 0; r < inner; ++r)
          simd::Axpy(1e-9, a.data(), y.data(), n);
      });
      sink += y[0];
      *dot_gf = 2.0 * n * inner / dot_sec * 1e-9;
      *axpy_gf = 2.0 * n * inner / axpy_sec * 1e-9;
    };
    double dot_scalar, axpy_scalar, dot_simd, axpy_simd;
    time_backend(simd::Backend::kScalar, &dot_scalar, &axpy_scalar);
    time_backend(best, &dot_simd, &axpy_simd);
    std::printf("dot : scalar %.2f GFLOP/s, %s %.2f GFLOP/s (%.2fx)\n",
                dot_scalar, simd::BackendName(best), dot_simd,
                dot_simd / dot_scalar);
    std::printf("axpy: scalar %.2f GFLOP/s, %s %.2f GFLOP/s (%.2fx) "
                "[sink %.1f]\n",
                axpy_scalar, simd::BackendName(best), axpy_simd,
                axpy_simd / axpy_scalar, sink);
    report.Metric("dot_scalar_gflops", dot_scalar);
    report.Metric("dot_simd_gflops", dot_simd);
    report.Metric("dot_speedup", dot_simd / dot_scalar);
    report.Metric("axpy_scalar_gflops", axpy_scalar);
    report.Metric("axpy_simd_gflops", axpy_simd);
    report.Metric("axpy_speedup", axpy_simd / axpy_scalar);
  }

  // -- End-to-end: LIME ------------------------------------------------------
  {
    bench::Section("end-to-end LIME (scalar vs dispatched backend)");
    // Wide tabular instance (d=128): the WLS solve over the perturbation
    // design is a real fraction of the explanation, as in feature-store
    // serving, so the kernel win is visible end-to-end.
    auto [train, gt] = MakeLogisticData(smoke ? 200 : 600, 128, 3);
    (void)gt;
    auto model = LogisticRegressionModel::Train(train).ValueOrDie();
    PredictFn f = AsPredictFn(model);
    LimeConfig config;
    config.num_samples = smoke ? 800 : 4000;
    LimeExplainer lime(train, config);

    SetNumThreads(1);
    simd::SetBackend(simd::Backend::kScalar);
    LimeExplanation e_scalar =
        lime.Explain(f, train.Row(0), 1).ValueOrDie();
    double scalar_sec = BestOf(kReps, [&] {
      auto e = lime.Explain(f, train.Row(0), 1);
      (void)e;
    });
    simd::SetBackend(best);
    LimeExplanation e_simd = lime.Explain(f, train.Row(0), 1).ValueOrDie();
    double simd_sec = BestOf(kReps, [&] {
      auto e = lime.Explain(f, train.Row(0), 1);
      (void)e;
    });
    SetNumThreads(threads);

    bool identical = BitIdentical(e_scalar.attributions, e_simd.attributions);
    std::printf("scalar=%.2f ms  %s=%.2f ms  speedup=%.2fx  "
                "attributions bit-identical=%s\n",
                scalar_sec * 1e3, simd::BackendName(best), simd_sec * 1e3,
                scalar_sec / simd_sec, identical ? "yes" : "NO");
    report.Metric("lime_scalar_ms", scalar_sec * 1e3);
    report.Metric("lime_simd_ms", simd_sec * 1e3);
    report.Metric("lime_speedup_e2e", scalar_sec / simd_sec);
    report.Metric("lime_bit_identical_backends", identical ? 1 : 0);
    double checksum = 0.0;
    for (double v : e_simd.attributions) checksum += v;
    report.Metric("lime_attribution_checksum", checksum);
  }

  // -- End-to-end: KernelSHAP ------------------------------------------------
  {
    bench::Section("end-to-end KernelSHAP (scalar vs dispatched backend)");
    auto [data, gt] = MakeLogisticData(smoke ? 200 : 400, 64, 3);
    (void)gt;
    auto model = LogisticRegressionModel::Train(data).ValueOrDie();
    Vector instance = data.Row(11);
    KernelShapConfig config;
    config.coalition_budget = smoke ? 600 : 4000;

    SetNumThreads(1);
    auto run_once = [&] {
      MarginalFeatureGame game(AsPredictFn(model), instance, data.x(),
                               /*background_rows=*/16);
      Rng r(99);
      return KernelShap(game, config, &r).ValueOrDie();
    };
    simd::SetBackend(simd::Backend::kScalar);
    AttributionExplanation ks_scalar = run_once();
    double scalar_sec = BestOf(kReps, [&] {
      auto e = run_once();
      (void)e;
    });
    simd::SetBackend(best);
    AttributionExplanation ks_simd = run_once();
    double simd_sec = BestOf(kReps, [&] {
      auto e = run_once();
      (void)e;
    });
    SetNumThreads(threads);

    bool identical =
        BitIdentical(ks_scalar.attributions, ks_simd.attributions);
    std::printf("scalar=%.2f ms  %s=%.2f ms  speedup=%.2fx  "
                "attributions bit-identical=%s\n",
                scalar_sec * 1e3, simd::BackendName(best), simd_sec * 1e3,
                scalar_sec / simd_sec, identical ? "yes" : "NO");
    report.Metric("kernelshap_scalar_ms", scalar_sec * 1e3);
    report.Metric("kernelshap_simd_ms", simd_sec * 1e3);
    report.Metric("kernelshap_speedup_e2e", scalar_sec / simd_sec);
    report.Metric("kernelshap_bit_identical_backends", identical ? 1 : 0);
    double checksum = 0.0;
    for (double v : ks_simd.attributions) checksum += v;
    report.Metric("kernelshap_attribution_checksum", checksum);
  }

  simd::SetBackend(best);
  report.Write();
  bench::Footer();
}

}  // namespace
}  // namespace xai

int main(int argc, char** argv) {
  xai::SetNumThreads(xai::bench::ThreadsFlag(argc, argv));
  xai::Run(argc, argv);
  return 0;
}
