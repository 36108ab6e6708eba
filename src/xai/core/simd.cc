#include "xai/core/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"

#if defined(__x86_64__) || defined(__i386__)
#define XAI_SIMD_X86 1
#include <immintrin.h>
#else
#define XAI_SIMD_X86 0
#endif

namespace xai {
namespace simd {

// ---------------------------------------------------------------------------
// Backend probing and name parsing.
// ---------------------------------------------------------------------------

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAvx2:
      return "avx2";
    case Backend::kScalar:
      return "scalar";
  }
  return "unknown";
}

Backend MaxSupported() {
#if XAI_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
  return Backend::kScalar;
}

Backend ParseBackendName(const char* name) {
  XAI_CHECK_MSG(name != nullptr, "XAI_SIMD backend name is null");
  if (std::strcmp(name, "scalar") == 0) return Backend::kScalar;
  if (std::strcmp(name, "avx2") == 0) return Backend::kAvx2;
  // A typo must not silently fall back to auto-detection: whoever set
  // XAI_SIMD is running an A/B experiment and needs to know it didn't apply.
  XAI_CHECK_MSG(false, name);
  return Backend::kScalar;  // Unreachable.
}

namespace {

Backend ClampToSupported(Backend backend) {
  Backend max = MaxSupported();
  return static_cast<int>(backend) > static_cast<int>(max) ? max : backend;
}

Backend InitialBackend() {
  if (const char* env = std::getenv("XAI_SIMD"))
    return ClampToSupported(ParseBackendName(env));
  return MaxSupported();
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar backend: the reference for the 4-wide stripe contract. The AVX2
// backend must reproduce these exact per-lane IEEE operation chains.
//
// Auto-vectorization is disabled on these functions: the stripe layout is
// exactly what the compiler's vectorizer looks for, and letting it fire
// would silently turn the "scalar" backend into an unlabeled vector backend —
// the XAI_SIMD=scalar CI job and the scalar-vs-dispatched A/B in bench_e21
// both need a genuinely scalar baseline. Results are unaffected either way
// (same IEEE operations in the same order).
// ---------------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define XAI_SIMD_NOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define XAI_SIMD_NOVEC
#endif

namespace {

XAI_SIMD_NOVEC double DotScalar(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  // Tail lanes r = 0..n-i-1 extend stripe lane r, as in the contract.
  if (i < n) acc0 += a[i] * b[i];
  if (i + 1 < n) acc1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) acc2 += a[i + 2] * b[i + 2];
  return (acc0 + acc1) + (acc2 + acc3);
}

XAI_SIMD_NOVEC void AxpyScalar(double s, const double* x, double* y,
                               size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

XAI_SIMD_NOVEC double SsdScalar(const double* a, const double* b, size_t n,
                                const double* w) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  if (w == nullptr) {
    for (; i + 4 <= n; i += 4) {
      double d0 = a[i] - b[i];
      double d1 = a[i + 1] - b[i + 1];
      double d2 = a[i + 2] - b[i + 2];
      double d3 = a[i + 3] - b[i + 3];
      acc0 += d0 * d0;
      acc1 += d1 * d1;
      acc2 += d2 * d2;
      acc3 += d3 * d3;
    }
    for (size_t r = 0; i + r < n; ++r) {
      double d = a[i + r] - b[i + r];
      double sq = d * d;
      if (r == 0) acc0 += sq;
      if (r == 1) acc1 += sq;
      if (r == 2) acc2 += sq;
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      double d0 = a[i] - b[i];
      double d1 = a[i + 1] - b[i + 1];
      double d2 = a[i + 2] - b[i + 2];
      double d3 = a[i + 3] - b[i + 3];
      acc0 += (d0 * d0) * w[i];
      acc1 += (d1 * d1) * w[i + 1];
      acc2 += (d2 * d2) * w[i + 2];
      acc3 += (d3 * d3) * w[i + 3];
    }
    for (size_t r = 0; i + r < n; ++r) {
      double d = a[i + r] - b[i + r];
      double sq = (d * d) * w[i + r];
      if (r == 0) acc0 += sq;
      if (r == 1) acc1 += sq;
      if (r == 2) acc2 += sq;
    }
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

// Shared i/j edge handling for the direct Gemm path: plain per-element loops
// with the same ascending-k accumulation chain as the blocked kernels.
XAI_SIMD_NOVEC void GemmEdgeScalar(int i_begin, int i_end, int j_begin,
                                   int j_end, int k, const double* a, int lda,
                                   const double* b, int ldb, double* c,
                                   int ldc) {
  for (int i = i_begin; i < i_end; ++i) {
    const double* arow = a + static_cast<size_t>(i) * lda;
    double* crow = c + static_cast<size_t>(i) * ldc;
    for (int p = 0; p < k; ++p) {
      double aik = arow[p];
      const double* brow = b + static_cast<size_t>(p) * ldb;
      for (int j = j_begin; j < j_end; ++j) crow[j] += aik * brow[j];
    }
  }
}

XAI_SIMD_NOVEC void GemmScalar(int m, int n, int k, const double* a, int lda,
                               const double* b, int ldb, double* c, int ldc) {
  GemmEdgeScalar(0, m, 0, n, k, a, lda, b, ldb, c, ldc);
}

XAI_SIMD_NOVEC void GemmTNScalar(int m, int n, int k, const double* a,
                                 int lda, const double* b, int ldb, double* c,
                                 int ldc) {
  for (int p = 0; p < k; ++p) {
    const double* arow = a + static_cast<size_t>(p) * lda;
    const double* brow = b + static_cast<size_t>(p) * ldb;
    for (int i = 0; i < m; ++i) {
      AxpyScalar(arow[i], brow, c + static_cast<size_t>(i) * ldc, n);
    }
  }
}

XAI_SIMD_NOVEC void WeightedOuterScalar(double w, const double* row, int d,
                                        double* g, int stride) {
  for (int a = 0; a < d; ++a) {
    double s = w * row[a];
    AxpyScalar(s, row + a, g + static_cast<size_t>(a) * stride + a, d - a);
  }
}

// Packed micro-kernel, scalar flavor: one full MR x NR tile of C over a
// KC-long contraction, reading unit-stride panels. Accumulators live in a
// local array across the whole kc loop, so each C element carries exactly
// one ascending-p chain — the same chain as the direct path.
XAI_SIMD_NOVEC void GemmMicroScalar(int kc, const double* ap,
                                    const double* bp, double* c, int ldc) {
  double acc[kGemmMR][kGemmNR];
  for (int r = 0; r < kGemmMR; ++r)
    for (int j = 0; j < kGemmNR; ++j)
      acc[r][j] = c[static_cast<size_t>(r) * ldc + j];
  for (int p = 0; p < kc; ++p) {
    const double* brow = bp + static_cast<size_t>(p) * kGemmNR;
    const double* acol = ap + static_cast<size_t>(p) * kGemmMR;
    for (int r = 0; r < kGemmMR; ++r) {
      double av = acol[r];
      for (int j = 0; j < kGemmNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < kGemmMR; ++r)
    for (int j = 0; j < kGemmNR; ++j)
      c[static_cast<size_t>(r) * ldc + j] = acc[r][j];
}

// Packed edge micro-kernel (mr < MR and/or nr < NR), shared by every
// backend: loops only over the valid panel lanes so the zero padding in the
// packed buffers is never accumulated (adding a * 0.0 could flip a -0.0
// result to +0.0 and break bit-equality with the direct path).
XAI_SIMD_NOVEC void GemmMicroEdgeScalar(int kc, int mr, int nr,
                                        const double* ap, const double* bp,
                                        double* c, int ldc) {
  for (int r = 0; r < mr; ++r) {
    double* crow = c + static_cast<size_t>(r) * ldc;
    for (int p = 0; p < kc; ++p) {
      double av = ap[static_cast<size_t>(p) * kGemmMR + r];
      const double* brow = bp + static_cast<size_t>(p) * kGemmNR;
      for (int j = 0; j < nr; ++j) crow[j] += av * brow[j];
    }
  }
}

// Branch-free compaction: every value is stored at the cursor, which
// advances only past the kept ones. Both tiers start 64-byte aligned: the
// dbx numeric game runs this loop once per coalition, and when it lived
// in SharedScanAggregate::Eval its speed moved by about 20% with the size
// of unrelated code linked before it.
__attribute__((aligned(64))) XAI_SIMD_NOVEC size_t CompressScalar(
    const double* values, const uint64_t* need, uint64_t lacking, size_t n,
    double* out) {
  size_t len = 0;
  for (size_t i = 0; i < n; ++i) {
    out[len] = values[i];
    len += (need[i] & lacking) == 0;
  }
  return len;
}

// One coalition at a time, as the contract reads: the kept value number
// `len` goes to stripe lane len % 4 (blocks hold a multiple of 4 values),
// and a full block folds into the total.
XAI_SIMD_NOVEC void CompressSumsScalar(const double* values,
                                       const uint64_t* need,
                                       const uint64_t* lacking, int k,
                                       size_t n, size_t block, double* sums,
                                       size_t* counts) {
  for (int c = 0; c < k; ++c) {
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    double total = 0.0;
    size_t len = 0;
    size_t fill = 0;
    for (size_t i = 0; i < n; ++i) {
      if (need[i] & lacking[c]) continue;
      lane[len & 3] += values[i];
      ++len;
      if (++fill == block) {
        total += (lane[0] + lane[1]) + (lane[2] + lane[3]);
        lane[0] = lane[1] = lane[2] = lane[3] = 0.0;
        fill = 0;
      }
    }
    if (fill) total += (lane[0] + lane[1]) + (lane[2] + lane[3]);
    sums[c] = total;
    counts[c] = len;
  }
}

// Four rows in one sweep, each element's chain in row order; fewer rows
// take one Axpy each, which is the same chain.
XAI_SIMD_NOVEC void AddScaledRowsScalar(const double* s,
                                        const double* const* rows, int k,
                                        size_t n, double* acc) {
  if (k < 4) {
    for (int j = 0; j < k; ++j) AxpyScalar(s[j], rows[j], acc, n);
    return;
  }
  const double* r0 = rows[0];
  const double* r1 = rows[1];
  const double* r2 = rows[2];
  const double* r3 = rows[3];
  for (size_t i = 0; i < n; ++i)
    acc[i] = (((acc[i] + s[0] * r0[i]) + s[1] * r1[i]) + s[2] * r2[i]) +
             s[3] * r3[i];
}

}  // namespace

// ---------------------------------------------------------------------------
// AVX2 backend. Per-function target attribute so the rest of the binary
// stays baseline-compatible. FMA is intentionally absent from the target:
// the contract is mul-then-add (two roundings), and without FMA in the ISA
// set the compiler cannot contract the intrinsics either.
// ---------------------------------------------------------------------------

#if XAI_SIMD_X86
namespace {

__attribute__((target("avx2"))) double DotAvx2(const double* a,
                                               const double* b, size_t n) {
  __m256d vacc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vacc = _mm256_add_pd(
        vacc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double acc[4];
  _mm256_storeu_pd(acc, vacc);
  for (size_t r = 0; i + r < n; ++r) acc[r] += a[i + r] * b[i + r];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

__attribute__((target("avx2"))) void AxpyAvx2(double s, const double* x,
                                              double* y, size_t n) {
  __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(vs, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

__attribute__((target("avx2"))) double SsdAvx2(const double* a,
                                               const double* b, size_t n,
                                               const double* w) {
  __m256d vacc = _mm256_setzero_pd();
  size_t i = 0;
  if (w == nullptr) {
    for (; i + 4 <= n; i += 4) {
      __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                _mm256_loadu_pd(b + i));
      vacc = _mm256_add_pd(vacc, _mm256_mul_pd(d, d));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                _mm256_loadu_pd(b + i));
      vacc = _mm256_add_pd(
          vacc, _mm256_mul_pd(_mm256_mul_pd(d, d), _mm256_loadu_pd(w + i)));
    }
  }
  double acc[4];
  _mm256_storeu_pd(acc, vacc);
  for (size_t r = 0; i + r < n; ++r) {
    double d = a[i + r] - b[i + r];
    double sq = d * d;
    acc[r] += w == nullptr ? sq : sq * w[i + r];
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

__attribute__((target("avx2"))) void GemmAvx2(int m, int n, int k,
                                              const double* a, int lda,
                                              const double* b, int ldb,
                                              double* c, int ldc) {
  // 2 rows x 8 cols register tile (4 ymm accumulators live across the full
  // k loop); k ascending per C element, so any tile shape is bit-equal.
  const int m2 = m & ~1;
  const int n8 = n & ~7;
  for (int i = 0; i < m2; i += 2) {
    const double* a0 = a + static_cast<size_t>(i) * lda;
    const double* a1 = a0 + lda;
    double* c0 = c + static_cast<size_t>(i) * ldc;
    double* c1 = c0 + ldc;
    for (int j = 0; j < n8; j += 8) {
      __m256d c00 = _mm256_loadu_pd(c0 + j);
      __m256d c01 = _mm256_loadu_pd(c0 + j + 4);
      __m256d c10 = _mm256_loadu_pd(c1 + j);
      __m256d c11 = _mm256_loadu_pd(c1 + j + 4);
      for (int p = 0; p < k; ++p) {
        const double* brow = b + static_cast<size_t>(p) * ldb + j;
        __m256d b0 = _mm256_loadu_pd(brow);
        __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d va0 = _mm256_set1_pd(a0[p]);
        __m256d va1 = _mm256_set1_pd(a1[p]);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(va0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(va0, b1));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(va1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(va1, b1));
      }
      _mm256_storeu_pd(c0 + j, c00);
      _mm256_storeu_pd(c0 + j + 4, c01);
      _mm256_storeu_pd(c1 + j, c10);
      _mm256_storeu_pd(c1 + j + 4, c11);
    }
    // Column edge for this row pair with 4-wide tiles, then scalar.
    int j = n8;
    for (; j + 4 <= n; j += 4) {
      __m256d c00 = _mm256_loadu_pd(c0 + j);
      __m256d c10 = _mm256_loadu_pd(c1 + j);
      for (int p = 0; p < k; ++p) {
        __m256d bv = _mm256_loadu_pd(b + static_cast<size_t>(p) * ldb + j);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(_mm256_set1_pd(a0[p]), bv));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(_mm256_set1_pd(a1[p]), bv));
      }
      _mm256_storeu_pd(c0 + j, c00);
      _mm256_storeu_pd(c1 + j, c10);
    }
    if (j < n) GemmEdgeScalar(i, i + 2, j, n, k, a, lda, b, ldb, c, ldc);
  }
  if (m2 < m) GemmEdgeScalar(m2, m, 0, n, k, a, lda, b, ldb, c, ldc);
}

__attribute__((target("avx2"))) void GemmTNAvx2(int m, int n, int k,
                                                const double* a, int lda,
                                                const double* b, int ldb,
                                                double* c, int ldc) {
  for (int p = 0; p < k; ++p) {
    const double* arow = a + static_cast<size_t>(p) * lda;
    const double* brow = b + static_cast<size_t>(p) * ldb;
    for (int i = 0; i < m; ++i) {
      AxpyAvx2(arow[i], brow, c + static_cast<size_t>(i) * ldc, n);
    }
  }
}

__attribute__((target("avx2"))) void WeightedOuterAvx2(double w,
                                                       const double* row,
                                                       int d, double* g,
                                                       int stride) {
  // Two triangle rows per pass so each row[b] vector load feeds both rows a
  // and a+1. Every output element still receives exactly one multiply-add
  // per call — no reduction is involved — so blocking cannot perturb the
  // per-element accumulation chain and results stay bit-identical to the
  // other backends.
  int a = 0;
  for (; a + 1 < d; a += 2) {
    double s0 = w * row[a];
    double s1 = w * row[a + 1];
    double* g0 = g + static_cast<size_t>(a) * stride;
    double* g1 = g + static_cast<size_t>(a + 1) * stride;
    g0[a] += s0 * row[a];
    g0[a + 1] += s0 * row[a + 1];
    g1[a + 1] += s1 * row[a + 1];
    int b = a + 2;
    __m256d vs0 = _mm256_set1_pd(s0);
    __m256d vs1 = _mm256_set1_pd(s1);
    for (; b + 4 <= d; b += 4) {
      __m256d vb = _mm256_loadu_pd(row + b);
      _mm256_storeu_pd(
          g0 + b, _mm256_add_pd(_mm256_loadu_pd(g0 + b), _mm256_mul_pd(vs0, vb)));
      _mm256_storeu_pd(
          g1 + b, _mm256_add_pd(_mm256_loadu_pd(g1 + b), _mm256_mul_pd(vs1, vb)));
    }
    for (; b < d; ++b) {
      double rb = row[b];
      g0[b] += s0 * rb;
      g1[b] += s1 * rb;
    }
  }
  if (a < d) {
    double s = w * row[a];
    g[static_cast<size_t>(a) * stride + a] += s * row[a];
  }
}

// Packed 4x8 micro-kernel: 8 ymm accumulators + 2 B vectors + 1 broadcast
// register — fits the 16-register file with room for addressing. The panels
// are unit-stride, so the only loads in the loop are two contiguous ymm
// reads of B and four scalar broadcasts of A.
__attribute__((target("avx2"))) void GemmMicroAvx2(int kc, const double* ap,
                                                   const double* bp,
                                                   double* c, int ldc) {
  double* c0 = c;
  double* c1 = c0 + ldc;
  double* c2 = c1 + ldc;
  double* c3 = c2 + ldc;
  __m256d acc00 = _mm256_loadu_pd(c0);
  __m256d acc01 = _mm256_loadu_pd(c0 + 4);
  __m256d acc10 = _mm256_loadu_pd(c1);
  __m256d acc11 = _mm256_loadu_pd(c1 + 4);
  __m256d acc20 = _mm256_loadu_pd(c2);
  __m256d acc21 = _mm256_loadu_pd(c2 + 4);
  __m256d acc30 = _mm256_loadu_pd(c3);
  __m256d acc31 = _mm256_loadu_pd(c3 + 4);
  for (int p = 0; p < kc; ++p) {
    const double* brow = bp + static_cast<size_t>(p) * kGemmNR;
    const double* acol = ap + static_cast<size_t>(p) * kGemmMR;
    __m256d b0 = _mm256_loadu_pd(brow);
    __m256d b1 = _mm256_loadu_pd(brow + 4);
    __m256d va = _mm256_set1_pd(acol[0]);
    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(va, b0));
    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(va, b1));
    va = _mm256_set1_pd(acol[1]);
    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(va, b0));
    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(va, b1));
    va = _mm256_set1_pd(acol[2]);
    acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(va, b0));
    acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(va, b1));
    va = _mm256_set1_pd(acol[3]);
    acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(va, b0));
    acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(va, b1));
  }
  _mm256_storeu_pd(c0, acc00);
  _mm256_storeu_pd(c0 + 4, acc01);
  _mm256_storeu_pd(c1, acc10);
  _mm256_storeu_pd(c1 + 4, acc11);
  _mm256_storeu_pd(c2, acc20);
  _mm256_storeu_pd(c2 + 4, acc21);
  _mm256_storeu_pd(c3, acc30);
  _mm256_storeu_pd(c3 + 4, acc31);
}

// Row m of the compress permutation: for each lane set in the 4-bit keep
// mask m, lowest first, the two 32-bit halves of that double, as
// _mm256_permutevar8x32_epi32 indexes; the rest of the row is don't-care.
struct alignas(32) CompressPerm {
  int32_t half[8];
};
constexpr auto kCompressPerms = [] {
  std::array<CompressPerm, 16> perms{};
  for (int m = 0; m < 16; ++m) {
    int kept = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (!((m >> lane) & 1)) continue;
      perms[m].half[2 * kept] = 2 * lane;
      perms[m].half[2 * kept + 1] = 2 * lane + 1;
      ++kept;
    }
  }
  return perms;
}();

// Four rows per step: one compare yields the keep mask, the permutation
// packs the kept values to the front of the vector, and the full-width
// store lands at the cursor (len <= i, so it never passes out + n).
__attribute__((target("avx2"), aligned(64))) size_t CompressAvx2(
    const double* values, const uint64_t* need, uint64_t lacking, size_t n,
    double* out) {
  const __m256i vlacking = _mm256_set1_epi64x(static_cast<long long>(lacking));
  const __m256i zero = _mm256_setzero_si256();
  size_t len = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i missing = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(need + i)),
        vlacking);
    const int keep = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(missing, zero)));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompressPerms[keep].half));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(_mm256_loadu_pd(values + i)), perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + len), packed);
    len += static_cast<size_t>(__builtin_popcount(keep));
  }
  return len + CompressScalar(values + i, need + i, lacking, n - i,
                              out + len);
}

// Row keep | phase << 4 of the rotate-compress permutation: the lanes set
// in the 4-bit keep mask, lowest first, move to lanes phase, phase + 1,
// ... (mod 4), and the cleared lanes fill the remaining lanes. The caller
// zeroes the cleared lanes first, so every lane that receives no kept
// value holds +0.0.
constexpr auto kRotatePerms = [] {
  std::array<CompressPerm, 64> perms{};
  for (int row = 0; row < 64; ++row) {
    const int keep = row & 15;
    const int phase = row >> 4;
    int kept = 0;
    int cleared = std::popcount(static_cast<unsigned>(keep));
    for (int lane = 0; lane < 4; ++lane) {
      const int dest = (phase + ((keep >> lane) & 1 ? kept++ : cleared++)) & 3;
      perms[row].half[2 * dest] = 2 * lane;
      perms[row].half[2 * dest + 1] = 2 * lane + 1;
    }
  }
  return perms;
}();

// Row p has lanes p..3 set.
struct alignas(32) LaneMask {
  uint64_t lane[4];
};
constexpr LaneMask kLanesFrom[4] = {{{~0ULL, ~0ULL, ~0ULL, ~0ULL}},
                                    {{0, ~0ULL, ~0ULL, ~0ULL}},
                                    {{0, 0, ~0ULL, ~0ULL}},
                                    {{0, 0, 0, ~0ULL}}};

// (l0 + l1) + (l2 + l3), as DotAvx2 folds its accumulator.
__attribute__((target("avx2"), always_inline)) inline double FoldStripes(
    __m256d acc) {
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// One coalition of a CompressSumsAvx2 pass: its lacking bits, the stripe
// accumulator of its open block, the sum of its closed blocks, how many
// it closed, and the room left in the open one. Its kept count so far is
// blocks * block + (block - room), so its lane phase is -room mod 4.
struct SumWay {
  __m256i lacking;
  __m256d acc;
  double total;
  size_t room;
  size_t blocks;
};

// Adds four rows to one coalition. The kept values are zeroed where they
// are not kept, then rotated so the next kept value lands on the lane its
// position in the block gives it; adding +0.0 to the other lanes leaves
// them unchanged, since an accumulator that starts at +0.0 is never -0.0.
// `valid` clears the padding lanes of the last, partial step.
template <bool kTail>
__attribute__((target("avx2"), always_inline)) inline void SumStep(
    SumWay& w, __m256i need4, __m256d values4, __m256i valid, size_t block) {
  __m256i keepv = _mm256_cmpeq_epi64(_mm256_and_si256(need4, w.lacking),
                                     _mm256_setzero_si256());
  if constexpr (kTail) keepv = _mm256_and_si256(keepv, valid);
  const int keep = _mm256_movemask_pd(_mm256_castsi256_pd(keepv));
  const size_t phase = (0 - w.room) & 3;
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kRotatePerms[keep | phase << 4].half));
  const __m256d kept_values =
      _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
          _mm256_castpd_si256(
              _mm256_and_pd(values4, _mm256_castsi256_pd(keepv))),
          perm));
  const size_t kept = static_cast<size_t>(__builtin_popcount(keep));
  if (kept < w.room) [[likely]] {
    w.acc = _mm256_add_pd(w.acc, kept_values);
    w.room -= kept;
    return;
  }
  // The step fills the open block: lanes from `phase` up close it, and
  // lanes below `phase` hold the values past its end, which open the next.
  const __m256d closing = _mm256_load_pd(
      reinterpret_cast<const double*>(kLanesFrom[phase].lane));
  w.acc = _mm256_add_pd(w.acc, _mm256_and_pd(kept_values, closing));
  w.total += FoldStripes(w.acc);
  w.acc = _mm256_add_pd(_mm256_setzero_pd(),
                        _mm256_andnot_pd(closing, kept_values));
  w.room += block - kept;
  ++w.blocks;
}

// K coalitions share each load of four need words and four values.
template <int K>
__attribute__((target("avx2"))) void CompressSumsAvx2Ways(
    const double* values, const uint64_t* need, const uint64_t* lacking,
    size_t n, size_t block, double* sums, size_t* counts) {
  SumWay ways[K];
  for (int c = 0; c < K; ++c) {
    ways[c] = {_mm256_set1_epi64x(static_cast<long long>(lacking[c])),
               _mm256_setzero_pd(), 0.0, block, 0};
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i need4 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(need + i));
    const __m256d values4 = _mm256_loadu_pd(values + i);
#pragma GCC unroll 4
    for (int c = 0; c < K; ++c)
      SumStep<false>(ways[c], need4, values4, need4, block);
  }
  if (i < n) {
    alignas(32) uint64_t need_tail[4] = {};
    alignas(32) double values_tail[4] = {};
    alignas(32) uint64_t valid[4] = {};
    for (size_t r = 0; i + r < n; ++r) {
      need_tail[r] = need[i + r];
      values_tail[r] = values[i + r];
      valid[r] = ~0ULL;
    }
    const __m256i need4 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(need_tail));
    const __m256d values4 = _mm256_load_pd(values_tail);
    const __m256i valid4 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(valid));
    for (int c = 0; c < K; ++c)
      SumStep<true>(ways[c], need4, values4, valid4, block);
  }
  for (int c = 0; c < K; ++c) {
    if (ways[c].room != block) ways[c].total += FoldStripes(ways[c].acc);
    sums[c] = ways[c].total;
    counts[c] = ways[c].blocks * block + (block - ways[c].room);
  }
}

__attribute__((target("avx2"))) void AddScaledRowsAvx2(
    const double* s, const double* const* rows, int k, size_t n,
    double* acc) {
  if (k < 4) {
    for (int j = 0; j < k; ++j) AxpyAvx2(s[j], rows[j], acc, n);
    return;
  }
  const double* r0 = rows[0];
  const double* r1 = rows[1];
  const double* r2 = rows[2];
  const double* r3 = rows[3];
  const __m256d s0 = _mm256_set1_pd(s[0]);
  const __m256d s1 = _mm256_set1_pd(s[1]);
  const __m256d s2 = _mm256_set1_pd(s[2]);
  const __m256d s3 = _mm256_set1_pd(s[3]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d a = _mm256_loadu_pd(acc + i);
    a = _mm256_add_pd(a, _mm256_mul_pd(s0, _mm256_loadu_pd(r0 + i)));
    a = _mm256_add_pd(a, _mm256_mul_pd(s1, _mm256_loadu_pd(r1 + i)));
    a = _mm256_add_pd(a, _mm256_mul_pd(s2, _mm256_loadu_pd(r2 + i)));
    a = _mm256_add_pd(a, _mm256_mul_pd(s3, _mm256_loadu_pd(r3 + i)));
    _mm256_storeu_pd(acc + i, a);
  }
  for (; i < n; ++i)
    acc[i] = (((acc[i] + s[0] * r0[i]) + s[1] * r1[i]) + s[2] * r2[i]) +
             s[3] * r3[i];
}

__attribute__((target("avx2"))) void CompressSumsAvx2(
    const double* values, const uint64_t* need, const uint64_t* lacking,
    int k, size_t n, size_t block, double* sums, size_t* counts) {
  switch (k) {
    case 1:
      return CompressSumsAvx2Ways<1>(values, need, lacking, n, block, sums,
                                     counts);
    case 2:
      return CompressSumsAvx2Ways<2>(values, need, lacking, n, block, sums,
                                     counts);
    case 3:
      return CompressSumsAvx2Ways<3>(values, need, lacking, n, block, sums,
                                     counts);
    default:
      return CompressSumsAvx2Ways<4>(values, need, lacking, n, block, sums,
                                     counts);
  }
}

}  // namespace
#endif  // XAI_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch: one function-pointer table per backend, resolved once per
// SetBackend() / XAI_SIMD read and published through a single relaxed
// atomic. Kernel entry points are one indirect call — no per-call backend
// branch survives into the GEMM inner loops.
// ---------------------------------------------------------------------------

namespace {

using DotFn = double (*)(const double*, const double*, size_t);
using AxpyFn = void (*)(double, const double*, double*, size_t);
using SsdFn = double (*)(const double*, const double*, size_t,
                         const double*);
using WouterFn = void (*)(double, const double*, int, double*, int);
using GemmFn = void (*)(int, int, int, const double*, int, const double*,
                        int, double*, int);
using MicroFn = void (*)(int, const double*, const double*, double*, int);
using CompressFn = size_t (*)(const double*, const uint64_t*, uint64_t,
                              size_t, double*);
using CompressSumsFn = void (*)(const double*, const uint64_t*,
                                const uint64_t*, int, size_t, size_t, double*,
                                size_t*);
using AddScaledRowsFn = void (*)(const double*, const double* const*, int,
                                 size_t, double*);

struct KernelTable {
  Backend backend;
  DotFn dot;
  AxpyFn axpy;
  SsdFn ssd;
  WouterFn wouter;
  GemmFn gemm_direct;
  GemmFn gemm_tn_direct;
  MicroFn micro;
  CompressFn compress;
  CompressSumsFn compress_sums;
  AddScaledRowsFn add_scaled_rows;
};

constexpr KernelTable kScalarTable = {
    Backend::kScalar,    DotScalar,          AxpyScalar,
    SsdScalar,           WeightedOuterScalar, GemmScalar,
    GemmTNScalar,        GemmMicroScalar,    CompressScalar,
    CompressSumsScalar,  AddScaledRowsScalar};

#if XAI_SIMD_X86
constexpr KernelTable kAvx2Table = {
    Backend::kAvx2,    DotAvx2,          AxpyAvx2,
    SsdAvx2,           WeightedOuterAvx2, GemmAvx2,
    GemmTNAvx2,        GemmMicroAvx2,    CompressAvx2,
    CompressSumsAvx2,  AddScaledRowsAvx2};
#endif

const KernelTable* TableFor(Backend backend) {
#if XAI_SIMD_X86
  switch (backend) {
    case Backend::kAvx2:
      return &kAvx2Table;
    case Backend::kScalar:
      return &kScalarTable;
  }
#endif
  return &kScalarTable;
}

// Relaxed atomic so TSan-clean to read from worker threads; written only at
// startup and from SetBackend (documented non-concurrent with kernels).
std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> active{TableFor(InitialBackend())};
  return active;
}

const KernelTable& ActiveTable() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

}  // namespace

Backend Active() { return ActiveTable().backend; }

Backend SetBackend(Backend backend) {
  Backend applied = ClampToSupported(backend);
  ActiveSlot().store(TableFor(applied), std::memory_order_relaxed);
  return applied;
}

// ---------------------------------------------------------------------------
// Packed / cache-blocked / multithreaded GEMM driver, shared by the NN and
// TN orientations (they differ only in how A panels are gathered).
//
// Blocking (BLIS-style): the contraction dimension is cut into KC slices
// processed serially in ascending order — this is what keeps every C
// element's accumulation chain in ascending-k order and therefore bit-equal
// to the direct kernels on the default tiers. Within a KC slice, B columns
// are cut into NC blocks packed once into KC x NR panels, and C rows into MC
// blocks distributed over ParallelFor. Row blocks are disjoint in C, so the
// parallel partitioning is race-free and the result is independent of the
// thread count by construction.
//
// Footprints: one A panel (MR x KC = 8 KB) stays hot in L1 across the jp
// sweep; a packed A block (MC x KC = 256 KB) sits in L2; a packed B block
// (KC x NC <= 4 MB) streams from L3, one 16 KB KC x NR panel at a time.
// ---------------------------------------------------------------------------

namespace {

constexpr int kBlockKC = 256;
constexpr int kBlockMC = 128;
constexpr int kBlockNC = 2048;

// `upper_only` (valid for square outputs) skips every register tile that
// lies entirely below the diagonal — the syrk-style mode WlsAccumulator
// uses for Gram updates, where only C[a][b] with b >= a is ever read.
// Tiles straddling the diagonal are computed in full; their below-diagonal
// elements carry ordinary GemmTN chains that callers must not read.
void GemmPackedImpl(bool transpose_a, bool upper_only, int m, int n, int k,
                    const double* a, int lda, const double* b, int ldb,
                    double* c, int ldc) {
  const KernelTable& table = ActiveTable();
  std::vector<double> bpack;
  std::atomic<int64_t> pack_ns{0};
  for (int p0 = 0; p0 < k; p0 += kBlockKC) {
    const int kc = std::min(kBlockKC, k - p0);
    for (int j0 = 0; j0 < n; j0 += kBlockNC) {
      const int nc = std::min(kBlockNC, n - j0);
      const int jpanels = (nc + kGemmNR - 1) / kGemmNR;
      WallTimer bpack_timer;
      // Zero-filled so the padding lanes of a partial panel hold defined
      // values; the edge micro-kernel never reads them (see above).
      bpack.assign(static_cast<size_t>(jpanels) * kc * kGemmNR, 0.0);
      for (int jp = 0; jp < jpanels; ++jp) {
        const int jj = jp * kGemmNR;
        const int nr = std::min(kGemmNR, nc - jj);
        double* dst = bpack.data() + static_cast<size_t>(jp) * kc * kGemmNR;
        const double* src = b + static_cast<size_t>(p0) * ldb + j0 + jj;
        for (int p = 0; p < kc; ++p) {
          const double* srow = src + static_cast<size_t>(p) * ldb;
          double* drow = dst + static_cast<size_t>(p) * kGemmNR;
          for (int l = 0; l < nr; ++l) drow[l] = srow[l];
        }
      }
      pack_ns.fetch_add(bpack_timer.Nanos(), std::memory_order_relaxed);
      const int num_mblocks = (m + kBlockMC - 1) / kBlockMC;
      ParallelFor(num_mblocks, 1, [&](int64_t begin, int64_t end, int64_t) {
        std::vector<double> apack;
        for (int64_t mb = begin; mb < end; ++mb) {
          const int i0 = static_cast<int>(mb) * kBlockMC;
          const int mc = std::min(kBlockMC, m - i0);
          const int ipanels = (mc + kGemmMR - 1) / kGemmMR;
          WallTimer apack_timer;
          apack.assign(static_cast<size_t>(ipanels) * kc * kGemmMR, 0.0);
          for (int ip = 0; ip < ipanels; ++ip) {
            const int ii = ip * kGemmMR;
            const int mr = std::min(kGemmMR, mc - ii);
            double* dst =
                apack.data() + static_cast<size_t>(ip) * kc * kGemmMR;
            if (transpose_a) {
              // A is k x m: panel rows are contiguous within each A row.
              const double* src =
                  a + static_cast<size_t>(p0) * lda + i0 + ii;
              for (int p = 0; p < kc; ++p) {
                const double* srow = src + static_cast<size_t>(p) * lda;
                double* drow = dst + static_cast<size_t>(p) * kGemmMR;
                for (int r = 0; r < mr; ++r) drow[r] = srow[r];
              }
            } else {
              // A is m x k: gather column p0+p of each panel row.
              for (int r = 0; r < mr; ++r) {
                const double* srow =
                    a + static_cast<size_t>(i0 + ii + r) * lda + p0;
                for (int p = 0; p < kc; ++p)
                  dst[static_cast<size_t>(p) * kGemmMR + r] = srow[p];
              }
            }
          }
          pack_ns.fetch_add(apack_timer.Nanos(), std::memory_order_relaxed);
          for (int ip = 0; ip < ipanels; ++ip) {
            const int ii = ip * kGemmMR;
            const int mr = std::min(kGemmMR, mc - ii);
            const double* ap =
                apack.data() + static_cast<size_t>(ip) * kc * kGemmMR;
            double* crow = c + static_cast<size_t>(i0 + ii) * ldc + j0;
            for (int jp = 0; jp < jpanels; ++jp) {
              const int jj = jp * kGemmNR;
              const int nr = std::min(kGemmNR, nc - jj);
              if (upper_only && j0 + jj + nr <= i0 + ii) continue;
              const double* bp =
                  bpack.data() + static_cast<size_t>(jp) * kc * kGemmNR;
              if (mr == kGemmMR && nr == kGemmNR)
                table.micro(kc, ap, bp, crow + jj, ldc);
              else
                GemmMicroEdgeScalar(kc, mr, nr, ap, bp, crow + jj, ldc);
            }
          }
        }
      });
    }
  }
  XAI_HISTOGRAM_RECORD("linalg/gemm_pack_us",
                       pack_ns.load(std::memory_order_relaxed) / 1000);
}

// Per-backend flop counters: the telemetry names are compile-time literals,
// hence one macro site per tier. Divided by a span's wall time these give
// the flop-rate-vs-peak gap bench_micro_kernels tracks.
void CountGemmFlops(Backend backend, int m, int n, int k) {
  const long long flops = 2LL * m * n * k;
  switch (backend) {
    case Backend::kAvx2:
      XAI_COUNTER_ADD("linalg/gemm_flops_avx2", flops);
      break;
    case Backend::kScalar:
      XAI_COUNTER_ADD("linalg/gemm_flops_scalar", flops);
      break;
  }
}

// Packing pays for itself once the contraction is deep enough to reuse each
// packed panel and the output is at least a few tiles; below that the
// direct kernels win on pure overhead. Both sides of the split are
// bit-identical on the default tiers, so the threshold is a pure
// performance knob.
bool UsePacked(int m, int n, int k) {
  if (m < 2 * kGemmMR || n < kGemmNR || k < 32) return false;
  return 2.0 * m * n * k >= 2.5e5;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public kernel entry points.
// ---------------------------------------------------------------------------

double Dot(const double* a, const double* b, size_t n) {
  return ActiveTable().dot(a, b, n);
}

void Axpy(double s, const double* x, double* y, size_t n) {
  ActiveTable().axpy(s, x, y, n);
}

double ScaledSquaredDistance(const double* a, const double* b, size_t n,
                             const double* w) {
  return ActiveTable().ssd(a, b, n, w);
}

void WeightedOuterAccumulate(double w, const double* row, int d, double* g,
                             int stride) {
  ActiveTable().wouter(w, row, d, g, stride);
}

size_t Compress(const double* values, const uint64_t* need, uint64_t lacking,
                size_t n, double* out) {
  return ActiveTable().compress(values, need, lacking, n, out);
}

void CompressSums(const double* values, const uint64_t* need,
                  const uint64_t* lacking, int k, size_t n, size_t block,
                  double* sums, size_t* counts) {
  XAI_CHECK(k >= 1 && k <= kCompressSumsWays);
  XAI_CHECK(block > 0 && block % 4 == 0);
  ActiveTable().compress_sums(values, need, lacking, k, n, block, sums,
                              counts);
}

void AddScaledRows(const double* s, const double* const* rows, int k,
                   size_t n, double* acc) {
  XAI_CHECK(k >= 1 && k <= kAddScaledRowsWays);
  ActiveTable().add_scaled_rows(s, rows, k, n, acc);
}

void GemmDirect(int m, int n, int k, const double* a, int lda,
                const double* b, int ldb, double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const KernelTable& table = ActiveTable();
  CountGemmFlops(table.backend, m, n, k);
  table.gemm_direct(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmTNDirect(int m, int n, int k, const double* a, int lda,
                  const double* b, int ldb, double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const KernelTable& table = ActiveTable();
  CountGemmFlops(table.backend, m, n, k);
  table.gemm_tn_direct(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmPacked(int m, int n, int k, const double* a, int lda,
                const double* b, int ldb, double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  CountGemmFlops(Active(), m, n, k);
  GemmPackedImpl(/*transpose_a=*/false, /*upper_only=*/false, m, n, k, a,
                 lda, b, ldb, c, ldc);
}

void GemmTNPacked(int m, int n, int k, const double* a, int lda,
                  const double* b, int ldb, double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  CountGemmFlops(Active(), m, n, k);
  GemmPackedImpl(/*transpose_a=*/true, /*upper_only=*/false, m, n, k, a, lda,
                 b, ldb, c, ldc);
}

void GemmTNUpper(int dim, int k, const double* a, int lda, const double* b,
                 int ldb, double* c, int ldc) {
  if (dim <= 0 || k <= 0) return;
  if (UsePacked(dim, dim, k)) {
    // Roughly half the flops of the full product reach the micro-kernels.
    CountGemmFlops(Active(), dim, (dim + 1) / 2, k);
    GemmPackedImpl(/*transpose_a=*/true, /*upper_only=*/true, dim, dim, k, a,
                   lda, b, ldb, c, ldc);
  } else {
    // The direct kernel computes the full product; the upper triangle
    // carries the same chains, the rest is wasted work that only matters
    // above the packing threshold.
    GemmTNDirect(dim, dim, k, a, lda, b, ldb, c, ldc);
  }
}

void Gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc) {
  if (UsePacked(m, n, k))
    GemmPacked(m, n, k, a, lda, b, ldb, c, ldc);
  else
    GemmDirect(m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmTN(int m, int n, int k, const double* a, int lda, const double* b,
            int ldb, double* c, int ldc) {
  if (UsePacked(m, n, k))
    GemmTNPacked(m, n, k, a, lda, b, ldb, c, ldc);
  else
    GemmTNDirect(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace simd
}  // namespace xai
