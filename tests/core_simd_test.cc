#include "xai/core/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "xai/core/linalg.h"
#include "xai/core/matrix.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/mlp.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/columnar.h"

namespace xai {
namespace {

// The kernel determinism contract (simd.h): every kernel produces
// bit-identical results on every compiled backend and at every thread
// count. These tests pin that contract for all kernels, odd sizes
// included, and for the solver / batch-predict paths built on top.

std::vector<simd::Backend> AvailableBackends() {
  std::vector<simd::Backend> out = {simd::Backend::kScalar};
  if (simd::MaxSupported() >= simd::Backend::kAvx2)
    out.push_back(simd::Backend::kAvx2);
  return out;
}

class BackendGuard {
 public:
  explicit BackendGuard(simd::Backend b) : prev_(simd::Active()) {
    simd::SetBackend(b);
  }
  ~BackendGuard() { simd::SetBackend(prev_); }

 private:
  simd::Backend prev_;
};

class ThreadsGuard {
 public:
  explicit ThreadsGuard(int n) : saved_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ThreadsGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

// Exact bit comparison (EXPECT_EQ on doubles would conflate +0.0/-0.0).
::testing::AssertionResult BitEqual(const double* a, const double* b,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  return BitEqual(a.data(), b.data(), a.size());
}

Vector RandomVector(size_t n, Rng* rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng->Uniform(-3.0, 3.0);
  return v;
}

const std::vector<size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 13, 31, 100};

// The CI `XAI_SIMD=scalar` job relies on the env var actually steering the
// dispatch point. Every BackendGuard in this file restores the env-resolved
// backend on destruction, so Active() outside a guard reflects XAI_SIMD no
// matter where gtest schedules this test.
TEST(SimdKernelTest, EnvVariableSteersDispatch) {
  const char* env = std::getenv("XAI_SIMD");
  if (env == nullptr) GTEST_SKIP() << "XAI_SIMD not set";
  std::string want(env);
  if (want == "scalar") {
    EXPECT_EQ(simd::Active(), simd::Backend::kScalar);
  }
  if (want == "avx2" && simd::MaxSupported() >= simd::Backend::kAvx2) {
    EXPECT_EQ(simd::Active(), simd::Backend::kAvx2);
  }
}

TEST(SimdKernelTest, ParseBackendNameRoundTrips) {
  EXPECT_EQ(simd::ParseBackendName("scalar"), simd::Backend::kScalar);
  EXPECT_EQ(simd::ParseBackendName("avx2"), simd::Backend::kAvx2);
  for (simd::Backend be : {simd::Backend::kScalar, simd::Backend::kAvx2}) {
    EXPECT_EQ(simd::ParseBackendName(simd::BackendName(be)), be);
  }
}

TEST(SimdKernelDeathTest, UnknownBackendNameAborts) {
  // A typo'd XAI_SIMD value must abort rather than silently fall back to
  // auto-detection (it would invalidate the A/B run the variable was set
  // for). The env parsing itself runs once per process inside a function-
  // local static, so the death test exercises the parse function directly.
  EXPECT_DEATH(simd::ParseBackendName("turbo"), "XAI_CHECK failed");
  EXPECT_DEATH(simd::ParseBackendName("sse2"), "XAI_CHECK failed");
  EXPECT_DEATH(simd::ParseBackendName("fma"), "XAI_CHECK failed");
  EXPECT_DEATH(simd::ParseBackendName(""), "XAI_CHECK failed");
  EXPECT_DEATH(simd::ParseBackendName(nullptr), "XAI_CHECK failed");
}

TEST(SimdKernelTest, DotBitIdenticalAcrossBackends) {
  Rng rng(11);
  for (size_t n : kSizes) {
    Vector a = RandomVector(n, &rng), b = RandomVector(n, &rng);
    BackendGuard scalar(simd::Backend::kScalar);
    double ref = simd::Dot(a.data(), b.data(), n);
    for (simd::Backend be : AvailableBackends()) {
      BackendGuard g(be);
      double got = simd::Dot(a.data(), b.data(), n);
      EXPECT_TRUE(BitEqual(&ref, &got, 1))
          << "n=" << n << " backend=" << simd::BackendName(be);
    }
  }
}

TEST(SimdKernelTest, DotMatchesLongDoubleReference) {
  Rng rng(12);
  Vector a = RandomVector(257, &rng), b = RandomVector(257, &rng);
  long double acc = 0.0L;
  for (size_t i = 0; i < a.size(); ++i)
    acc += static_cast<long double>(a[i]) * b[i];
  double got = simd::Dot(a.data(), b.data(), a.size());
  EXPECT_NEAR(got, static_cast<double>(acc), 1e-10);
}

TEST(SimdKernelTest, AxpyBitIdenticalAcrossBackends) {
  Rng rng(13);
  for (size_t n : kSizes) {
    Vector x = RandomVector(n, &rng), y0 = RandomVector(n, &rng);
    Vector ref = y0;
    {
      BackendGuard scalar(simd::Backend::kScalar);
      simd::Axpy(0.7, x.data(), ref.data(), n);
    }
    for (simd::Backend be : AvailableBackends()) {
      BackendGuard g(be);
      Vector y = y0;
      simd::Axpy(0.7, x.data(), y.data(), n);
      EXPECT_TRUE(BitEqual(ref, y))
          << "n=" << n << " backend=" << simd::BackendName(be);
    }
  }
}

TEST(SimdKernelTest, ScaledSquaredDistanceBitIdenticalAcrossBackends) {
  Rng rng(14);
  for (size_t n : kSizes) {
    Vector a = RandomVector(n, &rng), b = RandomVector(n, &rng);
    Vector w(n);
    for (size_t i = 0; i < n; ++i) w[i] = rng.Uniform(0.0, 2.0);
    for (const double* wp :
         {static_cast<const double*>(nullptr),
          static_cast<const double*>(w.data())}) {
      BackendGuard scalar(simd::Backend::kScalar);
      double ref = simd::ScaledSquaredDistance(a.data(), b.data(), n, wp);
      for (simd::Backend be : AvailableBackends()) {
        BackendGuard g(be);
        double got = simd::ScaledSquaredDistance(a.data(), b.data(), n, wp);
        EXPECT_TRUE(BitEqual(&ref, &got, 1))
            << "n=" << n << " weighted=" << (wp != nullptr)
            << " backend=" << simd::BackendName(be);
      }
    }
  }
}

TEST(SimdKernelTest, WeightedOuterAccumulateBitIdenticalAcrossBackends) {
  Rng rng(15);
  for (int d : {1, 2, 3, 5, 8, 17}) {
    int stride = d + 2;  // Sub-block update, like the Hessian bias column.
    Vector row = RandomVector(d, &rng);
    Vector g0 = RandomVector(static_cast<size_t>(d) * stride, &rng);
    Vector ref = g0;
    {
      BackendGuard scalar(simd::Backend::kScalar);
      simd::WeightedOuterAccumulate(1.3, row.data(), d, ref.data(), stride);
    }
    for (simd::Backend be : AvailableBackends()) {
      BackendGuard bg(be);
      Vector g = g0;
      simd::WeightedOuterAccumulate(1.3, row.data(), d, g.data(), stride);
      EXPECT_TRUE(BitEqual(ref, g))
          << "d=" << d << " backend=" << simd::BackendName(be);
    }
  }
}

struct GemmShape {
  int m, n, k;
};

const std::vector<GemmShape> kGemmShapes = {
    {1, 1, 1}, {2, 8, 4},  {3, 9, 5},   {1, 17, 3},
    {7, 5, 13}, {8, 16, 8}, {13, 31, 7}, {16, 24, 32}};

TEST(SimdKernelTest, GemmBitIdenticalAcrossBackends) {
  Rng rng(16);
  for (const GemmShape& s : kGemmShapes) {
    int lda = s.k + 1, ldb = s.n + 2, ldc = s.n + 1;  // Padded strides.
    Vector a = RandomVector(static_cast<size_t>(s.m) * lda, &rng);
    Vector b = RandomVector(static_cast<size_t>(s.k) * ldb, &rng);
    Vector c0 = RandomVector(static_cast<size_t>(s.m) * ldc, &rng);
    Vector ref = c0;
    {
      BackendGuard scalar(simd::Backend::kScalar);
      simd::Gemm(s.m, s.n, s.k, a.data(), lda, b.data(), ldb, ref.data(),
                 ldc);
    }
    for (simd::Backend be : AvailableBackends()) {
      BackendGuard g(be);
      Vector c = c0;
      simd::Gemm(s.m, s.n, s.k, a.data(), lda, b.data(), ldb, c.data(), ldc);
      EXPECT_TRUE(BitEqual(ref, c))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " backend=" << simd::BackendName(be);
    }
  }
}

TEST(SimdKernelTest, GemmTNBitIdenticalAcrossBackends) {
  Rng rng(17);
  for (const GemmShape& s : kGemmShapes) {
    int lda = s.m + 1, ldb = s.n + 2, ldc = s.n + 1;  // A is k x m here.
    Vector a = RandomVector(static_cast<size_t>(s.k) * lda, &rng);
    Vector b = RandomVector(static_cast<size_t>(s.k) * ldb, &rng);
    Vector c0 = RandomVector(static_cast<size_t>(s.m) * ldc, &rng);
    Vector ref = c0;
    {
      BackendGuard scalar(simd::Backend::kScalar);
      simd::GemmTN(s.m, s.n, s.k, a.data(), lda, b.data(), ldb, ref.data(),
                   ldc);
    }
    for (simd::Backend be : AvailableBackends()) {
      BackendGuard g(be);
      Vector c = c0;
      simd::GemmTN(s.m, s.n, s.k, a.data(), lda, b.data(), ldb, c.data(),
                   ldc);
      EXPECT_TRUE(BitEqual(ref, c))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " backend=" << simd::BackendName(be);
    }
  }
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Compress moves doubles without computing on them, so every tier keeps
// the same rows in the same order with the same bits — quiet and
// signaling NaN payloads and -0.0 included — for every tail of the
// AVX2 tier's 4-row step, and need words may carry bit 63.
TEST(SimdKernelTest, CompressBitIdenticalAcrossBackends) {
  Rng rng(23);
  const double specials[] = {FromBits(0x7FF8000000000123ULL),
                             FromBits(0xFFF0000000000001ULL), -0.0, 0.0,
                             -std::numeric_limits<double>::infinity()};
  constexpr uint64_t kBit63 = uint64_t{1} << 63;
  for (size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 62, 63, 64, 65,
                   1025, 1026, 1027, 1028}) {
    std::vector<double> values(n);
    std::vector<uint64_t> need(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = rng.Bernoulli(0.3) ? specials[rng.UniformInt(5)]
                                     : rng.Uniform(-3.0, 3.0);
      need[i] = rng.NextU64() & rng.NextU64() & rng.NextU64();
      if (rng.Bernoulli(0.2)) need[i] |= kBit63;
      if (rng.Bernoulli(0.2)) need[i] = 0;
    }
    for (uint64_t lacking : {uint64_t{0}, ~uint64_t{0}, kBit63,
                             rng.NextU64() | kBit63, rng.NextU64() & ~kBit63}) {
      std::vector<double> want;
      for (size_t i = 0; i < n; ++i)
        if ((need[i] & lacking) == 0) want.push_back(values[i]);
      for (simd::Backend be : AvailableBackends()) {
        BackendGuard g(be);
        std::vector<double> out(n, 7.0);
        const size_t len = simd::Compress(values.data(), need.data(), lacking,
                                          n, out.data());
        ASSERT_EQ(len, want.size())
            << "n=" << n << " backend=" << simd::BackendName(be);
        EXPECT_TRUE(BitEqual(want.data(), out.data(), len))
            << "n=" << n << " backend=" << simd::BackendName(be);
      }
    }
  }
}

// CompressSums is Compress followed by the canonical blocked sum, for one
// to four coalitions per pass. Both tiers must give the definition's bits
// — rel::CanonicalSum over the compressed values at block kBatchRows, and
// the same blocked Dot chain at smaller blocks — and its kept counts, for
// kept counts on both sides of the block boundaries, quiet and signaling
// NaN payloads, -0.0 and infinities, and need words with bit 63 set.
//
// Which payload an add of two NaNs returns depends on the operand order
// the compiler picks, which no C++ source fixes. So an input holds at most
// one NaN, or infinities of both signs (whose sum is the one default NaN)
// and no NaN: every NaN result then has a single possible payload.
TEST(SimdKernelTest, CompressSumsMatchesCompressThenCanonicalSum) {
  Rng rng(29);
  const double nans[] = {FromBits(0x7FF8000000000123ULL),
                         FromBits(0x7FF0000000000456ULL),
                         FromBits(0xFFF0000000000001ULL)};
  const double inf = std::numeric_limits<double>::infinity();
  constexpr uint64_t kBit63 = uint64_t{1} << 63;
  const std::vector<double> ones(rel::kBatchRows, 1.0);
  auto blocked_sum = [&](const std::vector<double>& v, size_t block) {
    double acc = 0.0;
    for (size_t b = 0; b < v.size(); b += block)
      acc += simd::Dot(v.data() + b, ones.data(),
                       std::min(block, v.size() - b));
    return acc;
  };
  for (size_t target : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1023, 1024,
                        1025, 2048, 2049}) {
    for (int mode = 0; mode < 3; ++mode) {
      // Coalition 0 keeps exactly `target` rows: those with need bit 0
      // clear. The others keep what their bits 1-7 allow. Bits 8-62 are
      // lacked by no coalition, bit 63 by all but the last.
      const size_t n = target + target / 3 + rng.UniformInt(6);
      std::vector<uint8_t> kept0(n, 0);
      std::fill(kept0.begin(), kept0.begin() + target, 1);
      rng.Shuffle(&kept0);
      // Mode 0: finite values and signed zeros. Mode 1: one NaN and
      // infinities of one sign. Mode 2: infinities of both signs.
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      std::vector<double> values(n);
      std::vector<uint64_t> need(n);
      for (size_t i = 0; i < n; ++i) {
        const double u = rng.Uniform();
        if (u < 0.05) {
          values[i] = -0.0;
        } else if (u < 0.1) {
          values[i] = 0.0;
        } else if (u < 0.12 && mode > 0) {
          values[i] = mode == 1 || rng.Bernoulli(0.5) ? sign * inf
                                                     : -sign * inf;
        } else {
          values[i] = rng.Uniform(-3.0, 3.0);
        }
        need[i] = (rng.NextU64() & 0x7FFFFFFFFFFFFF00ULL) |
                  (rng.NextU64() & 0xFE) | (kept0[i] ? 0 : 1);
        if (!kept0[i] && rng.Bernoulli(0.2)) need[i] |= kBit63;
      }
      if (mode == 1 && n > 0)
        values[rng.UniformInt(static_cast<int>(n))] = nans[rng.UniformInt(3)];
      const uint64_t lacking[4] = {1 | kBit63,
                                   (rng.NextU64() & 0xFE) | kBit63,
                                   0x2 | kBit63, rng.NextU64() & 0xFE};
      for (int k = 1; k <= simd::kCompressSumsWays; ++k) {
        for (size_t block : {size_t{4}, size_t{8}, size_t(rel::kBatchRows)}) {
          SCOPED_TRACE("target " + std::to_string(target) + " mode " +
                       std::to_string(mode) + " k " + std::to_string(k) +
                       " block " + std::to_string(block));
          std::vector<double> want_sum(k);
          std::vector<size_t> want_count(k);
          for (int c = 0; c < k; ++c) {
            std::vector<double> kept(n);
            kept.resize(simd::Compress(values.data(), need.data(),
                                       lacking[c], n, kept.data()));
            want_count[c] = kept.size();
            want_sum[c] = blocked_sum(kept, block);
            if (block == size_t(rel::kBatchRows)) {
              const double canonical = rel::CanonicalSum(
                  kept.data(), static_cast<int64_t>(kept.size()));
              ASSERT_TRUE(BitEqual(&want_sum[c], &canonical, 1));
            }
          }
          ASSERT_EQ(want_count[0], target);
          for (simd::Backend be : AvailableBackends()) {
            BackendGuard g(be);
            std::vector<double> sums(k, 7.0);
            std::vector<size_t> counts(k, 7);
            simd::CompressSums(values.data(), need.data(), lacking, k, n,
                               block, sums.data(), counts.data());
            EXPECT_EQ(counts, want_count) << simd::BackendName(be);
            EXPECT_TRUE(BitEqual(sums.data(), want_sum.data(), k))
                << simd::BackendName(be);
          }
        }
      }
    }
  }
}

// The one exception to bit identity (simd.h): a NaN computed from two or
// more NaN payloads is a NaN of unspecified payload, because which operand
// an add of two NaNs returns depends on an order C++ does not fix. So with
// 2-4 NaN sources of distinct payloads (quiet and signaling, both signs)
// every tier must return a NaN from Dot, rel::CanonicalSum and
// CompressSums, and nothing more is asked of its bits.
TEST(SimdKernelTest, SeveralNanSourcesGiveNanOnEveryTier) {
  Rng rng(31);
  const double nans[] = {FromBits(0x7FF8000000000123ULL),
                         FromBits(0x7FF0000000000456ULL),
                         FromBits(0xFFF8000000000789ULL),
                         FromBits(0xFFF0000000000001ULL)};
  const uint64_t lacking[simd::kCompressSumsWays] = {0x2, 0x4, 0x6, 0xFE};
  for (size_t n : {2, 3, 4, 5, 7, 8, 9, 63, 1023, 1024, 1025, 2100}) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> values(n), other(n);
      std::vector<uint64_t> need(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = rng.Uniform(-3.0, 3.0);
        other[i] = rng.Uniform(-3.0, 3.0);
        need[i] = rng.NextU64() & 0xFE;
      }
      // Distinct positions; need 0 keeps a NaN in every coalition.
      const int sources =
          std::min(2 + rng.UniformInt(3), static_cast<int>(n));
      for (int pos :
           rng.SampleWithoutReplacement(static_cast<int>(n), sources)) {
        values[pos] = nans[rng.UniformInt(4)];
        need[pos] = 0;
      }
      for (simd::Backend be : AvailableBackends()) {
        BackendGuard g(be);
        SCOPED_TRACE("n " + std::to_string(n) + " sources " +
                     std::to_string(sources) + " " + simd::BackendName(be));
        EXPECT_TRUE(std::isnan(simd::Dot(values.data(), other.data(), n)));
        EXPECT_TRUE(std::isnan(simd::Dot(other.data(), values.data(), n)));
        EXPECT_TRUE(std::isnan(
            rel::CanonicalSum(values.data(), static_cast<int64_t>(n))));
        double sums[simd::kCompressSumsWays];
        size_t counts[simd::kCompressSumsWays];
        simd::CompressSums(values.data(), need.data(), lacking,
                           simd::kCompressSumsWays, n, rel::kBatchRows, sums,
                           counts);
        for (int c = 0; c < simd::kCompressSumsWays; ++c)
          EXPECT_TRUE(std::isnan(sums[c])) << "coalition " << c;
      }
    }
  }
}

// AddScaledRows adds k scaled rows to each accumulator in row order: the
// chain of k Axpy calls in a row. Both tiers must give the bits of that
// chain as the scalar Axpy computes it, for k = 1..4, lengths around the
// 4-lane stride and the scorer's 64-row tile, and elements holding -0.0,
// subnormals, an infinity or one NaN source (quiet or signaling, either
// sign). An element gets at most one non-finite operand, so every NaN it
// produces has a single possible payload (the contract's one exception).
TEST(SimdKernelTest, AddScaledRowsIsAxpyInRowOrderOnEveryTier) {
  Rng rng(43);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double finite_specials[] = {-0.0, 0.0, tiny, -3 * tiny,
                                    std::numeric_limits<double>::min() / 4};
  const double non_finite[] = {inf, -inf, FromBits(0x7FF8000000000123ULL),
                               FromBits(0x7FF0000000000456ULL),
                               FromBits(0xFFF8000000000789ULL)};
  auto finite = [&] {
    return rng.Bernoulli(0.2) ? finite_specials[rng.UniformInt(5)]
                              : rng.Uniform(-3.0, 3.0);
  };
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (size_t n : {63, 64, 65, 127, 128, 129}) sizes.push_back(n);
  for (size_t n : sizes) {
    for (int k = 1; k <= simd::kAddScaledRowsWays; ++k) {
      for (int rep = 0; rep < 4; ++rep) {
        double s[simd::kAddScaledRowsWays];
        for (int j = 0; j < k; ++j) s[j] = finite();
        std::vector<std::vector<double>> rows(k, std::vector<double>(n));
        std::vector<double> acc0(n);
        for (size_t i = 0; i < n; ++i) {
          acc0[i] = finite();
          for (int j = 0; j < k; ++j) rows[j][i] = finite();
          if (rng.Bernoulli(0.3)) {
            const double v = non_finite[rng.UniformInt(5)];
            const int at = rng.UniformInt(k + 1);
            (at == k ? acc0[i] : rows[at][i]) = v;
          }
        }
        const double* row_ptrs[simd::kAddScaledRowsWays];
        for (int j = 0; j < k; ++j) row_ptrs[j] = rows[j].data();
        std::vector<double> want = acc0;
        {
          BackendGuard scalar(simd::Backend::kScalar);
          for (int j = 0; j < k; ++j)
            simd::Axpy(s[j], row_ptrs[j], want.data(), n);
        }
        for (simd::Backend be : AvailableBackends()) {
          BackendGuard g(be);
          std::vector<double> got = acc0;
          simd::AddScaledRows(s, row_ptrs, k, n, got.data());
          EXPECT_TRUE(BitEqual(want.data(), got.data(), n))
              << "n=" << n << " k=" << k << " rep=" << rep
              << " backend=" << simd::BackendName(be);
        }
      }
    }
  }
}

TEST(SimdKernelTest, GemmMatchesNaiveTripleLoop) {
  Rng rng(18);
  int m = 9, n = 14, k = 11;
  Matrix a(m, k), b(k, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j) a(i, j) = rng.Normal();
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) b(i, j) = rng.Normal();
  Matrix c(m, n);
  simd::Gemm(m, n, k, a.RowPtr(0), k, b.RowPtr(0), n, c.RowPtr(0), n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), acc, 1e-12) << i << "," << j;
    }
}

TEST(SimdKernelTest, SetBackendClampsToMaxSupported) {
  BackendGuard g(simd::Active());
  simd::Backend applied = simd::SetBackend(simd::Backend::kAvx2);
  EXPECT_LE(applied, simd::MaxSupported());
  EXPECT_EQ(applied, simd::Active());
  EXPECT_EQ(simd::SetBackend(simd::Backend::kScalar),
            simd::Backend::kScalar);
}

// --- Packed GEMM: the blocked/tiled path must be bit-identical to the
// direct path (same single accumulation chain per output, ascending k) on
// every backend and thread count, including every edge-tile shape. ---

TEST(SimdKernelTest, PackedGemmEdgeShapesBitIdenticalToDirect) {
  Rng rng(31);
  // Sweep shapes straddling the micro-tile (kGemmMR x kGemmNR = 4x8):
  // partial row panels, partial column panels, and the k=0 no-op.
  for (int m : {1, 3, 4, 5, 8, 9}) {
    for (int n : {1, 7, 8, 9, 16, 17}) {
      for (int k : {0, 1, 3, 5, 32, 257}) {
        int lda = k + 1, ldb = n + 2, ldc = n + 1;
        Vector a = RandomVector(static_cast<size_t>(m) * lda, &rng);
        Vector b =
            RandomVector(static_cast<size_t>(std::max(k, 1)) * ldb, &rng);
        Vector c0 = RandomVector(static_cast<size_t>(m) * ldc, &rng);
        for (simd::Backend be : AvailableBackends()) {
          BackendGuard g(be);
          Vector direct = c0, packed = c0;
          simd::GemmDirect(m, n, k, a.data(), lda, b.data(), ldb,
                           direct.data(), ldc);
          simd::GemmPacked(m, n, k, a.data(), lda, b.data(), ldb,
                           packed.data(), ldc);
          EXPECT_TRUE(BitEqual(direct, packed))
              << "m=" << m << " n=" << n << " k=" << k
              << " backend=" << simd::BackendName(be);
          if (k == 0) {  // Degenerate contraction: C must be untouched.
            EXPECT_TRUE(BitEqual(c0, packed));
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, PackedGemmTNEdgeShapesBitIdenticalToDirect) {
  Rng rng(32);
  for (int m : {1, 4, 5, 9}) {
    for (int n : {1, 8, 9, 17}) {
      for (int k : {0, 1, 5, 257}) {
        int lda = m + 1, ldb = n + 2, ldc = n + 1;  // A is k x m.
        Vector a =
            RandomVector(static_cast<size_t>(std::max(k, 1)) * lda, &rng);
        Vector b =
            RandomVector(static_cast<size_t>(std::max(k, 1)) * ldb, &rng);
        Vector c0 = RandomVector(static_cast<size_t>(m) * ldc, &rng);
        for (simd::Backend be : AvailableBackends()) {
          BackendGuard g(be);
          Vector direct = c0, packed = c0;
          simd::GemmTNDirect(m, n, k, a.data(), lda, b.data(), ldb,
                             direct.data(), ldc);
          simd::GemmTNPacked(m, n, k, a.data(), lda, b.data(), ldb,
                             packed.data(), ldc);
          EXPECT_TRUE(BitEqual(direct, packed))
              << "m=" << m << " n=" << n << " k=" << k
              << " backend=" << simd::BackendName(be);
        }
      }
    }
  }
}

TEST(SimdKernelTest, PackedGemmBitIdenticalAcrossBackendsAndThreads) {
  Rng rng(33);
  // Crosses the KC (256) and MC (128) block boundaries so multiple packed
  // panels, multiple k-blocks, and the ParallelFor row partition all engage.
  const int m = 200, n = 96, k = 300;
  Vector a = RandomVector(static_cast<size_t>(m) * k, &rng);
  Vector b = RandomVector(static_cast<size_t>(k) * n, &rng);
  Vector c0 = RandomVector(static_cast<size_t>(m) * n, &rng);
  Vector ref = c0;
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    simd::GemmDirect(m, n, k, a.data(), k, b.data(), n, ref.data(), n);
  }
  for (simd::Backend be : AvailableBackends()) {
    for (int threads : {1, 4, 8}) {
      BackendGuard g(be);
      ThreadsGuard t(threads);
      Vector c = c0;
      simd::GemmPacked(m, n, k, a.data(), k, b.data(), n, c.data(), n);
      EXPECT_TRUE(BitEqual(ref, c))
          << "backend=" << simd::BackendName(be) << " threads=" << threads;
    }
  }
}

TEST(SimdKernelTest, PackedGemmTNBitIdenticalAcrossBackendsAndThreads) {
  Rng rng(34);
  const int m = 140, n = 72, k = 300;  // A is k x m.
  Vector a = RandomVector(static_cast<size_t>(k) * m, &rng);
  Vector b = RandomVector(static_cast<size_t>(k) * n, &rng);
  Vector c0 = RandomVector(static_cast<size_t>(m) * n, &rng);
  Vector ref = c0;
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    simd::GemmTNDirect(m, n, k, a.data(), m, b.data(), n, ref.data(), n);
  }
  for (simd::Backend be : AvailableBackends()) {
    for (int threads : {1, 4, 8}) {
      BackendGuard g(be);
      ThreadsGuard t(threads);
      Vector c = c0;
      simd::GemmTNPacked(m, n, k, a.data(), m, b.data(), n, c.data(), n);
      EXPECT_TRUE(BitEqual(ref, c))
          << "backend=" << simd::BackendName(be) << " threads=" << threads;
    }
  }
}

// --- Composite paths: solver and batch prediction built on the kernels. ---

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m(i, j) = rng->Normal();
  return m;
}

TEST(SimdCompositeTest, WlsSolveBitIdenticalAcrossBackendsAndThreads) {
  Rng rng(21);
  Matrix x = RandomMatrix(120, 7, &rng);
  Vector y = RandomVector(120, &rng);
  Vector w(120);
  for (int i = 0; i < 120; ++i) w[i] = rng.Uniform(0.1, 2.0);

  Vector ref;
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    ref = WeightedRidgeRegression(x, y, w, 0.01, true).ValueOrDie();
  }
  for (simd::Backend be : AvailableBackends()) {
    for (int threads : {1, 4, 8}) {
      BackendGuard g(be);
      ThreadsGuard t(threads);
      Vector got = WeightedRidgeRegression(x, y, w, 0.01, true).ValueOrDie();
      EXPECT_TRUE(BitEqual(ref, got))
          << "backend=" << simd::BackendName(be) << " threads=" << threads;
    }
  }
}

TEST(SimdCompositeTest, LogisticBatchBitIdenticalAcrossBackendsAndThreads) {
  Rng rng(22);
  Matrix x = RandomMatrix(300, 6, &rng);
  Vector y(300);
  for (int i = 0; i < 300; ++i) y[i] = x(i, 0) + x(i, 1) > 0 ? 1.0 : 0.0;
  LogisticRegressionModel model =
      LogisticRegressionModel::Train(x, y, {}).ValueOrDie();

  Vector ref;
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    ref = model.PredictBatch(x);
  }
  // Batch must equal row-wise Predict bitwise (pinned to the scalar tier).
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    for (int i = 0; i < x.rows(); ++i) {
      double p = model.Predict(x.Row(i));
      ASSERT_TRUE(BitEqual(&ref[i], &p, 1)) << "row " << i;
    }
  }
  for (simd::Backend be : AvailableBackends()) {
    for (int threads : {1, 4, 8}) {
      BackendGuard g(be);
      ThreadsGuard t(threads);
      Vector got = model.PredictBatch(x);
      EXPECT_TRUE(BitEqual(ref, got))
          << "backend=" << simd::BackendName(be) << " threads=" << threads;
    }
  }
}

TEST(SimdCompositeTest, MlpBatchBitIdenticalToForwardAcrossBackends) {
  Rng rng(23);
  Matrix x = RandomMatrix(90, 5, &rng);
  Vector y(90);
  for (int i = 0; i < 90; ++i) y[i] = x(i, 0) - x(i, 2) > 0 ? 1.0 : 0.0;
  MlpConfig cfg;
  cfg.hidden = {9, 4};
  cfg.epochs = 5;
  MlpModel model =
      MlpModel::Train(x, y, TaskType::kClassification, cfg).ValueOrDie();

  Vector ref(x.rows());
  {
    BackendGuard g(simd::Backend::kScalar);
    ThreadsGuard t(1);
    for (int i = 0; i < x.rows(); ++i) ref[i] = model.Predict(x.Row(i));
  }
  for (simd::Backend be : AvailableBackends()) {
    for (int threads : {1, 4, 8}) {
      BackendGuard g(be);
      ThreadsGuard t(threads);
      Vector got = model.PredictBatch(x);
      EXPECT_TRUE(BitEqual(ref, got))
          << "backend=" << simd::BackendName(be) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace xai
