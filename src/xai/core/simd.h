#ifndef XAI_CORE_SIMD_H_
#define XAI_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Portable vectorized math kernels — the dense-linear-algebra core under
/// Matrix, the WLS solvers, Newton steps, and batch prediction.
///
/// Two backends are compiled into every binary and selected behind one
/// dispatch point (a function-pointer table resolved per SetBackend() /
/// environment read — kernels never branch on the backend internally):
///   - kAvx2:   4-wide AVX2, multiply then add (no fused multiply-add),
///   - kScalar: plain doubles, the reference and the fallback on hosts
///              without AVX2.
/// The active backend is chosen at startup from CPUID, overridable with the
/// environment variable `XAI_SIMD=avx2|scalar` (for A/B testing and the
/// scalar CI job) and at runtime with SetBackend (tests and benches only —
/// not thread-safe against concurrent kernel calls). Unknown XAI_SIMD
/// values abort: a typo silently falling back to auto-detection would
/// invalidate whatever A/B experiment the variable was set for.
///
/// Determinism contract (the analogue of the parallel runtime's fixed
/// chunking, §6 of DESIGN.md): every reduction uses a fixed 4-wide striped
/// accumulator layout —
///
///   acc[l] += a[4*i + l] * b[4*i + l]      l = 0..3, i ascending
///   tail elements r go into acc[r]
///   result = (acc[0] + acc[1]) + (acc[2] + acc[3])
///
/// — which the AVX2 backend holds in one register and the scalar backend
/// emulates with four named doubles. Elementwise kernels (Axpy,
/// WeightedOuterAccumulate, Gemm) carry one independent accumulation chain
/// per output element, ordered by the contraction index. Because each IEEE
/// lane operation is identical across widths, every kernel is bit-identical
/// across both backends and any thread count — including the packed,
/// cache-blocked, multithreaded GEMM path: KC blocks are processed serially
/// in ascending contraction order, row panels partition C disjointly across
/// threads, and edge micro-kernels only touch valid panel lanes (never zero
/// padding, which could flip -0.0 to +0.0). A fused multiply-add rounds
/// once where this contract rounds twice, so no backend uses one.
///
/// The one exception: a NaN computed from two or more NaN payloads is a
/// NaN of unspecified payload. Which operand an add of two NaNs returns
/// depends on an operand order that C++ does not fix, so tiers (and
/// compilers) may disagree on the payload, never on NaN-ness. A result
/// with at most one NaN source is bit-identical like any other.
namespace xai {
namespace simd {

/// Values order the tiers by capability; SetBackend clamps by comparing them.
enum class Backend { kScalar = 0, kAvx2 = 2 };

/// Register-tile shape of the packed GEMM micro-kernel: each call updates an
/// MR x NR block of C over a KC-long contraction. Exposed so tests can probe
/// the edge shapes (m, n in {1, MR-1, MR, MR+1, ...}) deliberately.
inline constexpr int kGemmMR = 4;
inline constexpr int kGemmNR = 8;

/// Name for logs/benches: "scalar", "avx2".
const char* BackendName(Backend backend);

/// Best backend this CPU can execute: kAvx2 when the CPU has AVX2, else
/// kScalar (always kScalar on non-x86).
Backend MaxSupported();

/// Parses an XAI_SIMD value ("scalar" | "avx2") into a Backend. Aborts via
/// XAI_CHECK on nullptr or any other string — a typo'd backend name must
/// not silently fall back to auto-detection.
Backend ParseBackendName(const char* name);

/// The backend all kernels currently dispatch to. Initialized on first use
/// from XAI_SIMD (clamped to what the hardware supports), defaulting to
/// MaxSupported().
Backend Active();

/// Forces the active backend and re-resolves the kernel dispatch table
/// (returns what was actually applied: a request above MaxSupported()
/// clamps to it). For tests and benches; do not call concurrently with
/// running kernels.
Backend SetBackend(Backend backend);

/// \name Kernels
/// All pointers may alias only where noted; n == 0 is always valid.
/// @{

/// Striped dot product sum_i a[i] * b[i].
double Dot(const double* a, const double* b, size_t n);

/// y[i] += s * x[i] (elementwise; x and y must not alias).
void Axpy(double s, const double* x, double* y, size_t n);

/// Striped sum_i w[i] * (a[i] - b[i])^2; pass w == nullptr for the
/// unweighted distance. The per-lane term is ((a-b)*(a-b)) * w.
double ScaledSquaredDistance(const double* a, const double* b, size_t n,
                             const double* w = nullptr);

/// Rank-1 upper-triangle update for X^T diag(s) X assembly:
///   g[a * stride + b] += (w * row[a]) * row[b]   for 0 <= a <= b < d.
/// Only the upper triangle is written; callers mirror it once at the end.
void WeightedOuterAccumulate(double w, const double* row, int d, double* g,
                             int stride);

/// Register-blocked C += A * B for row-major operands:
///   A is m x k (leading dimension lda), B is k x n (ldb), C is m x n (ldc).
/// Each C element accumulates over the contraction index in ascending
/// order, so the result is independent of the blocking, backend, and thread
/// count. Routes to GemmPacked above a size threshold and GemmDirect below
/// it; both produce identical bits.
void Gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc);

/// C += A^T * B for row-major operands: A is k x m (lda), B is k x n (ldb),
/// C is m x n (ldc). This is the normal-equation / Gram building block
/// (B == A and unit weights give X^T X). Same packed/direct routing and
/// chain guarantees as Gemm.
void GemmTN(int m, int n, int k, const double* a, int lda, const double* b,
            int ldb, double* c, int ldc);

/// The unpacked register-tiled GEMM (the pre-packing code path): streams B
/// rows straight from memory with no copy. Wins below the packing threshold
/// and serves as the A/B baseline for bench_e21's packed-vs-direct row.
void GemmDirect(int m, int n, int k, const double* a, int lda,
                const double* b, int ldb, double* c, int ldc);

/// Direct (unpacked) C += A^T * B; see GemmDirect.
void GemmTNDirect(int m, int n, int k, const double* a, int lda,
                  const double* b, int ldb, double* c, int ldc);

/// Packed, cache-blocked, multithreaded GEMM: A is repacked into contiguous
/// MR x KC panels and B into KC x NR panels so the micro-kernel streams at
/// unit stride regardless of the leading dimensions; KC x NC blocks of B are
/// shared across a ParallelFor over MC-row blocks of C (disjoint C rows per
/// chunk — deterministic and race-free at any thread count). Bit-identical
/// to GemmDirect.
void GemmPacked(int m, int n, int k, const double* a, int lda,
                const double* b, int ldb, double* c, int ldc);

/// Packed C += A^T * B; see GemmPacked.
void GemmTNPacked(int m, int n, int k, const double* a, int lda,
                  const double* b, int ldb, double* c, int ldc);

/// Syrk-style Gram update C += A^T * B restricted to the upper triangle:
/// A and B are k x dim (lda/ldb), C is dim x dim (ldc). Register tiles
/// entirely below the diagonal are skipped — about half the flops of the
/// full product — and tiles straddling the diagonal are computed in full,
/// so entries with b < a are UNDEFINED (partially updated); read only
/// C[a][b] with b >= a. Upper-triangle chains are identical to GemmTN's
/// (and to WeightedOuterAccumulate replay), so the bit-identity contract
/// holds wherever reads are allowed. This is WlsAccumulator's Gram kernel.
void GemmTNUpper(int dim, int k, const double* a, int lda, const double* b,
                 int ldb, double* c, int ldc);

/// Stream compaction by need words: copies every values[i] (i < n) whose
/// need[i] shares no bit with `lacking` to out, in order, and returns how
/// many it copied. Values are moved, never computed on, so NaN payloads
/// and -0.0 arrive unchanged. `out` must have room for n values (a tier
/// may write past the returned count, never past n) and must not overlap
/// `values` or `need`. This is the dbx shared scan's per-coalition gather:
/// need[i] holds the coalition bits row i needs, `lacking` the bits the
/// coalition lacks.
size_t Compress(const double* values, const uint64_t* need, uint64_t lacking,
                size_t n, double* out);

/// Most coalitions one CompressSums pass serves.
inline constexpr int kCompressSumsWays = 4;

/// Fused gather-sum: for each c < k (1 <= k <= kCompressSumsWays), in one
/// pass over the rows, counts[c] is the number of values Compress(values,
/// need, lacking[c], n) would keep and sums[c] is their blocked striped
/// sum. The kept values split into consecutive blocks of `block` values
/// (a positive multiple of 4); each block is reduced the way
/// Dot(block values, ones) reduces it — stripe lane l takes the block's
/// values l, l + 4, ... — and the block partials are added in order to
/// 0.0. With block = rel::kBatchRows, sums[c] is bit-identical to
/// rel::CanonicalSum over the compressed values (-0.0, infinities and a
/// single NaN payload included; several kept NaNs give a NaN of
/// unspecified payload, the contract's one exception), and no kept value
/// is ever stored. This is the
/// dbx shared scan's SUM/COUNT/AVG kernel: one coalition's lacking bits
/// per lacking[c].
void CompressSums(const double* values, const uint64_t* need,
                  const uint64_t* lacking, int k, size_t n, size_t block,
                  double* sums, size_t* counts);

/// Most rows one AddScaledRows call adds.
inline constexpr int kAddScaledRowsWays = 4;

/// acc[i] += s[j] * rows[j][i] for j = 0, 1, ..., k - 1 in turn and every
/// i < n (1 <= k <= kAddScaledRowsWays): each element carries one chain in
/// row order, so the result is bit-identical to k Axpy calls in a row,
/// while each accumulator is loaded and stored once. No row may overlap
/// `acc`. This is the coalition scorer's leaf accumulate
/// (model/flat_ensemble.h): one row of leaf values per tree, in tree order.
void AddScaledRows(const double* s, const double* const* rows, int k,
                   size_t n, double* acc);

/// @}

}  // namespace simd
}  // namespace xai

#endif  // XAI_CORE_SIMD_H_
