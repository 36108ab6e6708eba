#include "xai/core/combinatorics.h"

#include <bit>

#include "xai/core/check.h"

namespace xai {

double Factorial(int n) {
  XAI_CHECK_GE(n, 0);
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

double BinomialCoefficient(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  k = std::min(k, n - k);
  double c = 1.0;
  for (int i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

double ShapleyWeight(int n, int subset_size) {
  XAI_CHECK(subset_size >= 0 && subset_size < n);
  return Factorial(subset_size) * Factorial(n - subset_size - 1) /
         Factorial(n);
}

int PopCount(uint64_t mask) { return std::popcount(mask); }

std::vector<int> MaskToIndices(uint64_t mask) {
  std::vector<int> out;
  for (int i = 0; i < 64; ++i)
    if (mask & (1ULL << i)) out.push_back(i);
  return out;
}

uint64_t IndicesToMask(const std::vector<int>& indices) {
  uint64_t mask = 0;
  for (int i : indices) {
    XAI_CHECK(i >= 0 && i < 64);
    mask |= 1ULL << i;
  }
  return mask;
}

std::vector<double> ShapleyOfSetFunction(
    int n, const std::function<double(uint64_t)>& v) {
  XAI_CHECK(n >= 0 && n <= 24);
  if (n == 0) return {};
  // Cache all 2^n values (each evaluated once).
  std::vector<double> values(uint64_t{1} << n);
  for (uint64_t mask = 0; mask < values.size(); ++mask) values[mask] = v(mask);
  return ShapleyOfValueTable(n, values);
}

std::vector<double> ShapleyOfValueTable(int n,
                                        const std::vector<double>& values) {
  XAI_CHECK(n >= 0 && n <= 24);
  XAI_CHECK_EQ(values.size(), uint64_t{1} << n);
  std::vector<double> phi(n, 0.0);
  if (n == 0) return phi;
  const uint64_t limit = values.size();
  std::vector<double> w(n);
  for (int s = 0; s < n; ++s) w[s] = ShapleyWeight(n, s);
  for (uint64_t mask = 0; mask < limit; ++mask) {
    int size = PopCount(mask);
    if (size == n) continue;
    for (int i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) continue;
      phi[i] += w[size] * (values[mask | (1ULL << i)] - values[mask]);
    }
  }
  return phi;
}

}  // namespace xai
