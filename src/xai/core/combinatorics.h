#ifndef XAI_CORE_COMBINATORICS_H_
#define XAI_CORE_COMBINATORICS_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace xai {

/// \brief Subset/permutation utilities for the exact Shapley computations.
/// Subsets of up to 63 elements are represented as uint64_t bitmasks.

/// n! as a double (exact up to n = 170 in double range).
double Factorial(int n);

/// Binomial coefficient C(n, k) as a double.
double BinomialCoefficient(int n, int k);

/// The classic Shapley permutation weight |S|! (n - |S| - 1)! / n!.
double ShapleyWeight(int n, int subset_size);

/// Number of set bits.
int PopCount(uint64_t mask);

/// Elements of a bitmask as a sorted vector of indices.
std::vector<int> MaskToIndices(uint64_t mask);

/// Bitmask for a set of indices (each < 64).
uint64_t IndicesToMask(const std::vector<int>& indices);

/// Exact Shapley values of an arbitrary set function v over n players
/// (full 2^n enumeration; n <= 24). The generic workhorse shared by the
/// feature explainers, the tuple-Shapley engine and pipeline-stage
/// attribution. `v` is called at most 2^n times.
std::vector<double> ShapleyOfSetFunction(
    int n, const std::function<double(uint64_t)>& v);

/// ShapleyOfSetFunction over a table of all 2^n coalition values,
/// values[mask] = v(mask): the same values, bit for bit.
std::vector<double> ShapleyOfValueTable(int n,
                                        const std::vector<double>& values);

}  // namespace xai

#endif  // XAI_CORE_COMBINATORICS_H_
