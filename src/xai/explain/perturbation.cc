#include "xai/explain/perturbation.h"

#include <algorithm>
#include <cmath>

#include "xai/core/check.h"
#include "xai/core/stats.h"

namespace xai {

Perturber::Perturber(const Dataset& train, Strategy strategy,
                     int discretizer_bins)
    : strategy_(strategy),
      schema_(train.schema()),
      discretizer_(QuantileDiscretizer::Fit(train, discretizer_bins)) {
  int d = train.num_features();
  means_.resize(d, 0.0);
  stddevs_.resize(d, 1.0);
  category_freq_.resize(d);
  bin_freq_.resize(d);
  for (int j = 0; j < d; ++j) {
    std::vector<double> col = train.x().Col(j);
    const FeatureSpec& spec = schema_.features[j];
    if (spec.is_categorical()) {
      category_freq_[j].assign(std::max(1, spec.num_categories()), 0.0);
      for (double v : col) {
        int c = static_cast<int>(v);
        if (c >= 0 && c < static_cast<int>(category_freq_[j].size()))
          category_freq_[j][c] += 1.0;
      }
    } else {
      means_[j] = Mean(col);
      double sd = StdDev(col);
      stddevs_[j] = sd > 1e-9 ? sd : 1.0;
    }
    bin_freq_[j].assign(discretizer_.NumBins(j), 0.0);
    for (double v : col) bin_freq_[j][discretizer_.BinOf(j, v)] += 1.0;
  }
}

Matrix Perturber::Sample(const Vector& instance, int n, Rng* rng,
                         const std::vector<int>& frozen) const {
  Matrix out(n, static_cast<int>(instance.size()));
  SampleInto(instance, n, rng, out.RowPtr(0), frozen);
  return out;
}

void Perturber::SampleInto(const Vector& instance, int n, Rng* rng,
                           double* out, const std::vector<int>& frozen) const {
  int d = static_cast<int>(instance.size());
  XAI_CHECK_EQ(d, schema_.num_features());
  std::vector<bool> is_frozen(d, false);
  for (int f : frozen) is_frozen[f] = true;

  for (int i = 0; i < n; ++i) {
    double* row = out + static_cast<size_t>(i) * d;
    for (int j = 0; j < d; ++j) {
      if (is_frozen[j]) {
        row[j] = instance[j];
        continue;
      }
      const FeatureSpec& spec = schema_.features[j];
      if (strategy_ == Strategy::kDiscretized) {
        int bin = rng->Categorical(bin_freq_[j]);
        row[j] = spec.is_categorical()
                     ? bin
                     : discretizer_.SampleFromBin(j, bin, rng);
      } else {
        row[j] = spec.is_categorical()
                     ? rng->Categorical(category_freq_[j])
                     : instance[j] + stddevs_[j] * rng->Normal();
      }
    }
  }
}

std::vector<int> Perturber::Interpretable(const Vector& instance,
                                          const Vector& sample) const {
  int d = static_cast<int>(instance.size());
  std::vector<int> z(d);
  for (int j = 0; j < d; ++j) {
    const FeatureSpec& spec = schema_.features[j];
    if (spec.is_categorical()) {
      z[j] = static_cast<int>(instance[j]) == static_cast<int>(sample[j]);
    } else if (strategy_ == Strategy::kDiscretized) {
      z[j] = discretizer_.BinOf(j, instance[j]) ==
             discretizer_.BinOf(j, sample[j]);
    } else {
      z[j] = std::fabs(instance[j] - sample[j]) <= stddevs_[j];
    }
  }
  return z;
}

double Perturber::Distance(const Vector& a, const Vector& b) const {
  return Distance(a.data(), b.data(), a.size());
}

double Perturber::Distance(const double* a, const double* b, size_t n) const {
  double acc = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const FeatureSpec& spec = schema_.features[j];
    double dj;
    if (spec.is_categorical()) {
      dj = static_cast<int>(a[j]) == static_cast<int>(b[j]) ? 0.0 : 1.0;
    } else {
      dj = (a[j] - b[j]) / stddevs_[j];
    }
    acc += dj * dj;
  }
  return std::sqrt(acc);
}

}  // namespace xai
