// Order statistics shared by the timed and traced runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace loadbench {

/// 0-based rank of the nearest-rank q-quantile of n sorted values.
[[nodiscard]] inline std::size_t quantileRank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// Nearest-rank q-quantile; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = quantileRank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Geometric mean of positive values; 0 for an empty sample.
[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logSum = 0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

}  // namespace loadbench
