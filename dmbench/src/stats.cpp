#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dmbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double TailP90(std::vector<double> samples, double* percentile) {
  const size_t n = samples.size();
  if (n < 20) {
    if (percentile != nullptr) *percentile = 50.0;
    return Median(std::move(samples));
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank r (1-based) leaves n - r samples beyond it.
  const size_t p90_rank = (9 * n + 9) / 10;  // ceil(0.9 n)
  const size_t rank = std::min(p90_rank, n - 10);
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  return samples[rank - 1];
}

double TrimmedMean(std::vector<double> samples, double trim) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = static_cast<size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

double RatePerSecond(const std::vector<double>& work,
                     const std::vector<double>& seconds) {
  double w = 0, s = 0;
  for (double v : work) w += v;
  for (double v : seconds) s += v;
  return s > 0 ? w / s : 0.0;
}

double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst,
                     std::fabs(a[i] - b[i]) / std::max(1.0, std::fabs(b[i])));
  }
  return worst;
}

double HistogramDeltaPercentile(const std::vector<double>& bounds,
                                const std::vector<double>& before,
                                const std::vector<double>& after, double p) {
  std::vector<double> delta(after.size(), 0.0);
  double total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0.0);
    total += delta[i];
  }
  if (total <= 0 || bounds.empty()) return 0.0;
  const double target = total * p / 100.0;
  double seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] <= 0) continue;
    if (seen + delta[i] >= target) {
      if (i >= bounds.size()) return bounds.back();  // Overflow bucket.
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (target - seen) / delta[i];
      return lo + frac * (bounds[i] - lo);
    }
    seen += delta[i];
  }
  return bounds.back();
}

}  // namespace dmbench
