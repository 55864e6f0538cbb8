// Summary statistics the benchmark reports. End-to-end timings are trimmed
// means and Σwork/Σtime rates over many closed-loop ops: on a shared host the
// minimum of a window is the least steady statistic, the median of a bimodal
// sample jumps between its modes, and a single p90 needs at least ten
// samples beyond it before it means anything.
#ifndef DMBENCH_STATS_H_
#define DMBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace dmbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> samples);

/// Mean of the samples left after dropping floor(`trim` × n) of the lowest
/// and as many of the highest; 0 when empty.
double TrimmedMean(std::vector<double> samples, double trim);

/// The tail timing the benchmark reports: the value at the p90 nearest rank,
/// lowered until at least ten samples lie beyond it, and never below the
/// median. `*percentile` receives the percentile actually reported (90 once
/// there are 100 or more samples; 50 when there are fewer than 20).
double TailP90(std::vector<double> samples, double* percentile = nullptr);

/// Σwork / Σseconds: a mean-based rate, so a periodic stall that a median
/// hides still shows. 0 when no time was spent.
double RatePerSecond(const std::vector<double>& work,
                     const std::vector<double>& seconds);

/// Largest |a[i] - b[i]| / max(1, |b[i]|); +inf when the sizes differ or a
/// value is not finite.
double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b);

/// Bucket-interpolated percentile of the observations between two snapshots
/// of one obs::Histogram: `before`/`after` are per-bucket counts (the last
/// bucket is the overflow bucket), `bounds` the bucket upper bounds. Returns
/// 0 when no observation landed in between.
double HistogramDeltaPercentile(const std::vector<double>& bounds,
                                const std::vector<double>& before,
                                const std::vector<double>& after, double p);

}  // namespace dmbench

#endif  // DMBENCH_STATS_H_
