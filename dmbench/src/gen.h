// Input generation. The benchmark owns its generator, so a change to the
// program's own RNG cannot change the inputs: the same seed gives the same
// inputs on every commit.
#ifndef DMBENCH_GEN_H_
#define DMBENCH_GEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace dmbench {

/// SplitMix64 stream with uniform and normal draws.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Normal();   ///< N(0, 1)
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent seed for stream `stream` of run seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Gen* gen) const;

 private:
  std::vector<double> cdf_;
};

/// Writes a CSV file: the `header` line, then `rows` lines, each produced by
/// `row(i, &line)` appending comma-separated cells to an empty `line`.
dmml::Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                size_t rows,
                const std::function<void(size_t, std::string*)>& row);

/// Appends `v` as round-trip text (%.17g), so ingest reads back the exact
/// bits, preceded by a comma unless `line` is empty.
void AppendCell(std::string* line, double v);
void AppendCell(std::string* line, int64_t v);
void AppendCell(std::string* line, const std::string& v);

}  // namespace dmbench

#endif  // DMBENCH_GEN_H_
