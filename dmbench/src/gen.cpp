#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace dmbench {

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Gen::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Gen::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Gen g(seed * 0x100000001b3ULL + stream * 0x9e3779b97f4a7c15ULL + 1);
  return g.Next();
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Gen* gen) const {
  const double u = gen->Uniform();
  const size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

dmml::Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                size_t rows,
                const std::function<void(size_t, std::string*)>& row) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                           &std::fclose);
  if (!f) return dmml::Status::IOError("cannot write " + path);
  std::string line;
  for (const std::string& h : header) AppendCell(&line, h);
  line += '\n';
  for (size_t i = 0; i < rows; ++i) {
    if (line.size() > (1u << 16)) {
      std::fwrite(line.data(), 1, line.size(), f.get());
      line.clear();
    }
    std::string cells;
    row(i, &cells);
    line += cells;
    line += '\n';
  }
  std::fwrite(line.data(), 1, line.size(), f.get());
  if (std::fflush(f.get()) != 0) return dmml::Status::IOError("short write " + path);
  return dmml::Status::OK();
}

void AppendCell(std::string* line, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  AppendCell(line, std::string(buf));
}

void AppendCell(std::string* line, int64_t v) {
  AppendCell(line, std::to_string(v));
}

void AppendCell(std::string* line, const std::string& v) {
  if (!line->empty()) *line += ',';
  *line += v;
}

}  // namespace dmbench
