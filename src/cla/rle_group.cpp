#include "cla/rle_group.h"

#include <algorithm>
#include <vector>

#include "cla/kwide.h"

namespace dmml::cla {

namespace {
bool EntryIsZero(const double* entry, size_t w) {
  for (size_t j = 0; j < w; ++j) {
    if (entry[j] != 0.0) return false;
  }
  return true;
}

thread_local std::vector<double> t_rle_acc;

double* RleScratch(size_t need) {
  if (t_rle_acc.size() < need) t_rle_acc.resize(need);
  return t_rle_acc.data();
}
}  // namespace

RleGroup::RleGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns)
    : ColumnGroup(std::move(columns), m.rows()) {
  std::vector<uint32_t> codes;
  BuildDictionary(m, columns_, &dict_, &codes);

  const size_t w = columns_.size();
  // Zero-suppression: drop runs whose dictionary tuple is entirely zero.
  std::vector<bool> is_zero(dict_.num_entries());
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    is_zero[e] = EntryIsZero(dict_.Entry(e), w);
  }

  size_t i = 0;
  while (i < n_) {
    size_t j = i;
    while (j + 1 < n_ && codes[j + 1] == codes[i]) ++j;
    if (!is_zero[codes[i]]) {
      runs_.push_back({static_cast<uint32_t>(i),
                       static_cast<uint32_t>(j - i + 1), codes[i]});
    }
    i = j + 1;
  }

  // Skip index: for each kSkipBlock-aligned block, the first run whose span
  // reaches the block start. Single sweep over the (sorted) run list.
  const size_t num_blocks = n_ / kSkipBlock + 1;
  skip_.resize(num_blocks);
  size_t run = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t row = b * kSkipBlock;
    while (run < runs_.size() &&
           runs_[run].start + runs_[run].length <= row) {
      ++run;
    }
    skip_[b] = static_cast<uint32_t>(run);
  }
}

size_t RleGroup::FirstRunReaching(size_t row) const {
  size_t r = skip_[row / kSkipBlock];
  while (r < runs_.size() && runs_[r].start + runs_[r].length <= row) ++r;
  return r;
}

size_t RleGroup::SizeInBytes() const {
  return dict_.SizeInBytes() + runs_.size() * sizeof(Run) +
         skip_.size() * sizeof(uint32_t) + columns_.size() * sizeof(uint32_t);
}

size_t RleGroup::EstimateSize(size_t num_nonzero_runs, size_t cardinality,
                              size_t width) {
  return cardinality * width * sizeof(double) + num_nonzero_runs * sizeof(Run) +
         width * sizeof(uint32_t);
}

void RleGroup::DecompressRange(la::DenseMatrix* out, size_t row_begin,
                               size_t row_end, size_t row_offset) const {
  const size_t w = columns_.size();
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    const double* entry = dict_.Entry(run.code);
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < w; ++j) {
        out->At(i - row_offset, columns_[j]) = entry[j];
      }
    }
  }
}

void RleGroup::MultiplyVectorRange(const double* v, const double* preagg,
                                   double* y, size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const double* p = EnsureVectorPreagg(v, preagg);
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const double add = p[run.code];
    if (add == 0.0) continue;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    for (size_t i = lo; i < hi; ++i) y[i - row_offset] += add;
  }
}

void RleGroup::VectorMultiplyRange(const double* u, double* out,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  // Per-entry accumulation of u over each clipped run, then one expand. A
  // run's rows add straight onto its entry's sum, in the order the k-wide
  // TransposeMultiplyMatrixRange adds them, so one column rounds alike on
  // both kernels.
  const size_t entries = dict_.num_entries();
  double* acc = RleScratch(entries);
  std::fill(acc, acc + entries, 0.0);
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    double s = acc[run.code];
    for (size_t i = lo; i < hi; ++i) s += u[i - row_offset];
    acc[run.code] = s;
  }
  const size_t w = columns_.size();
  for (size_t e = 0; e < entries; ++e) {
    if (acc[e] == 0.0) continue;
    const double* entry = dict_.Entry(e);
    for (size_t j = 0; j < w; ++j) out[columns_[j]] += acc[e] * entry[j];
  }
}

void RleGroup::MultiplyMatrixRange(const la::DenseMatrix& m,
                                   const double* preagg, la::DenseMatrix* y,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const size_t k = m.cols();
  const double* p = EnsureMatrixPreagg(m, preagg);
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    const double* src = p + run.code * k;
    for (size_t i = lo; i < hi; ++i) {
      KWideAdd(y->Row(i - row_offset), src, k);
    }
  }
}

void RleGroup::TransposeMultiplyMatrixRange(const la::DenseMatrix& m,
                                            double* out, size_t row_begin,
                                            size_t row_end,
                                            size_t row_offset) const {
  // Accumulate rows of m per dictionary entry across clipped runs, then
  // expand through the dictionary once.
  const size_t k = m.cols();
  const size_t entries = dict_.num_entries();
  double* acc = RleScratch(entries * k);
  std::fill(acc, acc + entries * k, 0.0);
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    double* dst = acc + run.code * k;
    for (size_t i = lo; i < hi; ++i) {
      KWideAdd(dst, m.Row(i - row_offset), k);
    }
  }
  const size_t w = columns_.size();
  for (size_t e = 0; e < entries; ++e) {
    const double* entry = dict_.Entry(e);
    const double* a = acc + e * k;
    for (size_t j = 0; j < w; ++j) {
      const double ej = entry[j];
      if (ej == 0.0) continue;
      KWideAxpy(out + columns_[j] * k, ej, a, k);
    }
  }
}

double RleGroup::SumRange(size_t row_begin, size_t row_end) const {
  const size_t w = columns_.size();
  double acc = 0;
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    const double* entry = dict_.Entry(run.code);
    double tuple_sum = 0;
    for (size_t j = 0; j < w; ++j) tuple_sum += entry[j];
    acc += tuple_sum * static_cast<double>(hi - lo);
  }
  return acc;
}

void RleGroup::AddRowSquaredNormsRange(const double* preagg, double* out,
                                       size_t row_begin, size_t row_end) const {
  const double* p = EnsureSquaredNormPreagg(preagg);
  for (size_t r = FirstRunReaching(row_begin); r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.start >= row_end) break;
    const double add = p[run.code];
    if (add == 0.0) continue;
    const size_t lo = std::max<size_t>(run.start, row_begin);
    const size_t hi = std::min<size_t>(run.start + run.length, row_end);
    for (size_t i = lo; i < hi; ++i) out[i] += add;
  }
}

}  // namespace dmml::cla
