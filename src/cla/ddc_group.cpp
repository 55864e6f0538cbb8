#include "cla/ddc_group.h"

#include <algorithm>
#include <vector>

#include "cla/kwide.h"

namespace dmml::cla {

namespace {
// Per-worker scratch for the code-grouped accumulation paths. Each pool
// worker (or the calling thread) owns its copy; a buffer is always consumed
// before the next ranged call overwrites it.
thread_local std::vector<double> t_code_acc;

double* CodeScratch(size_t need) {
  if (t_code_acc.size() < need) t_code_acc.resize(need);
  return t_code_acc.data();
}
}  // namespace

DdcGroup::DdcGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns)
    : ColumnGroup(std::move(columns), m.rows()) {
  std::vector<uint32_t> raw_codes;
  BuildDictionary(m, columns_, &dict_, &raw_codes);
  codes_ = CodeArray(n_, dict_.num_entries());
  for (size_t i = 0; i < n_; ++i) codes_.Set(i, raw_codes[i]);
}

size_t DdcGroup::SizeInBytes() const {
  return dict_.SizeInBytes() + codes_.SizeInBytes() +
         columns_.size() * sizeof(uint32_t);
}

size_t DdcGroup::EstimateSize(size_t n, size_t cardinality, size_t width) {
  size_t code_width = cardinality <= 256 ? 1 : (cardinality <= 65536 ? 2 : 4);
  return cardinality * width * sizeof(double) + n * code_width +
         width * sizeof(uint32_t);
}

void DdcGroup::DecompressRange(la::DenseMatrix* out, size_t row_begin,
                               size_t row_end, size_t row_offset) const {
  const size_t w = columns_.size();
  codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
    const double* entry = dict_.Entry(code);
    for (size_t j = 0; j < w; ++j) {
      out->At(i - row_offset, columns_[j]) = entry[j];
    }
  });
}

void DdcGroup::MultiplyVectorRange(const double* v, const double* preagg,
                                   double* y, size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  // Dictionary pre-aggregated against v once (O(card * w)), then one table
  // lookup per row.
  const double* p = EnsureVectorPreagg(v, preagg);
  codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
    y[i - row_offset] += p[code];
  });
}

void DdcGroup::VectorMultiplyRange(const double* u, double* out,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const size_t w = columns_.size();
  const size_t entries = dict_.num_entries();
  const size_t range = row_end - row_begin;
  if (entries > range / 2) {
    // Huge dictionaries (cardinality near n): zeroing + expanding a
    // dictionary-sized accumulator costs more than the rows themselves.
    codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
      const double ui = u[i - row_offset];
      if (ui == 0.0) return;
      const double* entry = dict_.Entry(code);
      for (size_t j = 0; j < w; ++j) out[columns_[j]] += ui * entry[j];
    });
    return;
  }
  // Group-accumulate u per dictionary entry, then expand once: a single pass
  // over the codes with no per-row indirection into `out`.
  double* acc = CodeScratch(entries);
  std::fill(acc, acc + entries, 0.0);
  codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
    acc[code] += u[i - row_offset];
  });
  if (w == 1) {
    // Single-column fast path: one dot product dictionary ⋅ partials.
    const double* dict = dict_.values.data();
    double total = 0;
    for (size_t e = 0; e < entries; ++e) total += acc[e] * dict[e];
    out[columns_[0]] += total;
    return;
  }
  for (size_t e = 0; e < entries; ++e) {
    if (acc[e] == 0.0) continue;
    const double* entry = dict_.Entry(e);
    for (size_t j = 0; j < w; ++j) out[columns_[j]] += acc[e] * entry[j];
  }
}

void DdcGroup::MultiplyMatrixRange(const la::DenseMatrix& m,
                                   const double* preagg, la::DenseMatrix* y,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  // Pre-aggregate the dictionary against all k columns of m at once, then a
  // single k-wide AXPY per row — the matrix generalization of the MV kernel.
  const size_t k = m.cols();
  const double* p = EnsureMatrixPreagg(m, preagg);
  codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
    KWideAdd(y->Row(i - row_offset), p + code * k, k);
  });
}

void DdcGroup::TransposeMultiplyMatrixRange(const la::DenseMatrix& m,
                                            double* out, size_t row_begin,
                                            size_t row_end,
                                            size_t row_offset) const {
  const size_t w = columns_.size();
  const size_t k = m.cols();
  const size_t entries = dict_.num_entries();
  const size_t range = row_end - row_begin;
  if (entries > range / 2) {
    codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
      const double* entry = dict_.Entry(code);
      const double* src = m.Row(i - row_offset);
      for (size_t j = 0; j < w; ++j) {
        const double ej = entry[j];
        if (ej == 0.0) continue;
        KWideAxpy(out + columns_[j] * k, ej, src, k);
      }
    });
    return;
  }
  // Accumulate rows of m per dictionary entry, then expand through the
  // dictionary once.
  double* acc = CodeScratch(entries * k);
  std::fill(acc, acc + entries * k, 0.0);
  codes_.ForEach(row_begin, row_end, [&](size_t i, uint32_t code) {
    KWideAdd(acc + code * k, m.Row(i - row_offset), k);
  });
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

double DdcGroup::SumRange(size_t row_begin, size_t row_end) const {
  const size_t w = columns_.size();
  const size_t entries = dict_.num_entries();
  const size_t range = row_end - row_begin;
  double acc = 0;
  if (entries > range / 2) {
    codes_.ForEach(row_begin, row_end, [&](size_t, uint32_t code) {
      const double* entry = dict_.Entry(code);
      for (size_t j = 0; j < w; ++j) acc += entry[j];
    });
    return acc;
  }
  // Count per code, then weight by per-entry tuple sums.
  double* counts = CodeScratch(entries);
  std::fill(counts, counts + entries, 0.0);
  codes_.ForEach(row_begin, row_end,
                 [&](size_t, uint32_t code) { counts[code] += 1.0; });
  for (size_t e = 0; e < entries; ++e) {
    if (counts[e] == 0.0) continue;
    const double* entry = dict_.Entry(e);
    double tuple_sum = 0;
    for (size_t j = 0; j < w; ++j) tuple_sum += entry[j];
    acc += tuple_sum * counts[e];
  }
  return acc;
}

void DdcGroup::AddRowSquaredNormsRange(const double* preagg, double* out,
                                       size_t row_begin, size_t row_end) const {
  const double* p = EnsureSquaredNormPreagg(preagg);
  codes_.ForEach(row_begin, row_end,
                 [&](size_t i, uint32_t code) { out[i] += p[code]; });
}

}  // namespace dmml::cla
