#include "cla/ole_group.h"

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

thread_local std::vector<double> t_ole_acc;

double* OleScratch(size_t need) {
  if (t_ole_acc.size() < need) t_ole_acc.resize(need);
  return t_ole_acc.data();
}
}  // namespace

OleGroup::OleGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns)
    : ColumnGroup(std::move(columns), m.rows()) {
  GroupDictionary full_dict;
  std::vector<uint32_t> codes;
  BuildDictionary(m, columns_, &full_dict, &codes);

  // Re-number the dictionary without all-zero tuples.
  const size_t w = columns_.size();
  std::vector<int32_t> remap(full_dict.num_entries(), -1);
  dict_.width = w;
  for (size_t e = 0; e < full_dict.num_entries(); ++e) {
    if (EntryIsZero(full_dict.Entry(e), w)) continue;
    remap[e] = static_cast<int32_t>(dict_.num_entries());
    const double* entry = full_dict.Entry(e);
    dict_.values.insert(dict_.values.end(), entry, entry + w);
  }

  // Counting sort into the flat CSR layout: per-entry counts, prefix sums,
  // then a second placement pass. Row order within each list stays sorted.
  const size_t entries = dict_.num_entries();
  std::vector<uint32_t> counts(entries, 0);
  for (size_t i = 0; i < n_; ++i) {
    int32_t e = remap[codes[i]];
    if (e >= 0) ++counts[static_cast<size_t>(e)];
  }
  offset_begin_.resize(entries + 1);
  offset_begin_[0] = 0;
  for (size_t e = 0; e < entries; ++e) {
    offset_begin_[e + 1] = offset_begin_[e] + counts[e];
  }
  offset_data_.resize(offset_begin_[entries]);
  std::vector<uint32_t> cursor(offset_begin_.begin(), offset_begin_.end() - 1);
  for (size_t i = 0; i < n_; ++i) {
    int32_t e = remap[codes[i]];
    if (e >= 0) {
      offset_data_[cursor[static_cast<size_t>(e)]++] =
          static_cast<uint32_t>(i);
    }
  }
}

void OleGroup::EntrySlice(size_t e, size_t row_begin, size_t row_end,
                          size_t* begin, size_t* end) const {
  const uint32_t* lo = offset_data_.data() + offset_begin_[e];
  const uint32_t* hi = offset_data_.data() + offset_begin_[e + 1];
  const uint32_t* first =
      row_begin == 0
          ? lo
          : std::lower_bound(lo, hi, static_cast<uint32_t>(row_begin));
  const uint32_t* last =
      row_end >= n_ ? hi
                    : std::lower_bound(first, hi,
                                       static_cast<uint32_t>(row_end));
  *begin = static_cast<size_t>(first - offset_data_.data());
  *end = static_cast<size_t>(last - offset_data_.data());
}

size_t OleGroup::SizeInBytes() const {
  return dict_.SizeInBytes() + columns_.size() * sizeof(uint32_t) +
         offset_data_.size() * sizeof(uint32_t) +
         offset_begin_.size() * sizeof(uint32_t);
}

size_t OleGroup::EstimateSize(size_t num_nonzero_rows, size_t cardinality,
                              size_t width) {
  return cardinality * width * sizeof(double) +
         num_nonzero_rows * sizeof(uint32_t) + cardinality * sizeof(uint32_t) +
         width * sizeof(uint32_t);
}

void OleGroup::DecompressRange(la::DenseMatrix* out, size_t row_begin,
                               size_t row_end, size_t row_offset) const {
  const size_t w = columns_.size();
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    const double* entry = dict_.Entry(e);
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    for (size_t p = begin; p < end; ++p) {
      const size_t i = offset_data_[p] - row_offset;
      for (size_t j = 0; j < w; ++j) out->At(i, columns_[j]) = entry[j];
    }
  }
}

void OleGroup::MultiplyVectorRange(const double* v, const double* preagg,
                                   double* y, size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const double* p = EnsureVectorPreagg(v, preagg);
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    const double add = p[e];
    if (add == 0.0) continue;
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    for (size_t q = begin; q < end; ++q) y[offset_data_[q] - row_offset] += add;
  }
}

void OleGroup::VectorMultiplyRange(const double* u, double* out,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const size_t w = columns_.size();
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    double acc = 0;
    for (size_t q = begin; q < end; ++q) acc += u[offset_data_[q] - row_offset];
    if (acc == 0.0) continue;
    const double* entry = dict_.Entry(e);
    for (size_t j = 0; j < w; ++j) out[columns_[j]] += acc * entry[j];
  }
}

void OleGroup::MultiplyMatrixRange(const la::DenseMatrix& m,
                                   const double* preagg, la::DenseMatrix* y,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const {
  const size_t k = m.cols();
  const double* p = EnsureMatrixPreagg(m, preagg);
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    const double* src = p + e * k;
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    for (size_t q = begin; q < end; ++q) {
      KWideAdd(y->Row(offset_data_[q] - row_offset), src, k);
    }
  }
}

void OleGroup::TransposeMultiplyMatrixRange(const la::DenseMatrix& m,
                                            double* out, size_t row_begin,
                                            size_t row_end,
                                            size_t row_offset) const {
  // Accumulate rows of m per dictionary entry, then expand through the
  // dictionary once.
  const size_t w = columns_.size();
  const size_t k = m.cols();
  double* acc = OleScratch(k);
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    if (begin == end) continue;
    std::fill(acc, acc + k, 0.0);
    for (size_t q = begin; q < end; ++q) {
      KWideAdd(acc, m.Row(offset_data_[q] - row_offset), k);
    }
    const double* entry = dict_.Entry(e);
    for (size_t j = 0; j < w; ++j) {
      const double ej = entry[j];
      if (ej == 0.0) continue;
      KWideAxpy(out + columns_[j] * k, ej, acc, k);
    }
  }
}

double OleGroup::SumRange(size_t row_begin, size_t row_end) const {
  const size_t w = columns_.size();
  double acc = 0;
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    if (begin == end) continue;
    const double* entry = dict_.Entry(e);
    double tuple_sum = 0;
    for (size_t j = 0; j < w; ++j) tuple_sum += entry[j];
    acc += tuple_sum * static_cast<double>(end - begin);
  }
  return acc;
}

void OleGroup::AddRowSquaredNormsRange(const double* preagg, double* out,
                                       size_t row_begin, size_t row_end) const {
  const double* p = EnsureSquaredNormPreagg(preagg);
  for (size_t e = 0; e < dict_.num_entries(); ++e) {
    const double add = p[e];
    if (add == 0.0) continue;
    size_t begin, end;
    EntrySlice(e, row_begin, row_end, &begin, &end);
    for (size_t q = begin; q < end; ++q) out[offset_data_[q]] += add;
  }
}

}  // namespace dmml::cla
