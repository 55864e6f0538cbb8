#include "cla/uncompressed_group.h"

#include "cla/kwide.h"

namespace dmml::cla {

UncompressedGroup::UncompressedGroup(const la::DenseMatrix& m,
                                     std::vector<uint32_t> columns)
    : ColumnGroup(std::move(columns), m.rows()) {
  const size_t w = columns_.size();
  data_.resize(n_ * w);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < w; ++j) data_[i * w + j] = m.At(i, columns_[j]);
  }
}

size_t UncompressedGroup::SizeInBytes() const {
  return data_.size() * sizeof(double) + columns_.size() * sizeof(uint32_t);
}

void UncompressedGroup::DecompressRange(la::DenseMatrix* out, size_t row_begin,
                                        size_t row_end,
                                        size_t row_offset) const {
  const size_t w = columns_.size();
  for (size_t i = row_begin; i < row_end; ++i) {
    for (size_t j = 0; j < w; ++j) {
      out->At(i - row_offset, columns_[j]) = data_[i * w + j];
    }
  }
}

void UncompressedGroup::MultiplyVectorRange(const double* v,
                                            const double* preagg, double* y,
                                            size_t row_begin, size_t row_end,
                                            size_t row_offset) const {
  (void)preagg;  // No dictionary to pre-aggregate.
  const size_t w = columns_.size();
  for (size_t i = row_begin; i < row_end; ++i) {
    double acc = 0;
    for (size_t j = 0; j < w; ++j) acc += data_[i * w + j] * v[columns_[j]];
    y[i - row_offset] += acc;
  }
}

void UncompressedGroup::VectorMultiplyRange(const double* u, double* out,
                                            size_t row_begin, size_t row_end,
                                            size_t row_offset) const {
  const size_t w = columns_.size();
  for (size_t i = row_begin; i < row_end; ++i) {
    const double ui = u[i - row_offset];
    if (ui == 0.0) continue;
    for (size_t j = 0; j < w; ++j) out[columns_[j]] += ui * data_[i * w + j];
  }
}

void UncompressedGroup::MultiplyMatrixRange(const la::DenseMatrix& m,
                                            const double* preagg,
                                            la::DenseMatrix* y,
                                            size_t row_begin, size_t row_end,
                                            size_t row_offset) const {
  (void)preagg;
  const size_t w = columns_.size();
  const size_t k = m.cols();
  for (size_t i = row_begin; i < row_end; ++i) {
    double* dst = y->Row(i - row_offset);
    for (size_t j = 0; j < w; ++j) {
      const double val = data_[i * w + j];
      if (val == 0.0) continue;
      KWideAxpy(dst, val, m.Row(columns_[j]), k);
    }
  }
}

void UncompressedGroup::TransposeMultiplyMatrixRange(const la::DenseMatrix& m,
                                                     double* out,
                                                     size_t row_begin,
                                                     size_t row_end,
                                                     size_t row_offset) const {
  const size_t w = columns_.size();
  const size_t k = m.cols();
  for (size_t i = row_begin; i < row_end; ++i) {
    const double* src = m.Row(i - row_offset);
    for (size_t j = 0; j < w; ++j) {
      const double val = data_[i * w + j];
      if (val == 0.0) continue;
      KWideAxpy(out + columns_[j] * k, val, src, k);
    }
  }
}

double UncompressedGroup::SumRange(size_t row_begin, size_t row_end) const {
  const size_t w = columns_.size();
  double acc = 0;
  const double* p = data_.data() + row_begin * w;
  const double* end = data_.data() + row_end * w;
  for (; p < end; ++p) acc += *p;
  return acc;
}

void UncompressedGroup::AddRowSquaredNormsRange(const double* preagg,
                                                double* out, size_t row_begin,
                                                size_t row_end) const {
  (void)preagg;
  const size_t w = columns_.size();
  for (size_t i = row_begin; i < row_end; ++i) {
    double acc = 0;
    for (size_t j = 0; j < w; ++j) acc += data_[i * w + j] * data_[i * w + j];
    out[i] += acc;
  }
}

}  // namespace dmml::cla
