/// \file uncompressed_group.h
/// \brief Fallback column group storing its columns as plain dense data.
#ifndef DMML_CLA_UNCOMPRESSED_GROUP_H_
#define DMML_CLA_UNCOMPRESSED_GROUP_H_

#include "cla/column_group.h"

namespace dmml::cla {

/// \brief Plain dense storage (row-major over the group's columns) used when
/// no encoding beats 8 bytes/value. Ranged kernels are plain row loops over
/// the contiguous slab; with no dictionary, preagg buffers are unused.
class UncompressedGroup : public ColumnGroup {
 public:
  /// \brief Copies `columns` of `m` into the group.
  UncompressedGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns);

  GroupFormat format() const override { return GroupFormat::kUncompressed; }
  size_t SizeInBytes() const override;
  size_t DictionarySize() const override { return 0; }

  void DecompressRange(la::DenseMatrix* out, size_t row_begin, size_t row_end,
                       size_t row_offset) const override;
  void MultiplyVectorRange(const double* v, const double* preagg, double* y,
                           size_t row_begin, size_t row_end,
                           size_t row_offset) const override;
  void VectorMultiplyRange(const double* u, double* out, size_t row_begin,
                           size_t row_end, size_t row_offset) const override;
  void MultiplyMatrixRange(const la::DenseMatrix& m, const double* preagg,
                           la::DenseMatrix* y, size_t row_begin,
                           size_t row_end, size_t row_offset) const override;
  void TransposeMultiplyMatrixRange(const la::DenseMatrix& m, double* out,
                                    size_t row_begin, size_t row_end,
                                    size_t row_offset) const override;
  double SumRange(size_t row_begin, size_t row_end) const override;
  void AddRowSquaredNormsRange(const double* preagg, double* out,
                               size_t row_begin, size_t row_end) const override;

 private:
  std::vector<double> data_;  // n_ rows x columns_.size(), row-major.
};

}  // namespace dmml::cla

#endif  // DMML_CLA_UNCOMPRESSED_GROUP_H_
