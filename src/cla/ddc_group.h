/// \file ddc_group.h
/// \brief Dense dictionary coding: one packed code per row into a tuple
/// dictionary. The workhorse encoding for dense low-cardinality columns.
#ifndef DMML_CLA_DDC_GROUP_H_
#define DMML_CLA_DDC_GROUP_H_

#include "cla/column_group.h"

namespace dmml::cla {

/// \brief DDC column group: dictionary + fixed-width per-row codes.
///
/// Ranged kernels slice the code array directly (codes are positional), so a
/// row partition needs no auxiliary index. Accumulating kernels
/// (VectorMultiply / XᵀM / Sum) group per-code partials into dictionary-sized
/// scratch and expand through the dictionary once — one pass over the codes
/// with no per-row indirection into the output — unless the dictionary is
/// larger than the row range, where the direct per-row form is cheaper.
class DdcGroup : public ColumnGroup {
 public:
  /// \brief Encodes `columns` of `m`.
  DdcGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns);

  GroupFormat format() const override { return GroupFormat::kDdc; }
  size_t SizeInBytes() const override;
  size_t DictionarySize() const override { return dict_.num_entries(); }

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

  /// \brief Exact size this encoding would use for the given stats, in bytes.
  static size_t EstimateSize(size_t n, size_t cardinality, size_t width);

 protected:
  const GroupDictionary* dictionary() const override { return &dict_; }

 private:
  GroupDictionary dict_;
  CodeArray codes_;
};

}  // namespace dmml::cla

#endif  // DMML_CLA_DDC_GROUP_H_
