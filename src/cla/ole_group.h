/// \file ole_group.h
/// \brief Offset-list encoding: per-dictionary-entry row index lists,
/// zero-suppressed. Best on sparse or heavily-skewed columns.
#ifndef DMML_CLA_OLE_GROUP_H_
#define DMML_CLA_OLE_GROUP_H_

#include "cla/column_group.h"

namespace dmml::cla {

/// \brief OLE column group: dictionary + per-entry sorted offset lists.
/// Rows whose tuple is all-zero appear in no list (zero suppression), so the
/// storage cost is proportional to the number of non-zero rows.
///
/// The lists are stored flattened (CSR layout: one offset array plus per-entry
/// begin positions). Because each list is sorted, a ranged kernel seeks to
/// row_begin with one binary search per entry — O(card · log nnz) seek cost
/// instead of scanning every offset from row 0.
class OleGroup : public ColumnGroup {
 public:
  OleGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns);

  GroupFormat format() const override { return GroupFormat::kOle; }
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

  /// \brief Exact size this encoding would use given stats.
  static size_t EstimateSize(size_t num_nonzero_rows, size_t cardinality,
                             size_t width);

 protected:
  const GroupDictionary* dictionary() const override { return &dict_; }

 private:
  /// \brief [begin, end) positions into offset_data_ covering rows
  /// [row_begin, row_end) of entry `e` (binary search on the sorted list).
  void EntrySlice(size_t e, size_t row_begin, size_t row_end, size_t* begin,
                  size_t* end) const;

  GroupDictionary dict_;  ///< Non-zero tuples only.
  // CSR layout: entry e's sorted row offsets live at
  // offset_data_[offset_begin_[e] .. offset_begin_[e+1]).
  std::vector<uint32_t> offset_data_;
  std::vector<uint32_t> offset_begin_;  ///< num_entries + 1 positions.
};

}  // namespace dmml::cla

#endif  // DMML_CLA_OLE_GROUP_H_
