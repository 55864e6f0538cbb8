/// \file rle_group.h
/// \brief Run-length encoding: maximal runs of equal tuples, zero-suppressed.
#ifndef DMML_CLA_RLE_GROUP_H_
#define DMML_CLA_RLE_GROUP_H_

#include "cla/column_group.h"

namespace dmml::cla {

/// \brief One maximal run of rows sharing a dictionary entry.
struct Run {
  uint32_t start;
  uint32_t length;
  uint32_t code;
};

/// \brief RLE column group: dictionary + sorted run list. Runs whose tuple is
/// all-zero are not stored (zero suppression), so sparse *and* clustered data
/// both compress well. Best on sorted / temporally-clustered columns.
///
/// A per-block skip index (one run index per kSkipBlock rows, built at
/// compress time) lets a ranged kernel seek to the first run intersecting
/// row_begin in O(runs per block) instead of scanning the run list from row 0
/// — the property that makes row-partitioned parallel ops cheap.
class RleGroup : public ColumnGroup {
 public:
  RleGroup(const la::DenseMatrix& m, std::vector<uint32_t> columns);

  GroupFormat format() const override { return GroupFormat::kRle; }
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

  size_t NumRuns() const { return runs_.size(); }

  /// \brief Rows covered by one skip-index block.
  static constexpr size_t kSkipBlock = 1024;

  /// \brief Exact size this encoding would use given run statistics.
  static size_t EstimateSize(size_t num_nonzero_runs, size_t cardinality,
                             size_t width);

 protected:
  const GroupDictionary* dictionary() const override { return &dict_; }

 private:
  /// \brief Index of the first run whose row span reaches `row` (i.e. with
  /// start + length > row), or runs_.size() if none.
  size_t FirstRunReaching(size_t row) const;

  GroupDictionary dict_;
  std::vector<Run> runs_;  // Sorted by start; non-zero tuples only.
  // skip_[b] = index of the first run with start + length > b * kSkipBlock.
  std::vector<uint32_t> skip_;
};

}  // namespace dmml::cla

#endif  // DMML_CLA_RLE_GROUP_H_
