/// \file column_group.h
/// \brief Compressed column-group interface and shared encoding helpers.
///
/// A compressed matrix is a set of column groups, each covering one or more
/// columns (co-coding) under one encoding: uncompressed (UC), dense
/// dictionary coding (DDC), run-length (RLE) or offset-list (OLE). All
/// linear-algebra ops are pushed down to the groups, which operate directly
/// on their compressed representation — the core idea of compressed linear
/// algebra (CLA).
///
/// Every group op comes in a **ranged** form restricted to rows
/// [row_begin, row_end), so CompressedMatrix can partition the row space
/// across a thread pool: row-local ops (MV, MM, decompress, row norms) give
/// each worker a disjoint slice of the output, while accumulating ops
/// (VM, XᵀM, Sum) write into per-chunk private partial buffers that the
/// caller reduces without atomics. RLE keeps a per-block skip index and OLE
/// binary-searches its sorted offset lists, so a ranged call seeks to
/// row_begin instead of scanning from row 0.
///
/// Dictionary-bearing ops factor through an explicit **pre-aggregation**
/// step (dictionary ⋅ operand, one value/row per dictionary entry): the
/// caller computes it once per op via Preaggregate*() and shares the
/// read-only buffer across all row chunks. Passing preagg == nullptr makes
/// the group fall back to a thread-local scratch, so direct single-group
/// calls stay convenient.
#ifndef DMML_CLA_COLUMN_GROUP_H_
#define DMML_CLA_COLUMN_GROUP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "la/dense_matrix.h"

namespace dmml::cla {

/// Encoding kind of a column group.
enum class GroupFormat : uint8_t { kUncompressed, kDdc, kRle, kOle };

/// \brief Name of a format ("UC", "DDC", "RLE", "OLE").
const char* GroupFormatName(GroupFormat format);

/// \brief Dictionary of distinct row tuples for a column group: `width`
/// doubles per entry, stored row-major.
struct GroupDictionary {
  size_t width = 1;
  std::vector<double> values;  ///< num_entries * width.

  size_t num_entries() const { return width ? values.size() / width : 0; }
  const double* Entry(size_t e) const { return values.data() + e * width; }
  size_t SizeInBytes() const { return values.size() * sizeof(double); }
};

/// \brief One compressed column group covering `columns()` of the matrix.
class ColumnGroup {
 public:
  virtual ~ColumnGroup() = default;

  /// \brief Global column indices this group encodes.
  const std::vector<uint32_t>& columns() const { return columns_; }

  /// \brief Number of rows of the source matrix.
  size_t rows() const { return n_; }

  /// \brief Encoding of this group.
  virtual GroupFormat format() const = 0;

  /// \brief In-memory footprint of the compressed representation in bytes
  /// (dictionary + codes/runs/offsets + column index metadata).
  virtual size_t SizeInBytes() const = 0;

  /// \brief Number of dictionary entries (0 for uncompressed).
  virtual size_t DictionarySize() const = 0;

  // -------------------------------------------------------------------------
  // Full-range convenience forms (non-virtual; forward to the ranged kernels)
  // -------------------------------------------------------------------------

  /// \brief Scatters this group's values into a dense matrix (which must be
  /// zero-initialized in this group's columns).
  void Decompress(la::DenseMatrix* out) const { DecompressRange(out, 0, n_, 0); }

  /// \brief y += (group block) · v, reading v at this group's columns.
  /// `v` is the full-length (cols) vector, `y` has length `n` rows.
  void MultiplyVector(const double* v, double* y, size_t n) const {
    (void)n;
    MultiplyVectorRange(v, nullptr, y, 0, n_, 0);
  }

  /// \brief out[col] += Σ_i u[i] * value(i, col) for this group's columns.
  void VectorMultiply(const double* u, size_t n, double* out) const {
    (void)n;
    VectorMultiplyRange(u, out, 0, n_, 0);
  }

  /// \brief y += (group block) · M for M of shape (total_cols x k); y is
  /// (n x k) row-major.
  void MultiplyMatrix(const la::DenseMatrix& m, la::DenseMatrix* y) const {
    MultiplyMatrixRange(m, nullptr, y, 0, n_, 0);
  }

  /// \brief out(col, c) += Σ_i m(i, c) * value(i, col): the (d x k) block of
  /// (group block)ᵀ · M for M of shape (n x k).
  void TransposeMultiplyMatrix(const la::DenseMatrix& m,
                               la::DenseMatrix* out) const {
    TransposeMultiplyMatrixRange(m, out->data(), 0, n_, 0);
  }

  /// \brief Sum of all values in the group.
  double Sum() const { return SumRange(0, n_); }

  /// \brief out[i] += Σ_j value(i, col_j)² — this group's contribution to
  /// per-row squared norms (used by compressed k-means).
  void AddRowSquaredNorms(double* out, size_t n) const {
    (void)n;
    AddRowSquaredNormsRange(nullptr, out, 0, n_);
  }

  // -------------------------------------------------------------------------
  // Dictionary pre-aggregation (shared, read-only op scratch)
  // -------------------------------------------------------------------------

  /// \brief preagg[e] = Σ_j dict(e, j) * v[columns_[j]] for every dictionary
  /// entry. `preagg` must hold DictionarySize() doubles. No-op for UC groups.
  virtual void PreaggregateVector(const double* v, double* preagg) const;

  /// \brief preagg(e, c) = Σ_j dict(e, j) * m(columns_[j], c): the dictionary
  /// pre-multiplied against all k columns of M. `preagg` is row-major
  /// DictionarySize() x m.cols(). No-op for UC groups.
  virtual void PreaggregateMatrix(const la::DenseMatrix& m, double* preagg) const;

  /// \brief preagg[e] = Σ_j dict(e, j)² per dictionary entry. No-op for UC.
  virtual void PreaggregateSquaredNorms(double* preagg) const;

  // -------------------------------------------------------------------------
  // Ranged kernels (operate on rows [row_begin, row_end) only)
  // -------------------------------------------------------------------------
  //
  // `preagg` arguments accept the matching Preaggregate*() buffer, or
  // nullptr to have the group compute it into thread-local scratch.
  //
  // The row-addressed kernels take an additional `row_offset`
  // (<= row_begin): matrix row i maps to buffer row i - row_offset of the
  // row-indexed output (DecompressRange, MultiplyVectorRange,
  // MultiplyMatrixRange) or of the row-indexed operand (VectorMultiplyRange,
  // TransposeMultiplyMatrixRange). Passing 0 keeps
  // the classic full-height addressing; passing the window start lets a
  // (row_begin, row_end) window operate on window-sized buffers — the
  // contiguous-fold cross-validation hot path.

  /// \brief Decompress() restricted to rows [row_begin, row_end), written at
  /// out rows (i - row_offset).
  virtual void DecompressRange(la::DenseMatrix* out, size_t row_begin,
                               size_t row_end, size_t row_offset) const = 0;

  /// \brief y[i - row_offset] += (row i of the group block) · v for i in
  /// range.
  virtual void MultiplyVectorRange(const double* v, const double* preagg,
                                   double* y, size_t row_begin, size_t row_end,
                                   size_t row_offset) const = 0;

  /// \brief out[col] += Σ_{i in range} u[i - row_offset] * value(i, col).
  /// `out` is a full-width (total cols) buffer — typically a per-chunk
  /// partial.
  virtual void VectorMultiplyRange(const double* u, double* out,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const = 0;

  /// \brief y->Row(i - row_offset) += (row i of the group block) · M for i in
  /// range.
  virtual void MultiplyMatrixRange(const la::DenseMatrix& m,
                                   const double* preagg, la::DenseMatrix* y,
                                   size_t row_begin, size_t row_end,
                                   size_t row_offset) const = 0;

  /// \brief out[col*k + c] += Σ_{i in range} m(i - row_offset, c)
  /// * value(i, col), with `out` a row-major (total cols x k) buffer —
  /// typically a per-chunk partial.
  virtual void TransposeMultiplyMatrixRange(const la::DenseMatrix& m,
                                            double* out, size_t row_begin,
                                            size_t row_end,
                                            size_t row_offset) const = 0;

  /// \brief Sum of the group's values over rows [row_begin, row_end).
  virtual double SumRange(size_t row_begin, size_t row_end) const = 0;

  /// \brief out[i] += per-row squared norm for i in range. `preagg` takes a
  /// PreaggregateSquaredNorms() buffer (or nullptr).
  virtual void AddRowSquaredNormsRange(const double* preagg, double* out,
                                       size_t row_begin,
                                       size_t row_end) const = 0;

 protected:
  ColumnGroup(std::vector<uint32_t> columns, size_t n)
      : columns_(std::move(columns)), n_(n) {}

  /// \brief The group's dictionary, or nullptr for UC groups. Drives the
  /// shared Preaggregate*() implementations.
  virtual const GroupDictionary* dictionary() const { return nullptr; }

  /// \brief Returns `preagg` if non-null, else computes PreaggregateVector
  /// into thread-local scratch and returns that.
  const double* EnsureVectorPreagg(const double* v, const double* preagg) const;

  /// \brief Same for PreaggregateMatrix (DictionarySize() x m.cols()).
  const double* EnsureMatrixPreagg(const la::DenseMatrix& m,
                                   const double* preagg) const;

  /// \brief Same for PreaggregateSquaredNorms.
  const double* EnsureSquaredNormPreagg(const double* preagg) const;

  std::vector<uint32_t> columns_;
  size_t n_ = 0;
};

/// \brief Packed code array choosing 1/2/4-byte codes from the cardinality.
class CodeArray {
 public:
  CodeArray() = default;

  /// \brief Allocates `n` codes wide enough for `cardinality` values.
  CodeArray(size_t n, size_t cardinality);

  void Set(size_t i, uint32_t code);
  uint32_t Get(size_t i) const {
    switch (width_) {
      case 1: return data8_[i];
      case 2: return data16_[i];
      default: return data32_[i];
    }
  }

  /// \brief Calls `fn(i, code)` for every i in [begin, end). The code width
  /// is dispatched once per call, not per element, so inner loops run over a
  /// raw typed pointer — the hot-path form; Get()'s per-element switch is for
  /// incidental access only.
  template <typename Fn>
  void ForEach(size_t begin, size_t end, Fn&& fn) const {
    switch (width_) {
      case 1: {
        const uint8_t* p = data8_.data();
        for (size_t i = begin; i < end; ++i) fn(i, static_cast<uint32_t>(p[i]));
        break;
      }
      case 2: {
        const uint16_t* p = data16_.data();
        for (size_t i = begin; i < end; ++i) fn(i, static_cast<uint32_t>(p[i]));
        break;
      }
      default: {
        const uint32_t* p = data32_.data();
        for (size_t i = begin; i < end; ++i) fn(i, p[i]);
        break;
      }
    }
  }

  size_t size() const { return size_; }

  /// \brief Bytes used by the code storage.
  size_t SizeInBytes() const { return size_ * width_; }

  /// \brief Code width in bytes (1, 2 or 4).
  int width() const { return width_; }

 private:
  size_t size_ = 0;
  int width_ = 1;
  std::vector<uint8_t> data8_;
  std::vector<uint16_t> data16_;
  std::vector<uint32_t> data32_;
};

/// \brief Builds the dictionary and per-row codes for `columns` of `m`.
/// Entry order is first-appearance order.
void BuildDictionary(const la::DenseMatrix& m, const std::vector<uint32_t>& columns,
                     GroupDictionary* dict, std::vector<uint32_t>* codes);

}  // namespace dmml::cla

#endif  // DMML_CLA_COLUMN_GROUP_H_
