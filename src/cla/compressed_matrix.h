/// \file compressed_matrix.h
/// \brief Column-compressed matrix with a size-based compression planner.
///
/// Compression and every op accept an optional `ThreadPool*`: analysis and
/// group encoding fan out per column / per group, and ops partition the row
/// space into chunks that run the groups' ranged kernels. Accumulating ops
/// reduce per-chunk private partials without atomics — the same flat-buffer
/// strategy as la::kernels. `...Into` variants reuse caller buffers so
/// steady-state training loops allocate nothing (tracked by the
/// `cla.inplace.{reuses,allocs}` counters).
#ifndef DMML_CLA_COMPRESSED_MATRIX_H_
#define DMML_CLA_COMPRESSED_MATRIX_H_

#include <memory>
#include <string>
#include <vector>

#include "cla/column_group.h"
#include "la/dense_matrix.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::cla {

/// \brief Per-column statistics driving encoding choice.
struct ColumnStats {
  size_t cardinality = 0;     ///< Distinct values.
  size_t num_runs = 0;        ///< Maximal equal-value runs (non-zero only).
  size_t num_nonzero = 0;     ///< Non-zero rows.
  size_t uc_size = 0;         ///< Size under each encoding, in bytes.
  size_t ddc_size = 0;
  size_t rle_size = 0;
  size_t ole_size = 0;
};

/// \brief Compression planner options.
struct CompressionOptions {
  /// Greedily co-code column pairs whose joint dictionary stays small.
  bool enable_cocoding = false;
  /// A pair is merged when size(joint) <= cocode_threshold * (sizeA+sizeB).
  double cocode_threshold = 0.95;
  /// Columns whose best compressed size exceeds this fraction of the dense
  /// size stay uncompressed.
  double min_compression_gain = 1.0;
  /// Rows inspected by the planner per column. 0 = exact single pass (the
  /// default at single-node scale); > 0 uses evenly-spaced sampling with
  /// Chao1 cardinality estimation and linear run/nnz scale-up — the
  /// estimator style of the original CLA planner.
  size_t sample_rows = 0;
};

/// \brief A matrix stored as compressed column groups; LA ops run directly on
/// the compressed form.
class CompressedMatrix {
 public:
  /// \brief Compresses `dense` according to `options` (exact, single-pass
  /// statistics; the sampling estimators of the original CLA system are
  /// unnecessary at single-node scale). With a pool, column analysis,
  /// co-coding pair scoring and group encoding run in parallel; the resulting
  /// plan and group order are identical to the serial ones.
  static CompressedMatrix Compress(const la::DenseMatrix& dense,
                                   const CompressionOptions& options = {},
                                   ThreadPool* pool = nullptr);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  const std::vector<std::unique_ptr<ColumnGroup>>& groups() const { return groups_; }

  /// \brief In-memory footprint of the compressed representation.
  size_t SizeInBytes() const;

  /// \brief Dense footprint (rows*cols*8) over SizeInBytes().
  double CompressionRatio() const;

  // ---------------------------------------------------------------------
  // Allocation-free ops: `out` is reshaped in place (reuse counted in
  // cla.inplace.reuses / allocs) and fully overwritten. The four products
  // are the [0, rows) windows of the row-windowed forms below.
  // ---------------------------------------------------------------------

  /// \brief out = X · v for v of shape (cols x 1); out becomes (rows x 1).
  Status MultiplyVectorInto(const la::DenseMatrix& v, la::DenseMatrix* out,
                            ThreadPool* pool = nullptr) const;

  /// \brief out = uᵀ · X for u of shape (rows x 1); out becomes (1 x cols).
  Status VectorMultiplyInto(const la::DenseMatrix& u, la::DenseMatrix* out,
                            ThreadPool* pool = nullptr) const;

  /// \brief out = X · M for M of shape (cols x k); out becomes (rows x k).
  Status MultiplyMatrixInto(const la::DenseMatrix& m, la::DenseMatrix* out,
                            ThreadPool* pool = nullptr) const;

  /// \brief out = Xᵀ · M for M of shape (rows x k); out becomes (cols x k).
  Status TransposeMultiplyMatrixInto(const la::DenseMatrix& m,
                                     la::DenseMatrix* out,
                                     ThreadPool* pool = nullptr) const;

  /// \brief out = per-row sums of squared entries; out becomes (rows x 1).
  Status RowSquaredNormsInto(la::DenseMatrix* out,
                             ThreadPool* pool = nullptr) const;

  // ---------------------------------------------------------------------
  // Row-windowed ops: operate on rows [row_begin, row_end) only, with
  // window-relative buffers. The groups' skip-index / binary-search /
  // positional seeks make a window pass cost O(window), so contiguous-fold
  // cross-validation trains leave-one-fold-out with no gather copies.
  // ---------------------------------------------------------------------

  /// \brief out = X[row_begin:row_end) · M for M of shape (cols x k); out
  /// becomes ((row_end-row_begin) x k). k = 1 runs the groups' matrix-vector
  /// kernels (one dictionary lookup per row); wider M runs their k-wide
  /// kernels over fixed row sub-blocks.
  Status MultiplyMatrixRangeInto(const la::DenseMatrix& m, size_t row_begin,
                                 size_t row_end, la::DenseMatrix* out,
                                 ThreadPool* pool = nullptr) const;

  /// \brief out = X[row_begin:row_end)ᵀ · M for window-relative M of shape
  /// ((row_end-row_begin) x k); out becomes (cols x k). Each chunk of rows
  /// calls every group once: k = 1 runs the groups' vector-matrix kernels,
  /// which sum a column in the order the k-wide kernels do, so a k-wide
  /// product is bit-equal per column to k one-column products.
  Status TransposeMultiplyMatrixRangeInto(const la::DenseMatrix& m,
                                          size_t row_begin, size_t row_end,
                                          la::DenseMatrix* out,
                                          ThreadPool* pool = nullptr) const;

  /// \brief out = X[row_begin:row_end)ᵀ X[row_begin:row_end); out becomes
  /// (cols x cols). Each chunk of rows decompresses 256-row blocks into
  /// per-thread scratch and adds their upper triangle with the dense SYRK
  /// accumulator (la::AccumulateGramUpper); per-chunk partials reduce as in
  /// TransposeMultiplyMatrixRangeInto. No window-sized dense copy is made.
  Status GramRangeInto(size_t row_begin, size_t row_end, la::DenseMatrix* out,
                       ThreadPool* pool = nullptr) const;

  /// \brief Reconstructs rows [row_begin, row_end) as a window-relative
  /// ((row_end-row_begin) x cols) dense matrix.
  Status DecompressRangeInto(size_t row_begin, size_t row_end,
                             la::DenseMatrix* out,
                             ThreadPool* pool = nullptr) const;

  // ---------------------------------------------------------------------
  // Allocating convenience forms (forward to the Into variants).
  // ---------------------------------------------------------------------

  /// \brief y = X · v for v of shape (cols x 1).
  Result<la::DenseMatrix> MultiplyVector(const la::DenseMatrix& v,
                                         ThreadPool* pool = nullptr) const;

  /// \brief yᵀ = uᵀ · X for u of shape (rows x 1); returns (1 x cols).
  Result<la::DenseMatrix> VectorMultiply(const la::DenseMatrix& u,
                                         ThreadPool* pool = nullptr) const;

  /// \brief Y = X · M for M of shape (cols x k); returns (rows x k).
  Result<la::DenseMatrix> MultiplyMatrix(const la::DenseMatrix& m,
                                         ThreadPool* pool = nullptr) const;

  /// \brief Y = Xᵀ · M for M of shape (rows x k); returns (cols x k).
  Result<la::DenseMatrix> TransposeMultiplyMatrix(
      const la::DenseMatrix& m, ThreadPool* pool = nullptr) const;

  /// \brief Per-row sums of squared entries (rows x 1), computed on the
  /// compressed data via per-dictionary-entry squared norms.
  la::DenseMatrix RowSquaredNorms(ThreadPool* pool = nullptr) const;

  /// \brief Sum of all matrix elements.
  double Sum(ThreadPool* pool = nullptr) const;

  /// \brief Reconstructs the dense matrix.
  la::DenseMatrix Decompress(ThreadPool* pool = nullptr) const;

  /// \brief Per-group "[cols...]:FORMAT(bytes)" summary, for diagnostics.
  std::string FormatSummary() const;

  /// \brief Computes the stats the planner uses for one column (exact pass).
  static ColumnStats AnalyzeColumn(const la::DenseMatrix& dense, size_t col);

  /// \brief Sampling estimator: inspects `sample_rows` evenly-spaced rows,
  /// extrapolates runs/nnz linearly and cardinality with Chao1.
  static ColumnStats AnalyzeColumnSampled(const la::DenseMatrix& dense, size_t col,
                                          size_t sample_rows);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<std::unique_ptr<ColumnGroup>> groups_;
};

}  // namespace dmml::cla

#endif  // DMML_CLA_COMPRESSED_MATRIX_H_
