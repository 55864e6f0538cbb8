/// \file normalized_matrix.h
/// \brief Factorized ("normalized") matrix: learn over joins without
/// materializing them.
///
/// A NormalizedMatrix represents the design matrix of a star-schema join
///
///     T = [ XS | XR_1[fk_1] | XR_2[fk_2] | ... ]
///
/// where XS (nS x dS) holds entity-table features and each attribute table
/// contributes XR_i (nR_i x dR_i) gathered through a foreign-key column
/// fk_i (length nS). Rather than materializing T (nS x (dS + Σ dR_i)), the
/// factorized operators push computation through the join:
///
///   * Multiply (T · M):  per-table products XR_i · M_i are computed once per
///     *distinct* rid (nR_i rows) and gathered — O(nR·dR·k) instead of
///     O(nS·dR·k) for that block.
///   * TransposeMultiply (Tᵀ · M): rows of M are group-accumulated by fk
///     (scatter-add into nR_i buckets) before hitting XR_i.
///
/// These two primitives are exactly what batch-gradient GLM training and
/// Lloyd's k-means need, which is how Orion (Kumar et al., SIGMOD'15) and
/// Morpheus (Chen et al., VLDB'17) avoid join materialization. The speedup
/// grows with the *tuple ratio* (nS/nR) and *feature ratio* (dR/dS).
#ifndef DMML_FACTORIZED_NORMALIZED_MATRIX_H_
#define DMML_FACTORIZED_NORMALIZED_MATRIX_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "util/result.h"

namespace dmml::factorized {

/// \brief One attribute (dimension) table joined into the design matrix.
struct AttributeTable {
  la::DenseMatrix features;  ///< nR x dR.
  std::vector<uint32_t> fk;  ///< nS foreign keys into [0, nR).
};

/// \brief A logically-joined design matrix kept in normalized form.
class NormalizedMatrix {
 public:
  /// \brief Builds from entity features (nS x dS; dS may be 0 via a nS x 0
  /// matrix) and one or more attribute tables. Validates key ranges.
  static Result<NormalizedMatrix> Make(la::DenseMatrix entity_features,
                                       std::vector<AttributeTable> tables);

  /// \brief Logical row count nS.
  size_t rows() const { return rows_; }

  /// \brief Logical column count dS + Σ dR_i.
  size_t cols() const { return cols_; }

  const la::DenseMatrix& entity_features() const { return entity_; }
  const std::vector<AttributeTable>& tables() const { return tables_; }

  /// \brief T · m for m of shape (cols() x k). Factorized LMM.
  Result<la::DenseMatrix> Multiply(const la::DenseMatrix& m) const;

  /// \brief T[row_begin:row_end) · m: the LMM over a window of fact rows,
  /// (row_end - row_begin) x k. The window slices XS and the foreign keys;
  /// each attribute product XR_i · M_i still covers the whole table.
  Result<la::DenseMatrix> Multiply(const la::DenseMatrix& m, size_t row_begin,
                                   size_t row_end) const;

  /// \brief Tᵀ · m for m of shape (rows() x k). Factorized RMM.
  Result<la::DenseMatrix> TransposeMultiply(const la::DenseMatrix& m) const;

  /// \brief T[row_begin:row_end)ᵀ · m for window-relative m of shape
  /// ((row_end - row_begin) x k): the RMM over a window of fact rows, which
  /// group-accumulates only the window's rows by fk.
  Result<la::DenseMatrix> TransposeMultiply(const la::DenseMatrix& m,
                                            size_t row_begin,
                                            size_t row_end) const;

  /// \brief Per-row sums of squared entries (rows() x 1), computed
  /// factorized — needed by k-means distance computations.
  la::DenseMatrix RowSquaredNorms() const;

  /// \brief Materializes the full join output (the baseline the factorized
  /// path is compared against): the [0, rows()) window.
  la::DenseMatrix Materialize() const;

  /// \brief Materializes rows [row_begin, row_end) of the join output,
  /// (row_end - row_begin) x cols(), joining only the window's fact rows.
  la::DenseMatrix Materialize(size_t row_begin, size_t row_end) const;

  /// \brief Cells of the materialized matrix divided by cells stored in
  /// normalized form — the redundancy the factorized path avoids.
  double RedundancyRatio() const;

 private:
  NormalizedMatrix() = default;

  size_t rows_ = 0;
  size_t cols_ = 0;
  la::DenseMatrix entity_;
  std::vector<AttributeTable> tables_;
};

}  // namespace dmml::factorized

#endif  // DMML_FACTORIZED_NORMALIZED_MATRIX_H_
