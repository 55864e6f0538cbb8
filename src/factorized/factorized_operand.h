/// \file factorized_operand.h
/// \brief laopt::Operand binding for the normalized (factorized) design
/// matrix: one trainer program, two physical routes.
///
/// NormalizedOperand implements laopt::LinearOperator over a
/// factorized::NormalizedMatrix, so the representation-polymorphic trainers
/// in ml/unified_trainers run their laopt programs (X·w, Xᵀ·r, XᵀX,
/// rowSums(X⊙X), colSums(X), X·Cᵀ, Xᵀ·A) against the *join* without ever
/// materializing it — the executor dispatches each product to the
/// factorized LMM/RMM/Gramian primitives (Orion, Morpheus). This is what
/// lets the pipeline chooser flip between a materialized Operand and a
/// factorized one while the trainer program stays byte-identical.
#ifndef DMML_FACTORIZED_FACTORIZED_OPERAND_H_
#define DMML_FACTORIZED_FACTORIZED_OPERAND_H_

#include <memory>

#include "factorized/normalized_matrix.h"
#include "laopt/operand.h"

namespace dmml::factorized {

/// \brief LinearOperator over a NormalizedMatrix. Holds shared ownership of
/// the normalized tables; Operands wrapping it are cheap shared handles.
class NormalizedOperand : public laopt::LinearOperator {
 public:
  explicit NormalizedOperand(std::shared_ptr<const NormalizedMatrix> m)
      : m_(std::move(m)) {}

  size_t rows() const override { return m_->rows(); }
  size_t cols() const override { return m_->cols(); }

  /// T[b:e)·m — factorized LMM (per-table products gathered through the
  /// keys of the window's fact rows).
  Result<la::DenseMatrix> Multiply(const la::DenseMatrix& m, size_t row_begin,
                                   size_t row_end,
                                   ThreadPool* pool) const override;
  /// T[b:e)ᵀ·m — factorized RMM (group-accumulate the window by fk, then
  /// per-table).
  Result<la::DenseMatrix> TransposeMultiply(const la::DenseMatrix& m,
                                            size_t row_begin, size_t row_end,
                                            ThreadPool* pool) const override;
  /// T[b:e)ᵀT[b:e) — the Orion cofactor block decomposition over the
  /// window's fact rows.
  Result<la::DenseMatrix> Gram(size_t row_begin, size_t row_end,
                               ThreadPool* pool) const override;
  /// rowSums(T⊙T) computed factorized (k-means distance expansion).
  Result<la::DenseMatrix> RowSquaredNorms(ThreadPool* pool) const override;
  /// colSums(T) as 1 x d via the per-table block sums.
  Result<la::DenseMatrix> ColumnSums(ThreadPool* pool) const override;

  /// Joins only the window's fact rows.
  la::DenseMatrix Materialize(size_t row_begin, size_t row_end,
                              ThreadPool* pool) const override;
  uint64_t SizeInBytes() const override;
  const char* Name() const override { return "normalized_matrix"; }

  const NormalizedMatrix& matrix() const { return *m_; }

 private:
  std::shared_ptr<const NormalizedMatrix> m_;
};

/// \brief Wraps a NormalizedMatrix in an Operand with Repr::kFactorized —
/// bindable to any laopt leaf exactly like a dense/CSR/CLA matrix.
laopt::Operand MakeFactorizedOperand(std::shared_ptr<const NormalizedMatrix> m);

/// \brief Convenience overload taking the matrix by value.
laopt::Operand MakeFactorizedOperand(NormalizedMatrix m);

}  // namespace dmml::factorized

#endif  // DMML_FACTORIZED_FACTORIZED_OPERAND_H_
