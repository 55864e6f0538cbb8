/// \file factorized_gramian.h
/// \brief Gramian (TᵀT) and normal-equation solving over normalized data —
/// the Orion "cofactor" computation.
///
/// For T = [XS | XR₁[fk₁] | XR₂[fk₂] | ...] the Gramian decomposes into
/// blocks that never require materializing T:
///
///   * XSᵀXS                 — O(nS·dS²) over the entity table
///   * XSᵀ(K_t R_t)          — group-accumulate XS rows by fk_t (nR_t×dS),
///                             then multiply with XR_t: O(nS·dS + nR_t·dS·dR_t)
///   * R_tᵀK_tᵀK_t R_t       — K_tᵀK_t = diag(fk counts):
///                             O(nR_t·dR_t²)
///   * R_sᵀK_sᵀK_t R_t (s≠t) — K_sᵀK_t is the sparse fk co-occurrence matrix
///                             with ≤ nS nonzeros.
///
/// With the Gramian and Tᵀy in hand, ridge regression solves in closed form
/// without ever touching an nS×d materialized matrix:
/// ml::RunNormalEquationsOnOperand on a factorized operand
/// (factorized_operand.h) gets XᵀX and colSums(X) from these two functions.
#ifndef DMML_FACTORIZED_FACTORIZED_GRAMIAN_H_
#define DMML_FACTORIZED_FACTORIZED_GRAMIAN_H_

#include "factorized/normalized_matrix.h"

namespace dmml::factorized {

/// \brief Computes TᵀT (d x d) without materializing T: the [0, rows)
/// window of the ranged form below.
la::DenseMatrix FactorizedGramian(const NormalizedMatrix& t);

/// \brief T[b:e)ᵀT[b:e) (d x d) over a window of fact rows: XS's block runs
/// la::GramRangeInto over the window, and the fk histograms, grouped sums
/// and cross-table co-occurrence counts cover fact rows [b, e) only.
la::DenseMatrix FactorizedGramian(const NormalizedMatrix& t, size_t row_begin,
                                  size_t row_end);

/// \brief Computes Tᵀ1 (column sums as d x 1) without materializing T.
la::DenseMatrix FactorizedColumnSums(const NormalizedMatrix& t);

}  // namespace dmml::factorized

#endif  // DMML_FACTORIZED_FACTORIZED_GRAMIAN_H_
