/// \file kernels.h
/// \brief Blocked, multicore BLAS-like kernels over DenseMatrix / SparseMatrix.
///
/// All kernels are free functions; shape mismatches are surfaced as Status
/// errors by the checked wrappers in ops.h, while the kernels here assume
/// validated shapes (checked with DMML_CHECK in debug spirit).
///
/// The dense engine has four parts:
///
///  * **Blocked compute kernels.** `Multiply` is a cache-blocked GEMM: the B
///    operand is packed per (k, j) panel into register-tile-friendly slivers
///    and consumed by a kMr x kNr micro-kernel that keeps the C tile in
///    registers; row blocks fan out across the thread pool. `Gram` (SYRK,
///    XᵀX), `TransposeMultiply` (XᵀM) and `MultiplyTransposeB` (ABᵀ) never
///    materialize a transpose. `Transpose` itself is tile-blocked.
///
///  * **Parallel reductions.** Accumulating kernels (`Gevm`, `SparseGevm`,
///    `ColumnSums`, `Sum`, `FrobeniusNorm`, `Gram`, `TransposeMultiply`) give
///    each chunk a private partial buffer and reduce at the end, so they
///    parallelize without atomics or locks.
///
///  * **Output-reuse ("Into") variants.** Every shape-producing kernel has a
///    `...Into(args, DenseMatrix* out)` form that reshapes `out` in place,
///    reusing its allocation when the capacity already fits. Steady-state
///    iterative callers (laopt executor, GLM/k-means loops) thus allocate
///    nothing per iteration. Reuse/alloc totals are observable as the
///    `la.inplace.reuses` / `la.inplace.allocs` counters.
///
///  * **One fused cell-wise GLM kernel.** `GlmResidualsInto` turns a block of
///    scores into residuals and per-column loss sums in one pass — the
///    link, the loss and their sums, with vector polynomial exp and log1p
///    — for batch-GD epochs, `ml::GlmLoss` and fold scoring alike. Every
///    cell takes the same 4-lane path at every block width, so a column of
///    a wide block is bit-equal to the same column alone.
///
/// Every parallel kernel takes an optional ThreadPool and applies a grain
/// heuristic: inputs with too little work for a pool round-trip run inline
/// (see ParallelChunkCount). Passing a null pool always runs serial.
///
/// The `reference` namespace keeps the original naive serial kernels; parity
/// tests and benches compare the blocked engine against them.
#ifndef DMML_LA_KERNELS_H_
#define DMML_LA_KERNELS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "util/thread_pool.h"

namespace dmml::la {

// ---------------------------------------------------------------------------
// Dense kernels (allocating forms)
// ---------------------------------------------------------------------------

/// \brief C = A * B (cache-blocked GEMM). Optionally parallel over row blocks.
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b,
                     ThreadPool* pool = nullptr);

/// \brief C = A * Bᵀ for row-major A (m x k) and B (n x k); returns (m x n).
/// Row-dot-product based — both operands stream contiguously, no transpose is
/// materialized. The k-means assignment kernel.
DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b,
                               ThreadPool* pool = nullptr);

/// \brief G = Xᵀ X (SYRK / Gramian) for X (n x d); returns (d x d).
/// Accumulates 4-row rank-1 update bundles into the upper triangle (per-chunk
/// partial Gramians reduced at the end when parallel), then mirrors — half
/// the FLOPs of Multiply(Transpose(X), X) and no materialized transpose.
DenseMatrix Gram(const DenseMatrix& x, ThreadPool* pool = nullptr);

/// \brief Xᵀ M for X (n x d) and M (n x k); returns (d x k) without
/// materializing Xᵀ (per-chunk partials + reduction when parallel).
DenseMatrix TransposeMultiply(const DenseMatrix& x, const DenseMatrix& m,
                              ThreadPool* pool = nullptr);

/// \brief y = A * x with x an (n x 1) vector; returns (m x 1).
DenseMatrix Gemv(const DenseMatrix& a, const DenseMatrix& x,
                 ThreadPool* pool = nullptr);

/// \brief y = x^T * A with x an (m x 1) vector; returns (1 x n).
DenseMatrix Gevm(const DenseMatrix& x, const DenseMatrix& a,
                 ThreadPool* pool = nullptr);

/// \brief A^T (tile-blocked; parallel over output row blocks).
DenseMatrix Transpose(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// \brief A + B.
DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b);

/// \brief A - B.
DenseMatrix Subtract(const DenseMatrix& a, const DenseMatrix& b);

/// \brief Element-wise (Hadamard) product.
DenseMatrix ElementwiseMultiply(const DenseMatrix& a, const DenseMatrix& b);

/// \brief alpha * A.
DenseMatrix Scale(const DenseMatrix& a, double alpha);

/// \brief A + alpha (element-wise scalar add).
DenseMatrix AddScalar(const DenseMatrix& a, double alpha);

/// \brief Applies `fn` to every element.
DenseMatrix Map(const DenseMatrix& a, const std::function<double(double)>& fn);

/// \brief In-place y += alpha * x over raw buffers of length n.
void Axpy(double alpha, const double* x, double* y, size_t n);

/// \brief Dot product of raw buffers of length n.
double Dot(const double* x, const double* y, size_t n);

/// \brief Dot product of two vectors (either orientation, same length).
double Dot(const DenseMatrix& x, const DenseMatrix& y);

/// \brief Sum of all elements (parallel tree reduction for large inputs).
double Sum(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// \brief Per-column sums as a 1 x cols row vector.
DenseMatrix ColumnSums(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// \brief Per-row sums as a rows x 1 column vector.
DenseMatrix RowSums(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// \brief Frobenius norm (parallel reduction for large inputs).
double FrobeniusNorm(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// \brief Squared L2 distance between row `r1` of a and row `r2` of b.
double RowSquaredDistance(const DenseMatrix& a, size_t r1, const DenseMatrix& b,
                          size_t r2);

// ---------------------------------------------------------------------------
// Output-reuse variants
// ---------------------------------------------------------------------------
//
// Each reshapes *out in place (capacity permitting: no allocation) and fully
// overwrites it. `out` must not alias an input.

void MultiplyInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out,
                  ThreadPool* pool = nullptr);
void MultiplyTransposeBInto(const DenseMatrix& a, const DenseMatrix& b,
                            DenseMatrix* out, ThreadPool* pool = nullptr);
void GramInto(const DenseMatrix& x, DenseMatrix* out, ThreadPool* pool = nullptr);
void TransposeMultiplyInto(const DenseMatrix& x, const DenseMatrix& m,
                           DenseMatrix* out, ThreadPool* pool = nullptr);
void GemvInto(const DenseMatrix& a, const DenseMatrix& x, DenseMatrix* out,
              ThreadPool* pool = nullptr);
void GevmInto(const DenseMatrix& x, const DenseMatrix& a, DenseMatrix* out,
              ThreadPool* pool = nullptr);
void TransposeInto(const DenseMatrix& a, DenseMatrix* out,
                   ThreadPool* pool = nullptr);
void AddInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out);
void SubtractInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out);
void ElementwiseMultiplyInto(const DenseMatrix& a, const DenseMatrix& b,
                             DenseMatrix* out);
void ScaleInto(const DenseMatrix& a, double alpha, DenseMatrix* out);
void AddScalarInto(const DenseMatrix& a, double alpha, DenseMatrix* out);
void MapInto(const DenseMatrix& a, const std::function<double(double)>& fn,
             DenseMatrix* out);
void ColumnSumsInto(const DenseMatrix& a, DenseMatrix* out,
                    ThreadPool* pool = nullptr);
void RowSumsInto(const DenseMatrix& a, DenseMatrix* out,
                 ThreadPool* pool = nullptr);

/// \brief Y += alpha * X for same-shape matrices (no reshape; Y must already
/// conform).
void AxpyInto(double alpha, const DenseMatrix& x, DenseMatrix* y);

// ---------------------------------------------------------------------------
// Row-windowed variants
// ---------------------------------------------------------------------------
//
// Operate on rows [row_begin, row_end) of the *left* operand without copying
// them out; outputs (and the M operand of the transpose forms) are
// window-relative. These back contiguous-fold cross-validation: a fold is a
// row range, not a gathered copy. Kernel choice and chunk grain are
// independent of the output width so a k-wide pass is bit-equal per column
// to k separate 1-wide passes over the same window.

/// \brief out = A[row_begin:row_end) * B; out becomes (row_end-row_begin) x n.
void MultiplyRangeInto(const DenseMatrix& a, size_t row_begin, size_t row_end,
                       const DenseMatrix& b, DenseMatrix* out,
                       ThreadPool* pool = nullptr);

/// \brief out = X[row_begin:row_end)ᵀ * M with M window-relative
/// ((row_end-row_begin) x k); out becomes (d x k).
void TransposeMultiplyRangeInto(const DenseMatrix& x, size_t row_begin,
                                size_t row_end, const DenseMatrix& m,
                                DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief out = X[row_begin:row_end)ᵀ X[row_begin:row_end) (d x d): the SYRK
/// accumulator over a window of rows, reduced from per-chunk partials whose
/// grain depends on d only. GramInto is its [0, rows) window.
void GramRangeInto(const DenseMatrix& x, size_t row_begin, size_t row_end,
                   DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief The SYRK building block behind every Gram kernel: adds the upper
/// triangle of X[rbegin:rend)ᵀ X[rbegin:rend) into the d x d row-major
/// buffer `g`, four rows per bundle, skipping all-zero bundle columns.
void AccumulateGramUpper(const DenseMatrix& x, size_t rbegin, size_t rend,
                         double* g);

/// \brief Copies the upper triangle of the square `g` onto its lower one.
void MirrorUpperTriangle(DenseMatrix* g);

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

/// \brief y = A * x for CSR A and dense (n x 1) x.
DenseMatrix SparseGemv(const SparseMatrix& a, const DenseMatrix& x,
                       ThreadPool* pool = nullptr);

/// \brief y = x^T * A for CSR A; returns (1 x n). Parallel via per-chunk
/// private dense accumulators plus a reduction.
DenseMatrix SparseGevm(const DenseMatrix& x, const SparseMatrix& a,
                       ThreadPool* pool = nullptr);

/// \brief C = A * B for CSR A and dense B.
DenseMatrix SparseMultiplyDense(const SparseMatrix& a, const DenseMatrix& b,
                                ThreadPool* pool = nullptr);

/// \brief A^T for CSR A (returns CSR). Two-pass counting transpose: O(nnz)
/// with no sort.
SparseMatrix SparseTranspose(const SparseMatrix& a);

// Output-reuse variants and CSR reductions, consumed by the laopt executor's
// representation dispatch. The Into forms reshape `*out` (counting
// la.inplace.reuses / la.inplace.allocs) and fully overwrite it.

/// \brief y = A * x into `*out` for CSR A and dense (n x 1) x: the
/// [0, rows) window of SparseMultiplyDenseRangeInto.
void SparseGemvInto(const SparseMatrix& a, const DenseMatrix& x,
                    DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief y = x^T * A into `*out` (1 x n) for CSR A: the [0, rows) window
/// of SparseTransposeMultiplyRangeInto, reshaped to a row vector.
void SparseGevmInto(const DenseMatrix& x, const SparseMatrix& a,
                    DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief C = A * B into `*out` for CSR A and dense B: the [0, rows) window
/// of SparseMultiplyDenseRangeInto.
void SparseMultiplyDenseInto(const SparseMatrix& a, const DenseMatrix& b,
                             DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief Sum of all stored values (== full sum; zeros contribute nothing).
double SparseSum(const SparseMatrix& a);

/// \brief Per-row sums into `*out` (rows x 1). O(nnz).
void SparseRowSumsInto(const SparseMatrix& a, DenseMatrix* out);

/// \brief Per-column sums into `*out` (1 x cols). O(nnz).
void SparseColumnSumsInto(const SparseMatrix& a, DenseMatrix* out);

/// \brief Per-row squared L2 norms into `*out` (rows x 1) — the fused
/// rowSums(A ⊙ A) the k-means distance expansion needs. O(nnz).
void SparseRowSquaredNormsInto(const SparseMatrix& a, DenseMatrix* out);

/// \brief out = A[row_begin:row_end) * B for CSR A; out is window-relative
/// ((row_end-row_begin) x b.cols()). CSR row offsets make the row window a
/// positional slice — no scan from row 0. A one-column B runs the gemv loop
/// (a register dot product per row); wider B axpys each entry's B row.
void SparseMultiplyDenseRangeInto(const SparseMatrix& a, size_t row_begin,
                                  size_t row_end, const DenseMatrix& b,
                                  DenseMatrix* out, ThreadPool* pool = nullptr);

/// \brief out = A[row_begin:row_end)ᵀ * M for CSR A with M window-relative
/// ((row_end-row_begin) x k); out becomes (cols x k). Per-chunk private
/// partials + reduction. A one-column M runs the gevm loop (scalar scatter,
/// zero entries of M skipped); wider M axpys each M row.
void SparseTransposeMultiplyRangeInto(const SparseMatrix& a, size_t row_begin,
                                      size_t row_end, const DenseMatrix& m,
                                      DenseMatrix* out,
                                      ThreadPool* pool = nullptr);

/// \brief out = S[row_begin:row_end)ᵀ S[row_begin:row_end) (cols x cols) for
/// CSR S: each row adds the upper-triangle products of its nonzeros into a
/// per-chunk partial, and the reduced triangle is mirrored at the end.
/// O(Σ_rows nnz_r²) — no densified window.
void SparseGramRangeInto(const SparseMatrix& s, size_t row_begin,
                         size_t row_end, DenseMatrix* out,
                         ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// GLM residuals and loss
// ---------------------------------------------------------------------------

/// \brief A generalized linear model's response family: its link and its
/// per-example loss. ml::GlmFamily is this type.
enum class GlmFamily {
  kGaussian,  ///< Identity link; squared loss (linear regression).
  kBinomial,  ///< Logit link; log loss (logistic regression).
};

/// \brief The elementwise middle of a batch-GD epoch, over an n x k score
/// block: cell (i, c) has score s = scores(i, c) + intercepts[c] and label
/// y[i]. Writes the residual dLoss/ds into resid(i, c) and adds the cell's
/// loss term and residual to loss_sums[c] and resid_sums[c].
///
///  * Gaussian: r = s − y, loss ½r².
///  * Binomial: z = exp(−|s|), σ = 1/(1+z) for s ≥ 0 and z/(1+z) otherwise,
///    r = σ − y, loss max(−m, 0) + log1p(z) for the margin m = ±s (+ for a
///    label above 0.5).
///
/// `resid` must already be n x k and may be `&scores`; `y` points at the
/// window's n labels. The sums belong to the caller and run over the rows in
/// order, so consecutive windows chain into one sum. Every cell takes the
/// same 4-lane vector path — exp and log1p are polynomials within 1 ulp of
/// libm, and a NaN score gives NaN — so a column of a k-wide block is
/// bit-equal to the same column run alone. Allocates nothing.
void GlmResidualsInto(const DenseMatrix& scores, const double* intercepts,
                      const double* y, GlmFamily family, DenseMatrix* resid,
                      double* loss_sums, double* resid_sums);

// ---------------------------------------------------------------------------
// Elementwise cell programs
// ---------------------------------------------------------------------------

/// \brief One instruction of a postfix cell program over same-shaped inputs.
struct CellOp {
  enum Code : uint8_t {
    kLoad,   ///< Push input `input`'s cell.
    kAdd,    ///< Pop b, pop a, push a + b.
    kSub,    ///< Pop b, pop a, push a − b.
    kMul,    ///< Pop b, pop a, push a · b.
    kScale,  ///< Replace the top t with alpha · t.
  };
  Code code = kLoad;
  uint32_t input = 0;  ///< kLoad only.
  double alpha = 1.0;  ///< kScale only.
};
using CellProgram = std::vector<CellOp>;

/// \brief Deepest stack a well-formed `program` reaches.
size_t CellProgramDepth(const CellProgram& program);

/// \brief out = `program` run on every cell of `inputs`, which all have the
/// result's shape. `program` must be well-formed: every load names an input,
/// no pop finds the stack empty, and one value is left. Cells run in blocks
/// of at most 512 and each instruction is one loop over the block, so a
/// cell sees exactly the roundings of the unfused ScaleInto / AddInto /
/// SubtractInto / ElementwiseMultiplyInto chain: the result is bit-equal to
/// it at any chunking. Scratch is one block per stack level per chunk.
/// `out` must not alias an input.
void CellProgramInto(const CellProgram& program,
                     const std::vector<const DenseMatrix*>& inputs,
                     DenseMatrix* out, ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// Naive reference kernels
// ---------------------------------------------------------------------------
//
// The original unblocked serial implementations, kept as the ground truth
// for parity tests and as the bench baseline the blocked engine is measured
// against. Not for production call sites.
namespace reference {

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix Transpose(const DenseMatrix& a);
DenseMatrix Gram(const DenseMatrix& x);
DenseMatrix TransposeMultiply(const DenseMatrix& x, const DenseMatrix& m);
DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b);
DenseMatrix Gevm(const DenseMatrix& x, const DenseMatrix& a);
DenseMatrix ColumnSums(const DenseMatrix& a);
double Sum(const DenseMatrix& a);
double FrobeniusNorm(const DenseMatrix& a);
DenseMatrix SparseGevm(const DenseMatrix& x, const SparseMatrix& a);
SparseMatrix SparseTranspose(const SparseMatrix& a);

}  // namespace reference

}  // namespace dmml::la

#endif  // DMML_LA_KERNELS_H_
