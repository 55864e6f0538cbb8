/// \file operand.h
/// \brief Representation-polymorphic leaf values for laopt plans.
///
/// An Operand is a tagged handle over one of the three physical matrix
/// representations the engine knows how to execute against:
///
///  * la::DenseMatrix      — row-major dense (the default),
///  * la::SparseMatrix     — CSR,
///  * cla::CompressedMatrix — column-compressed (DDC/RLE/OLE/UC groups).
///
/// Plans are written once against logical matrices; the binding — an
/// Environment entry or an ExprNode::InputOperand leaf — decides which
/// physical kernels the executor dispatches to (SystemML/CLA-style
/// representation transparency, Elgohary et al., VLDB'16). Operands are
/// cheap shared handles: copying one never copies matrix data.
#ifndef DMML_LAOPT_OPERAND_H_
#define DMML_LAOPT_OPERAND_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "cla/compressed_matrix.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::laopt {

/// \brief Physical representation of a bound operand (or the analyzer's
/// per-node choice of one).
enum class Repr {
  kDense,       ///< Row-major la::DenseMatrix.
  kSparse,      ///< CSR la::SparseMatrix.
  kCompressed,  ///< cla::CompressedMatrix column groups.
  kFactorized,  ///< Abstract LinearOperator (e.g. a normalized join).
};

/// \brief Abstract matrix-free operand: anything that can act as a linear
/// operator without exposing its cells. The canonical implementation is the
/// factorized (normalized-join) design matrix in `factorized/`, which
/// answers T·m and Tᵀ·m by pushing work through the join instead of
/// materializing it (Orion / Morpheus). laopt depends only on this
/// interface, so the dependency arrow stays factorized → laopt.
///
/// The executor dispatches the products its trainer programs need — T·m,
/// Tᵀ·m, Gram (TᵀT), rowSums(T⊙T), colSums(T) — to these virtuals and falls
/// back to Materialize() for anything else (the same densify-on-mismatch
/// contract the compressed representation has). The two products, Gram and
/// Materialize take a window of rows, so a row-windowed Operand (a
/// cross-validation fold) runs the products without materializing the
/// window, and densifies only the window's rows when it must.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;

  /// T[row_begin:row_end) · m for m of shape (cols() x k); the result is
  /// (row_end - row_begin) x k.
  virtual Result<la::DenseMatrix> Multiply(const la::DenseMatrix& m,
                                           size_t row_begin, size_t row_end,
                                           ThreadPool* pool) const = 0;
  /// T[row_begin:row_end)ᵀ · m for window-relative m of shape
  /// ((row_end - row_begin) x k); the result is cols() x k.
  virtual Result<la::DenseMatrix> TransposeMultiply(const la::DenseMatrix& m,
                                                    size_t row_begin,
                                                    size_t row_end,
                                                    ThreadPool* pool) const = 0;
  /// T[row_begin:row_end)ᵀ T[row_begin:row_end) (cols() x cols()); the
  /// unsliced Gram is the [0, rows()) window. Default: materialize the
  /// window and run the dense SYRK.
  virtual Result<la::DenseMatrix> Gram(size_t row_begin, size_t row_end,
                                       ThreadPool* pool) const;
  /// Per-row sums of squared entries (rows() x 1). Default: materialize.
  virtual Result<la::DenseMatrix> RowSquaredNorms(ThreadPool* pool) const;
  /// Column sums as a 1 x cols() row vector. Default: Tᵀ·1 reshaped.
  virtual Result<la::DenseMatrix> ColumnSums(ThreadPool* pool) const;

  /// Dense copy of rows [row_begin, row_end) of the operator output, (row_end
  /// - row_begin) x cols() (the densify fallback); [0, rows()) is the whole.
  virtual la::DenseMatrix Materialize(size_t row_begin, size_t row_end,
                                      ThreadPool* pool) const = 0;

  /// Resident bytes of the operator's own storage (not the materialized
  /// size — the gap between the two is exactly what the chooser weighs).
  virtual uint64_t SizeInBytes() const = 0;

  /// Short stable name for EXPLAIN / metrics (e.g. "normalized_matrix").
  virtual const char* Name() const = 0;
};

/// \brief Stable identifier ("dense", "sparse", "compressed") usable as a
/// metric-name suffix and in EXPLAIN dumps.
const char* ReprName(Repr repr);

/// \brief A bound leaf value in any representation, or unbound (placeholder).
///
/// Implicitly constructible from a shared_ptr to any of the three matrix
/// types (const or mutable), so existing call sites that build parser
/// environments from `std::shared_ptr<la::DenseMatrix>` keep compiling
/// unchanged.
class Operand {
 public:
  /// Unbound operand (placeholder leaf).
  Operand() = default;

  // NOLINTBEGIN(google-explicit-constructor): implicit by design — an
  // Operand *is* a matrix handle, and environments/leaves accept any of the
  // three representations interchangeably.
  Operand(std::shared_ptr<const la::DenseMatrix> m);
  Operand(std::shared_ptr<la::DenseMatrix> m)
      : Operand(std::shared_ptr<const la::DenseMatrix>(std::move(m))) {}
  Operand(std::shared_ptr<const la::SparseMatrix> m) : sparse_(std::move(m)) {}
  Operand(std::shared_ptr<la::SparseMatrix> m) : sparse_(std::move(m)) {}
  Operand(std::shared_ptr<const cla::CompressedMatrix> m)
      : compressed_(std::move(m)) {}
  Operand(std::shared_ptr<cla::CompressedMatrix> m) : compressed_(std::move(m)) {}
  Operand(std::shared_ptr<const LinearOperator> op) : linear_(std::move(op)) {}
  // NOLINTEND(google-explicit-constructor)

  /// \brief True iff a matrix is bound (in any representation).
  bool bound() const { return dense_ || sparse_ || compressed_ || linear_; }

  /// \brief Representation of the bound matrix; kDense when unbound.
  Repr repr() const {
    if (sparse_) return Repr::kSparse;
    if (compressed_) return Repr::kCompressed;
    if (linear_) return Repr::kFactorized;
    return Repr::kDense;
  }

  /// Logical rows: the window height when windowed, else the full height.
  size_t rows() const;
  size_t cols() const;

  // ---------------------------------------------------------------------
  // Row windows. A windowed operand is a zero-copy view of rows
  // [window_begin, window_end) of the bound matrix — the payload is shared
  // with the parent handle and the executor dispatches ranged kernels
  // (dense pointer-offset GEMM, sparse CSR slices, CLA positional seeks,
  // factorized products over a window of fact rows) instead of
  // materialising the slice. Contiguous-fold cross-validation trains
  // leave-one-fold-out through two such views per fold, and a single model
  // through one view of every row.
  // ---------------------------------------------------------------------

  /// \brief Zero-copy view of rows [row_begin, row_end) of *this* operand's
  /// window (offsets compose: slicing a slice re-slices the base matrix).
  Operand Slice(size_t row_begin, size_t row_end) const;

  /// \brief True iff this handle views a proper row range of its payload.
  bool windowed() const { return windowed_; }
  /// \brief First payload row of the view (0 when not windowed).
  size_t window_begin() const { return win_begin_; }
  /// \brief One past the last payload row of the view (payload rows when
  /// not windowed).
  size_t window_end() const;

  /// Typed accessors: non-null only for the matching representation.
  const la::DenseMatrix* dense() const { return dense_.get(); }
  const la::SparseMatrix* sparse() const { return sparse_.get(); }
  const cla::CompressedMatrix* compressed() const { return compressed_.get(); }
  const LinearOperator* linear() const { return linear_.get(); }

  /// \brief The dense handle (empty unless repr() == kDense). Kept as a
  /// shared_ptr so dense-only call sites (ExprNode::matrix()) can share
  /// ownership without a copy.
  const std::shared_ptr<const la::DenseMatrix>& dense_ptr() const {
    return dense_;
  }

  /// \brief Identity of the bound payload (for CSE/memo keys); null when
  /// unbound.
  const void* payload() const;

  /// \brief Nonzero fraction of the bound payload — the whole payload, also
  /// for a windowed view. Exact for sparse (CSR nnz) and for dense: a dense
  /// binding is counted once, on the first call, into a cell that every copy
  /// and Slice of this handle shares, so parser leaves, Environment copies
  /// and fold views reuse one count (`laopt.analysis.dense_nnz_scans`
  /// counts the scans taken). An empty dense matrix reads 0. 1.0 for
  /// compressed, factorized and unbound operands (no cheap count).
  ///
  /// The first count wins: a caller who mutates a bound dense matrix in
  /// place keeps the old count until they bind a new Operand. The count
  /// only feeds plan-time estimates, never results.
  double Sparsity() const;

  /// \brief Estimated resident bytes of the bound matrix in its own
  /// representation (dense: rows*cols*8, sparse: CSR cells, compressed:
  /// exact group sizes). 0 when unbound.
  uint64_t SizeInBytes() const;

  /// \brief Materializes a dense copy (the densify-on-mismatch fallback).
  la::DenseMatrix ToDense(ThreadPool* pool = nullptr) const;

 private:
  size_t PayloadRows() const;

  std::shared_ptr<const la::DenseMatrix> dense_;
  /// The dense payload's nonzero count, shared by every copy and Slice of
  /// this binding; kUncounted until the first Sparsity() call.
  std::shared_ptr<std::atomic<uint64_t>> dense_nnz_;
  std::shared_ptr<const la::SparseMatrix> sparse_;
  std::shared_ptr<const cla::CompressedMatrix> compressed_;
  std::shared_ptr<const LinearOperator> linear_;
  bool windowed_ = false;
  size_t win_begin_ = 0;
  size_t win_end_ = 0;
};

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_OPERAND_H_
