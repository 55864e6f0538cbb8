#include "laopt/operand.h"

#include "la/kernels.h"
#include "obs/metrics.h"

namespace dmml::laopt {

namespace {

// dense_nnz_ before the binding's first Sparsity() call.
constexpr uint64_t kUncounted = UINT64_MAX;

}  // namespace

const char* ReprName(Repr repr) {
  switch (repr) {
    case Repr::kDense: return "dense";
    case Repr::kSparse: return "sparse";
    case Repr::kCompressed: return "compressed";
    case Repr::kFactorized: return "factorized";
  }
  return "unknown";
}

Result<la::DenseMatrix> LinearOperator::Gram(size_t row_begin, size_t row_end,
                                             ThreadPool* pool) const {
  la::DenseMatrix dense = Materialize(row_begin, row_end, pool);
  la::DenseMatrix out;
  la::GramInto(dense, &out, pool);
  return out;
}

Result<la::DenseMatrix> LinearOperator::RowSquaredNorms(ThreadPool* pool) const {
  la::DenseMatrix dense = Materialize(0, rows(), pool);
  la::DenseMatrix out(dense.rows(), 1);
  for (size_t i = 0; i < dense.rows(); ++i) {
    const double* row = dense.Row(i);
    double acc = 0.0;
    for (size_t j = 0; j < dense.cols(); ++j) acc += row[j] * row[j];
    out.At(i, 0) = acc;
  }
  return out;
}

Result<la::DenseMatrix> LinearOperator::ColumnSums(ThreadPool* pool) const {
  la::DenseMatrix ones(rows(), 1, 1.0);
  DMML_ASSIGN_OR_RETURN(la::DenseMatrix col,
                        TransposeMultiply(ones, 0, rows(), pool));
  la::DenseMatrix out(1, col.rows());
  for (size_t j = 0; j < col.rows(); ++j) out.At(0, j) = col.At(j, 0);
  return out;
}

Operand::Operand(std::shared_ptr<const la::DenseMatrix> m)
    : dense_(std::move(m)),
      dense_nnz_(dense_ ? std::make_shared<std::atomic<uint64_t>>(kUncounted)
                        : nullptr) {}

size_t Operand::PayloadRows() const {
  if (dense_) return dense_->rows();
  if (sparse_) return sparse_->rows();
  if (compressed_) return compressed_->rows();
  if (linear_) return linear_->rows();
  return 0;
}

size_t Operand::rows() const {
  if (windowed_) return win_end_ - win_begin_;
  return PayloadRows();
}

size_t Operand::window_end() const {
  return windowed_ ? win_end_ : PayloadRows();
}

Operand Operand::Slice(size_t row_begin, size_t row_end) const {
  Operand view = *this;
  const size_t base = windowed_ ? win_begin_ : 0;
  const size_t limit = window_end();
  view.win_begin_ = base + row_begin;
  view.win_end_ = base + row_end;
  if (view.win_end_ > limit) view.win_end_ = limit;
  if (view.win_begin_ > view.win_end_) view.win_begin_ = view.win_end_;
  view.windowed_ = true;
  return view;
}

size_t Operand::cols() const {
  if (dense_) return dense_->cols();
  if (sparse_) return sparse_->cols();
  if (compressed_) return compressed_->cols();
  if (linear_) return linear_->cols();
  return 0;
}

const void* Operand::payload() const {
  if (dense_) return dense_.get();
  if (sparse_) return sparse_.get();
  if (compressed_) return compressed_.get();
  if (linear_) return linear_.get();
  return nullptr;
}

double Operand::Sparsity() const {
  if (sparse_) return sparse_->Density();
  if (!dense_) return 1.0;
  const size_t cells = dense_->size();
  if (cells == 0) return 0.0;
  uint64_t nnz = dense_nnz_->load();
  if (nnz == kUncounted) {
    const double* data = dense_->data();
    uint64_t counted = 0;
    for (size_t i = 0; i < cells; ++i) counted += data[i] != 0.0 ? 1 : 0;
    DMML_COUNTER_INC("laopt.analysis.dense_nnz_scans");
    // Racing first calls each count; the first to publish wins, so every
    // caller returns the same value.
    uint64_t expected = kUncounted;
    nnz = dense_nnz_->compare_exchange_strong(expected, counted) ? counted
                                                                 : expected;
  }
  return static_cast<double>(nnz) / static_cast<double>(cells);
}

uint64_t Operand::SizeInBytes() const {
  if (dense_) {
    return static_cast<uint64_t>(dense_->rows()) * dense_->cols() *
           sizeof(double);
  }
  if (sparse_) {
    // CSR: value + column index per nonzero, plus the row-pointer array.
    return static_cast<uint64_t>(sparse_->nnz()) *
               (sizeof(double) + sizeof(uint32_t)) +
           static_cast<uint64_t>(sparse_->rows() + 1) * sizeof(size_t);
  }
  if (compressed_) return compressed_->SizeInBytes();
  if (linear_) return linear_->SizeInBytes();
  return 0;
}

la::DenseMatrix Operand::ToDense(ThreadPool* pool) const {
  if (windowed_) {
    if (dense_) return dense_->SliceRows(win_begin_, win_end_);
    if (sparse_) return sparse_->ToDense().SliceRows(win_begin_, win_end_);
    if (compressed_) {
      la::DenseMatrix out;
      (void)compressed_->DecompressRangeInto(win_begin_, win_end_, &out, pool);
      return out;
    }
    if (linear_) return linear_->Materialize(win_begin_, win_end_, pool);
    return {};
  }
  if (dense_) return *dense_;
  if (sparse_) return sparse_->ToDense();
  if (compressed_) return compressed_->Decompress(pool);
  if (linear_) return linear_->Materialize(0, linear_->rows(), pool);
  return {};
}

}  // namespace dmml::laopt
