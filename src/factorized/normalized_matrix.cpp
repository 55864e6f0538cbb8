#include "factorized/normalized_matrix.h"

#include <string>

#include "la/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dmml::factorized {

using la::DenseMatrix;

namespace {

// Multiplying a window of `rows` fact rows through the normalized form
// touches each attribute row once instead of once per referencing fact row;
// the difference against the materialized product is the redundancy the
// factorization avoided.
void RecordAvoidedFlops(const NormalizedMatrix& t, size_t rows, size_t k) {
  double materialized = 2.0 * static_cast<double>(rows) *
                        static_cast<double>(t.cols()) * static_cast<double>(k);
  double factorized = 2.0 * static_cast<double>(rows) *
                      static_cast<double>(t.entity_features().cols()) *
                      static_cast<double>(k);
  for (const auto& tab : t.tables()) {
    factorized += 2.0 * static_cast<double>(tab.features.rows()) *
                  static_cast<double>(tab.features.cols()) *
                  static_cast<double>(k);
    // The per-row gather/scatter of the (rows x k) partials.
    factorized += 2.0 * static_cast<double>(rows) * static_cast<double>(k);
  }
  if (materialized > factorized) {
    DMML_COUNTER_ADD("factorized.flops_avoided",
                     static_cast<uint64_t>(materialized - factorized));
  }
}

Status CheckWindow(const char* op, size_t row_begin, size_t row_end,
                   size_t rows) {
  if (row_begin > row_end || row_end > rows) {
    return Status::InvalidArgument(std::string(op) + ": bad row window [" +
                                   std::to_string(row_begin) + ", " +
                                   std::to_string(row_end) + ") of " +
                                   std::to_string(rows) + " rows");
  }
  return Status::OK();
}

}  // namespace

Result<NormalizedMatrix> NormalizedMatrix::Make(DenseMatrix entity_features,
                                                std::vector<AttributeTable> tables) {
  const size_t ns = entity_features.rows();
  if (ns == 0) return Status::InvalidArgument("NormalizedMatrix: zero rows");
  if (tables.empty()) {
    return Status::InvalidArgument("NormalizedMatrix needs >= 1 attribute table");
  }
  size_t cols = entity_features.cols();
  for (size_t t = 0; t < tables.size(); ++t) {
    const auto& tab = tables[t];
    if (tab.fk.size() != ns) {
      return Status::InvalidArgument("table " + std::to_string(t) +
                                     ": fk length does not match entity rows");
    }
    const size_t nr = tab.features.rows();
    if (nr == 0 || tab.features.cols() == 0) {
      return Status::InvalidArgument("table " + std::to_string(t) +
                                     ": empty attribute features");
    }
    for (uint32_t key : tab.fk) {
      if (key >= nr) {
        return Status::OutOfRange("table " + std::to_string(t) +
                                  ": foreign key out of range");
      }
    }
    cols += tab.features.cols();
  }
  NormalizedMatrix nm;
  nm.rows_ = ns;
  nm.cols_ = cols;
  nm.entity_ = std::move(entity_features);
  nm.tables_ = std::move(tables);
  return nm;
}

Result<DenseMatrix> NormalizedMatrix::Multiply(const DenseMatrix& m) const {
  return Multiply(m, 0, rows_);
}

Result<DenseMatrix> NormalizedMatrix::Multiply(const DenseMatrix& m,
                                               size_t row_begin,
                                               size_t row_end) const {
  if (m.rows() != cols_) {
    return Status::InvalidArgument("Multiply: operand has " + std::to_string(m.rows()) +
                                   " rows, expected " + std::to_string(cols_));
  }
  DMML_RETURN_IF_ERROR(CheckWindow("Multiply", row_begin, row_end, rows_));
  const size_t k = m.cols(), range = row_end - row_begin;
  DMML_TRACE_SPAN("factorized.multiply");
  DMML_COUNTER_INC("factorized.multiply_calls");
  RecordAvoidedFlops(*this, range, k);
  DenseMatrix out(range, k);

  // Entity block: XS[b:e) * M_S, the ranged dense product over the window.
  size_t offset = 0;
  const size_t ds = entity_.cols();
  if (ds > 0) {
    DenseMatrix ms = m.SliceRows(0, ds);
    la::MultiplyRangeInto(entity_, row_begin, row_end, ms, &out);
    offset = ds;
  }

  // Attribute blocks: compute XR_i * M_i once per distinct rid, then gather
  // through the window's keys.
  for (const auto& tab : tables_) {
    const size_t dr = tab.features.cols();
    DenseMatrix mi = m.SliceRows(offset, offset + dr);
    DenseMatrix partial = la::Multiply(tab.features, mi);  // nR x k
    for (size_t i = row_begin; i < row_end; ++i) {
      la::Axpy(1.0, partial.Row(tab.fk[i]), out.Row(i - row_begin), k);
    }
    offset += dr;
  }
  return out;
}

Result<DenseMatrix> NormalizedMatrix::TransposeMultiply(const DenseMatrix& m) const {
  return TransposeMultiply(m, 0, rows_);
}

Result<DenseMatrix> NormalizedMatrix::TransposeMultiply(const DenseMatrix& m,
                                                        size_t row_begin,
                                                        size_t row_end) const {
  DMML_RETURN_IF_ERROR(CheckWindow("TransposeMultiply", row_begin, row_end, rows_));
  const size_t range = row_end - row_begin;
  if (m.rows() != range) {
    return Status::InvalidArgument("TransposeMultiply: operand has " +
                                   std::to_string(m.rows()) + " rows, expected " +
                                   std::to_string(range));
  }
  const size_t k = m.cols();
  DMML_TRACE_SPAN("factorized.transpose_multiply");
  DMML_COUNTER_INC("factorized.multiply_calls");
  RecordAvoidedFlops(*this, range, k);
  DenseMatrix out(cols_, k);

  // Entity block: XS[b:e)ᵀ * M.
  size_t offset = 0;
  const size_t ds = entity_.cols();
  if (ds > 0) {
    for (size_t i = row_begin; i < row_end; ++i) {
      const double* xs = entity_.Row(i);
      const double* mrow = m.Row(i - row_begin);
      for (size_t j = 0; j < ds; ++j) {
        la::Axpy(xs[j], mrow, out.Row(j), k);
      }
    }
    offset = ds;
  }

  // Attribute blocks: group-accumulate the window's rows of m by fk, then
  // XR_iᵀ * grouped.
  for (const auto& tab : tables_) {
    const size_t nr = tab.features.rows();
    const size_t dr = tab.features.cols();
    DenseMatrix grouped(nr, k);
    for (size_t i = row_begin; i < row_end; ++i) {
      la::Axpy(1.0, m.Row(i - row_begin), grouped.Row(tab.fk[i]), k);
    }
    // XR_iᵀ (dr x nr) * grouped (nr x k) without forming the transpose.
    for (size_t r = 0; r < nr; ++r) {
      const double* xr = tab.features.Row(r);
      const double* g = grouped.Row(r);
      for (size_t j = 0; j < dr; ++j) {
        la::Axpy(xr[j], g, out.Row(offset + j), k);
      }
    }
    offset += dr;
  }
  return out;
}

DenseMatrix NormalizedMatrix::RowSquaredNorms() const {
  DenseMatrix out(rows_, 1);
  const size_t ds = entity_.cols();
  for (size_t i = 0; i < rows_; ++i) {
    out.At(i, 0) = la::Dot(entity_.Row(i), entity_.Row(i), ds);
  }
  for (const auto& tab : tables_) {
    const size_t nr = tab.features.rows();
    const size_t dr = tab.features.cols();
    // Per-rid squared norms, computed once.
    std::vector<double> norms(nr);
    for (size_t r = 0; r < nr; ++r) {
      norms[r] = la::Dot(tab.features.Row(r), tab.features.Row(r), dr);
    }
    for (size_t i = 0; i < rows_; ++i) out.At(i, 0) += norms[tab.fk[i]];
  }
  return out;
}

DenseMatrix NormalizedMatrix::Materialize() const { return Materialize(0, rows_); }

DenseMatrix NormalizedMatrix::Materialize(size_t row_begin, size_t row_end) const {
  DMML_CHECK(row_begin <= row_end && row_end <= rows_);
  DenseMatrix out(row_end - row_begin, cols_);
  const size_t ds = entity_.cols();
  for (size_t i = row_begin; i < row_end; ++i) {
    double* row = out.Row(i - row_begin);
    const double* xs = entity_.Row(i);
    for (size_t j = 0; j < ds; ++j) row[j] = xs[j];
    size_t offset = ds;
    for (const auto& tab : tables_) {
      const size_t dr = tab.features.cols();
      const double* xr = tab.features.Row(tab.fk[i]);
      for (size_t j = 0; j < dr; ++j) row[offset + j] = xr[j];
      offset += dr;
    }
  }
  return out;
}

double NormalizedMatrix::RedundancyRatio() const {
  double materialized = static_cast<double>(rows_) * static_cast<double>(cols_);
  double normalized = static_cast<double>(entity_.size());
  for (const auto& tab : tables_) {
    normalized += static_cast<double>(tab.features.size());
    normalized += static_cast<double>(tab.fk.size());  // Key column storage.
  }
  return materialized / normalized;
}

}  // namespace dmml::factorized
