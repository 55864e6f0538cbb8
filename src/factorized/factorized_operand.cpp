#include "factorized/factorized_operand.h"

#include <utility>

#include "factorized/factorized_gramian.h"

namespace dmml::factorized {

Result<la::DenseMatrix> NormalizedOperand::Multiply(const la::DenseMatrix& m,
                                                    size_t row_begin,
                                                    size_t row_end,
                                                    ThreadPool* /*pool*/) const {
  return m_->Multiply(m, row_begin, row_end);
}

Result<la::DenseMatrix> NormalizedOperand::TransposeMultiply(
    const la::DenseMatrix& m, size_t row_begin, size_t row_end,
    ThreadPool* /*pool*/) const {
  return m_->TransposeMultiply(m, row_begin, row_end);
}

Result<la::DenseMatrix> NormalizedOperand::Gram(size_t row_begin,
                                                size_t row_end,
                                                ThreadPool* /*pool*/) const {
  return FactorizedGramian(*m_, row_begin, row_end);
}

Result<la::DenseMatrix> NormalizedOperand::RowSquaredNorms(
    ThreadPool* /*pool*/) const {
  return m_->RowSquaredNorms();
}

Result<la::DenseMatrix> NormalizedOperand::ColumnSums(
    ThreadPool* /*pool*/) const {
  // FactorizedColumnSums yields d x 1; the executor's colSums contract is a
  // 1 x d row vector (identical contiguous storage).
  la::DenseMatrix sums = FactorizedColumnSums(*m_);
  sums.Reshape(1, sums.rows());
  return sums;
}

la::DenseMatrix NormalizedOperand::Materialize(size_t row_begin, size_t row_end,
                                               ThreadPool* /*pool*/) const {
  return m_->Materialize(row_begin, row_end);
}

uint64_t NormalizedOperand::SizeInBytes() const {
  // Cells actually stored in normalized form: the entity block plus each
  // attribute table's features and its fk column.
  uint64_t bytes = static_cast<uint64_t>(m_->entity_features().rows()) *
                   m_->entity_features().cols() * sizeof(double);
  for (const AttributeTable& t : m_->tables()) {
    bytes += static_cast<uint64_t>(t.features.rows()) * t.features.cols() *
             sizeof(double);
    bytes += t.fk.size() * sizeof(uint32_t);
  }
  return bytes;
}

laopt::Operand MakeFactorizedOperand(
    std::shared_ptr<const NormalizedMatrix> m) {
  return laopt::Operand(std::shared_ptr<const laopt::LinearOperator>(
      std::make_shared<const NormalizedOperand>(std::move(m))));
}

laopt::Operand MakeFactorizedOperand(NormalizedMatrix m) {
  return MakeFactorizedOperand(
      std::make_shared<const NormalizedMatrix>(std::move(m)));
}

}  // namespace dmml::factorized
