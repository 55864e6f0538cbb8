#include "laopt/expr.h"

#include <sstream>
#include <unordered_set>

namespace dmml::laopt {

namespace {
// Private-constructor helper: make_shared cannot reach ExprNode's private
// constructor, so allocate through a local subclass.
struct NodeMaker : ExprNode {};

std::shared_ptr<ExprNode> NewNode() {
  return std::static_pointer_cast<ExprNode>(std::make_shared<NodeMaker>());
}

bool Known(size_t dim) { return dim != ExprNode::kUnknownDim; }

std::string DimStr(size_t dim) {
  return Known(dim) ? std::to_string(dim) : std::string("?");
}

// a == b, treating unknown as compatible with anything.
bool DimsCompatible(size_t a, size_t b) {
  return !Known(a) || !Known(b) || a == b;
}

// The common value of two compatible dims; a known dim wins over an unknown
// one (the unknown operand must match it at bind time or execution fails).
size_t MergeDims(size_t a, size_t b) { return Known(a) ? a : b; }
}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kTranspose: return "transpose";
    case OpKind::kAdd: return "add";
    case OpKind::kSubtract: return "subtract";
    case OpKind::kElemMul: return "elem_mul";
    case OpKind::kScalarMul: return "scalar_mul";
    case OpKind::kSum: return "sum";
    case OpKind::kRowSums: return "row_sums";
    case OpKind::kColSums: return "col_sums";
  }
  return "unknown";
}

size_t ExprNode::NumNodes() const {
  std::unordered_set<const ExprNode*> seen;
  std::vector<const ExprNode*> stack{this};
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const auto& c : node->children_) stack.push_back(c.get());
  }
  return seen.size();
}

std::string ExprNode::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case OpKind::kInput:
      os << (name_.empty() ? "M" : name_) << "[" << DimStr(rows_) << "x"
         << DimStr(cols_) << "]";
      break;
    case OpKind::kMatMul:
      os << "(" << children_[0]->ToString() << " * " << children_[1]->ToString()
         << ")";
      break;
    case OpKind::kTranspose:
      os << "t(" << children_[0]->ToString() << ")";
      break;
    case OpKind::kAdd:
      os << "(" << children_[0]->ToString() << " + " << children_[1]->ToString()
         << ")";
      break;
    case OpKind::kSubtract:
      os << "(" << children_[0]->ToString() << " - " << children_[1]->ToString()
         << ")";
      break;
    case OpKind::kElemMul:
      os << "(" << children_[0]->ToString() << " .* " << children_[1]->ToString()
         << ")";
      break;
    case OpKind::kScalarMul:
      os << "(" << scalar_ << " * " << children_[0]->ToString() << ")";
      break;
    case OpKind::kSum:
      os << "sum(" << children_[0]->ToString() << ")";
      break;
    case OpKind::kRowSums:
      os << "rowSums(" << children_[0]->ToString() << ")";
      break;
    case OpKind::kColSums:
      os << "colSums(" << children_[0]->ToString() << ")";
      break;
  }
  return os.str();
}

Result<ExprPtr> ExprNode::Input(std::shared_ptr<const la::DenseMatrix> m,
                                std::string name) {
  if (!m) return Status::InvalidArgument("Input: null matrix");
  return InputOperand(Operand(std::move(m)), std::move(name));
}

Result<ExprPtr> ExprNode::InputOperand(Operand operand, std::string name) {
  if (!operand.bound()) {
    return Status::InvalidArgument("InputOperand: unbound operand");
  }
  auto node = NewNode();
  node->kind_ = OpKind::kInput;
  node->rows_ = operand.rows();
  node->cols_ = operand.cols();
  node->operand_ = std::move(operand);
  node->name_ = std::move(name);
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::Placeholder(size_t rows, size_t cols, std::string name) {
  auto node = NewNode();
  node->kind_ = OpKind::kInput;
  node->rows_ = rows;
  node->cols_ = cols;
  node->name_ = std::move(name);
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::MatMul(ExprPtr a, ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument("MatMul: null operand");
  if (!DimsCompatible(a->cols(), b->rows())) {
    return Status::InvalidArgument("MatMul: inner dimension mismatch (" +
                                   std::to_string(a->cols()) + " vs " +
                                   std::to_string(b->rows()) + ")");
  }
  auto node = NewNode();
  node->kind_ = OpKind::kMatMul;
  node->rows_ = a->rows();
  node->cols_ = b->cols();
  node->children_ = {std::move(a), std::move(b)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::Transpose(ExprPtr a) {
  if (!a) return Status::InvalidArgument("Transpose: null operand");
  auto node = NewNode();
  node->kind_ = OpKind::kTranspose;
  node->rows_ = a->cols();
  node->cols_ = a->rows();
  node->children_ = {std::move(a)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::Add(ExprPtr a, ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument("Add: null operand");
  if (!DimsCompatible(a->rows(), b->rows()) ||
      !DimsCompatible(a->cols(), b->cols())) {
    return Status::InvalidArgument("Add: shape mismatch");
  }
  auto node = NewNode();
  node->kind_ = OpKind::kAdd;
  node->rows_ = MergeDims(a->rows(), b->rows());
  node->cols_ = MergeDims(a->cols(), b->cols());
  node->children_ = {std::move(a), std::move(b)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::Subtract(ExprPtr a, ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument("Subtract: null operand");
  if (!DimsCompatible(a->rows(), b->rows()) ||
      !DimsCompatible(a->cols(), b->cols())) {
    return Status::InvalidArgument("Subtract: shape mismatch");
  }
  auto node = NewNode();
  node->kind_ = OpKind::kSubtract;
  node->rows_ = MergeDims(a->rows(), b->rows());
  node->cols_ = MergeDims(a->cols(), b->cols());
  node->children_ = {std::move(a), std::move(b)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::ElemMul(ExprPtr a, ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument("ElemMul: null operand");
  if (!DimsCompatible(a->rows(), b->rows()) ||
      !DimsCompatible(a->cols(), b->cols())) {
    return Status::InvalidArgument("ElemMul: shape mismatch");
  }
  auto node = NewNode();
  node->kind_ = OpKind::kElemMul;
  node->rows_ = MergeDims(a->rows(), b->rows());
  node->cols_ = MergeDims(a->cols(), b->cols());
  node->children_ = {std::move(a), std::move(b)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::ScalarMul(double alpha, ExprPtr a) {
  if (!a) return Status::InvalidArgument("ScalarMul: null operand");
  auto node = NewNode();
  node->kind_ = OpKind::kScalarMul;
  node->rows_ = a->rows();
  node->cols_ = a->cols();
  node->scalar_ = alpha;
  node->children_ = {std::move(a)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::Sum(ExprPtr a) {
  if (!a) return Status::InvalidArgument("Sum: null operand");
  auto node = NewNode();
  node->kind_ = OpKind::kSum;
  node->rows_ = 1;
  node->cols_ = 1;
  node->children_ = {std::move(a)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::RowSums(ExprPtr a) {
  if (!a) return Status::InvalidArgument("RowSums: null operand");
  auto node = NewNode();
  node->kind_ = OpKind::kRowSums;
  node->rows_ = a->rows();
  node->cols_ = 1;
  node->children_ = {std::move(a)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::ColSums(ExprPtr a) {
  if (!a) return Status::InvalidArgument("ColSums: null operand");
  auto node = NewNode();
  node->kind_ = OpKind::kColSums;
  node->rows_ = 1;
  node->cols_ = a->cols();
  node->children_ = {std::move(a)};
  return ExprPtr(node);
}

Result<ExprPtr> ExprNode::MakeUnchecked(OpKind kind, std::vector<ExprPtr> children,
                                        double scalar) {
  if (kind == OpKind::kInput) {
    return Status::InvalidArgument("MakeUnchecked: use Input/Placeholder for leaves");
  }
  const size_t arity =
      (kind == OpKind::kMatMul || kind == OpKind::kAdd ||
       kind == OpKind::kSubtract || kind == OpKind::kElemMul)
          ? 2
          : 1;
  if (children.size() != arity) {
    return Status::InvalidArgument("MakeUnchecked: wrong arity for " +
                                   std::string(OpKindName(kind)));
  }
  for (const auto& c : children) {
    if (!c) return Status::InvalidArgument("MakeUnchecked: null operand");
  }
  auto node = NewNode();
  node->kind_ = kind;
  node->scalar_ = scalar;
  const ExprPtr& a = children[0];
  switch (kind) {
    case OpKind::kMatMul:
      node->rows_ = a->rows();
      node->cols_ = children[1]->cols();
      break;
    case OpKind::kTranspose:
      node->rows_ = a->cols();
      node->cols_ = a->rows();
      break;
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul:
      node->rows_ = MergeDims(a->rows(), children[1]->rows());
      node->cols_ = MergeDims(a->cols(), children[1]->cols());
      break;
    case OpKind::kScalarMul:
      node->rows_ = a->rows();
      node->cols_ = a->cols();
      break;
    case OpKind::kSum:
      node->rows_ = 1;
      node->cols_ = 1;
      break;
    case OpKind::kRowSums:
      node->rows_ = a->rows();
      node->cols_ = 1;
      break;
    case OpKind::kColSums:
      node->rows_ = 1;
      node->cols_ = a->cols();
      break;
    case OpKind::kInput:
      break;  // Rejected above.
  }
  node->children_ = std::move(children);
  return ExprPtr(node);
}

namespace {
// Product of two dims as flops, zero when either is unknown.
double DimArea(size_t rows, size_t cols) {
  if (!Known(rows) || !Known(cols)) return 0.0;
  return static_cast<double>(rows) * static_cast<double>(cols);
}
}  // namespace

double EstimateFlops(const ExprPtr& e) {
  double acc = 0;
  switch (e->kind()) {
    case OpKind::kInput:
      return 0;
    case OpKind::kMatMul:
      acc = Known(e->children()[1]->cols())
                ? 2.0 * DimArea(e->children()[0]->rows(),
                                e->children()[0]->cols()) *
                      static_cast<double>(e->children()[1]->cols())
                : 0.0;
      break;
    case OpKind::kTranspose:
    case OpKind::kScalarMul:
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul:
      acc = DimArea(e->rows(), e->cols());
      break;
    case OpKind::kSum:
    case OpKind::kRowSums:
    case OpKind::kColSums:
      acc = DimArea(e->children()[0]->rows(), e->children()[0]->cols());
      break;
  }
  for (const auto& c : e->children()) acc += EstimateFlops(c);
  return acc;
}

}  // namespace dmml::laopt
