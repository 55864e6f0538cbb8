#include "laopt/expr.h"

#include <bit>
#include <cstdint>
#include <sstream>
#include <tuple>
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
    case OpKind::kFused: return "fused";
  }
  return "unknown";
}

bool IsElementwise(OpKind kind) {
  return kind == OpKind::kAdd || kind == OpKind::kSubtract ||
         kind == OpKind::kElemMul || kind == OpKind::kScalarMul;
}

la::CellOp CellOpOf(const ExprNode& node) {
  switch (node.kind()) {
    case OpKind::kAdd: return {la::CellOp::kAdd};
    case OpKind::kSubtract: return {la::CellOp::kSub};
    case OpKind::kElemMul: return {la::CellOp::kMul};
    default: return {la::CellOp::kScale, 0, node.scalar()};
  }
}

size_t ExprNode::NumFusedOps() const {
  size_t ops = 0;
  for (const la::CellOp& op : program_) ops += op.code != la::CellOp::kLoad;
  return ops;
}

std::string ExprNode::Label() const {
  if (kind_ != OpKind::kFused) return OpKindName(kind_);
  return "fused[" + std::to_string(NumFusedOps()) + " ops]";
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
    case OpKind::kFused:
      os << Label() << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        os << (i ? ", " : "") << children_[i]->ToString();
      }
      os << ")";
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

// The checked factories validate what their kind needs, then build through
// MakeUnchecked, the one place a node's shape is derived from its children.
namespace {
Result<ExprPtr> CheckedElementwise(OpKind kind, const char* what, ExprPtr a,
                                   ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument(std::string(what) + ": null operand");
  if (!DimsCompatible(a->rows(), b->rows()) ||
      !DimsCompatible(a->cols(), b->cols())) {
    return Status::InvalidArgument(std::string(what) + ": shape mismatch");
  }
  return ExprNode::MakeUnchecked(kind, {std::move(a), std::move(b)});
}

Result<ExprPtr> CheckedUnary(OpKind kind, const char* what, ExprPtr a,
                             double scalar = 1.0) {
  if (!a) return Status::InvalidArgument(std::string(what) + ": null operand");
  return ExprNode::MakeUnchecked(kind, {std::move(a)}, scalar);
}
}  // namespace

Result<ExprPtr> ExprNode::MatMul(ExprPtr a, ExprPtr b) {
  if (!a || !b) return Status::InvalidArgument("MatMul: null operand");
  if (!DimsCompatible(a->cols(), b->rows())) {
    return Status::InvalidArgument("MatMul: inner dimension mismatch (" +
                                   std::to_string(a->cols()) + " vs " +
                                   std::to_string(b->rows()) + ")");
  }
  return MakeUnchecked(OpKind::kMatMul, {std::move(a), std::move(b)});
}

Result<ExprPtr> ExprNode::Transpose(ExprPtr a) {
  return CheckedUnary(OpKind::kTranspose, "Transpose", std::move(a));
}

Result<ExprPtr> ExprNode::Add(ExprPtr a, ExprPtr b) {
  return CheckedElementwise(OpKind::kAdd, "Add", std::move(a), std::move(b));
}

Result<ExprPtr> ExprNode::Subtract(ExprPtr a, ExprPtr b) {
  return CheckedElementwise(OpKind::kSubtract, "Subtract", std::move(a),
                            std::move(b));
}

Result<ExprPtr> ExprNode::ElemMul(ExprPtr a, ExprPtr b) {
  return CheckedElementwise(OpKind::kElemMul, "ElemMul", std::move(a),
                            std::move(b));
}

Result<ExprPtr> ExprNode::ScalarMul(double alpha, ExprPtr a) {
  return CheckedUnary(OpKind::kScalarMul, "ScalarMul", std::move(a), alpha);
}

Result<ExprPtr> ExprNode::Sum(ExprPtr a) {
  return CheckedUnary(OpKind::kSum, "Sum", std::move(a));
}

Result<ExprPtr> ExprNode::RowSums(ExprPtr a) {
  return CheckedUnary(OpKind::kRowSums, "RowSums", std::move(a));
}

Result<ExprPtr> ExprNode::ColSums(ExprPtr a) {
  return CheckedUnary(OpKind::kColSums, "ColSums", std::move(a));
}

std::pair<size_t, size_t> DerivedShape(OpKind kind,
                                       const std::vector<ExprPtr>& children) {
  const ExprNode& a = *children[0];
  switch (kind) {
    case OpKind::kMatMul:
      return {a.rows(), children[1]->cols()};
    case OpKind::kTranspose:
      return {a.cols(), a.rows()};
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul:
      return {MergeDims(a.rows(), children[1]->rows()),
              MergeDims(a.cols(), children[1]->cols())};
    case OpKind::kSum:
      return {1, 1};
    case OpKind::kRowSums:
      return {a.rows(), 1};
    case OpKind::kColSums:
      return {1, a.cols()};
    default:
      return {a.rows(), a.cols()};  // Scalar multiply and fused regions.
  }
}

Status ValidateFused(const std::vector<ExprPtr>& children,
                     const la::CellProgram& program, size_t rows, size_t cols) {
  if (!Known(rows) || !Known(cols)) {
    return Status::InvalidArgument("fused node has unknown shape " +
                                   DimStr(rows) + "x" + DimStr(cols));
  }
  std::vector<bool> loaded(children.size(), false);
  size_t depth = 0;
  for (size_t i = 0; i < program.size(); ++i) {
    const la::CellOp& op = program[i];
    if (op.code > la::CellOp::kScale) {
      return Status::InvalidArgument("fused program has an unknown instruction at " +
                                     std::to_string(i));
    }
    const size_t pops = op.code == la::CellOp::kLoad    ? 0
                        : op.code == la::CellOp::kScale ? 1
                                                        : 2;
    if (depth < pops) {
      return Status::InvalidArgument("fused program underflows its stack at "
                                     "instruction " + std::to_string(i));
    }
    if (op.code == la::CellOp::kLoad) {
      if (op.input >= children.size()) {
        return Status::InvalidArgument(
            "fused program loads input " + std::to_string(op.input) +
            " of " + std::to_string(children.size()) + " children");
      }
      loaded[op.input] = true;
    }
    depth = depth - pops + 1;
  }
  if (depth != 1) {
    return Status::InvalidArgument("fused program ends with " +
                                   std::to_string(depth) +
                                   " values on its stack, not 1");
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]) return Status::InvalidArgument("fused node has a null child");
    if (!loaded[i]) {
      return Status::InvalidArgument("fused program never loads child " +
                                     std::to_string(i));
    }
    if (children[i]->rows() != rows || children[i]->cols() != cols) {
      return Status::InvalidArgument(
          "fused child " + std::to_string(i) + " is " +
          DimStr(children[i]->rows()) + "x" + DimStr(children[i]->cols()) +
          ", the node is " + DimStr(rows) + "x" + DimStr(cols));
    }
  }
  return Status::OK();
}

Result<ExprPtr> ExprNode::Fused(std::vector<ExprPtr> children,
                                la::CellProgram program) {
  if (children.empty() || !children[0]) {
    return Status::InvalidArgument("Fused: no input");
  }
  const size_t rows = children[0]->rows();
  const size_t cols = children[0]->cols();
  DMML_RETURN_IF_ERROR(ValidateFused(children, program, rows, cols));
  auto node = NewNode();
  node->kind_ = OpKind::kFused;
  node->rows_ = rows;
  node->cols_ = cols;
  node->children_ = std::move(children);
  node->program_ = std::move(program);
  return ExprPtr(node);
}

Result<ExprPtr> WithChildren(const ExprPtr& node, std::vector<ExprPtr> children) {
  if (children == node->children()) return node;
  switch (node->kind()) {
    case OpKind::kInput: return node;
    case OpKind::kMatMul: return ExprNode::MatMul(children[0], children[1]);
    case OpKind::kTranspose: return ExprNode::Transpose(children[0]);
    case OpKind::kAdd: return ExprNode::Add(children[0], children[1]);
    case OpKind::kSubtract: return ExprNode::Subtract(children[0], children[1]);
    case OpKind::kElemMul: return ExprNode::ElemMul(children[0], children[1]);
    case OpKind::kScalarMul: return ExprNode::ScalarMul(node->scalar(), children[0]);
    case OpKind::kSum: return ExprNode::Sum(children[0]);
    case OpKind::kRowSums: return ExprNode::RowSums(children[0]);
    case OpKind::kColSums: return ExprNode::ColSums(children[0]);
    case OpKind::kFused: return ExprNode::Fused(std::move(children), node->program());
  }
  return Status::Internal("WithChildren: unknown op kind");
}

std::string StructuralKey(const ExprNode& node,
                          const std::vector<size_t>& child_ids) {
  // Doubles are keyed by their bits: two scalars merge only when equal.
  const auto bits = [](double v) {
    return std::to_string(std::bit_cast<uint64_t>(v));
  };
  std::string key = OpKindName(node.kind());
  switch (node.kind()) {
    case OpKind::kInput: {
      // Payload identity (dense, sparse, compressed or factorized alike);
      // placeholders have no payload, so each one is keyed by its own node
      // address and never merges with another.
      const void* payload = node.operand().bound()
                                ? node.operand().payload()
                                : static_cast<const void*>(&node);
      key += "@" + std::to_string(reinterpret_cast<uintptr_t>(payload));
      // Distinct row windows over one payload are distinct values — never
      // merge a fold slice with the full matrix (or another fold).
      if (node.operand().windowed()) {
        key += "[" + std::to_string(node.operand().window_begin()) + "," +
               std::to_string(node.operand().window_end()) + ")";
      }
      break;
    }
    case OpKind::kScalarMul:
      key += "#" + bits(node.scalar());
      break;
    case OpKind::kFused:
      for (const la::CellOp& op : node.program()) {
        key += "#" + std::to_string(op.code);
        if (op.code == la::CellOp::kLoad) key += "." + std::to_string(op.input);
        if (op.code == la::CellOp::kScale) key += "." + bits(op.alpha);
      }
      break;
    default:
      break;
  }
  for (size_t id : child_ids) key += ":" + std::to_string(id);
  return key;
}

Result<ExprPtr> ExprNode::MakeUnchecked(OpKind kind, std::vector<ExprPtr> children,
                                        double scalar) {
  if (kind == OpKind::kInput) {
    return Status::InvalidArgument("MakeUnchecked: use Input/Placeholder for leaves");
  }
  if (kind == OpKind::kFused) {
    return Status::InvalidArgument("MakeUnchecked: use Fused for fused regions");
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
  std::tie(node->rows_, node->cols_) = DerivedShape(kind, children);
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
    case OpKind::kFused:
      acc = static_cast<double>(e->NumFusedOps()) * DimArea(e->rows(), e->cols());
      break;
  }
  for (const auto& c : e->children()) acc += EstimateFlops(c);
  return acc;
}

}  // namespace dmml::laopt
