/// \file expr.h
/// \brief Lazy linear-algebra expression DAG (SystemML-style logical plans).
///
/// Expressions are built with overloaded combinators, carry inferred shapes,
/// and are evaluated by the executor in laopt/executor.h — optionally after
/// the rewrites in laopt/optimizer.h (transpose elimination, scalar folding,
/// optimal matrix-chain ordering, elementwise fusion into kFused nodes).
#ifndef DMML_LAOPT_EXPR_H_
#define DMML_LAOPT_EXPR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "la/dense_matrix.h"
#include "la/kernels.h"
#include "laopt/operand.h"
#include "util/result.h"

namespace dmml::laopt {

/// Operator kind of an expression node.
enum class OpKind {
  kInput,      ///< Leaf matrix.
  kMatMul,     ///< A · B.
  kTranspose,  ///< Aᵀ.
  kAdd,        ///< A + B (same shape).
  kSubtract,   ///< A − B.
  kElemMul,    ///< A ⊙ B.
  kScalarMul,  ///< α · A.
  kSum,        ///< Full sum as a 1x1 matrix.
  kRowSums,    ///< Per-row sums (n x 1).
  kColSums,    ///< Per-column sums (1 x n).
  kFused,      ///< Fused elementwise region: a cell program over the children.
};

/// \brief Stable identifier for an op kind ("matmul", "transpose", ...),
/// usable as a metric-name suffix.
const char* OpKindName(OpKind kind);

/// \brief True for the elementwise kinds a fused region absorbs: add,
/// subtract, elem_mul and scalar_mul.
bool IsElementwise(OpKind kind);

class ExprNode;
using ExprPtr = std::shared_ptr<const ExprNode>;

/// \brief Immutable expression node. Shapes are inferred at construction.
///
/// Dimensions may be *unknown* (kUnknownDim) when the node is — or derives
/// from — a Placeholder leaf whose data arrives after planning. Checked
/// factories validate whatever is known at construction; the static analyzer
/// in laopt/analysis.h re-derives and validates the full DAG at plan time,
/// which is the only check deferred-constructed nodes (MakeUnchecked) get.
class ExprNode {
 public:
  /// Sentinel for a dimension that is not known until execution time.
  static constexpr size_t kUnknownDim = static_cast<size_t>(-1);

  OpKind kind() const { return kind_; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double scalar() const { return scalar_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// \brief kFused only: the postfix cell program over children(); empty
  /// for every other kind.
  const la::CellProgram& program() const { return program_; }

  /// \brief Elementwise ops a kFused node computes (its program's non-load
  /// instructions); 0 for every other kind.
  size_t NumFusedOps() const;

  /// \brief OpKindName, or "fused[n ops]" for a fused region — the label
  /// EXPLAIN and the profiler print.
  std::string Label() const;

  /// \brief True iff both dimensions are known at plan time.
  bool HasKnownShape() const {
    return rows_ != kUnknownDim && cols_ != kUnknownDim;
  }

  /// \brief Leaf payload in any representation (kInput only; unbound for
  /// Placeholder leaves). Non-leaf nodes carry an unbound operand.
  const Operand& operand() const { return operand_; }

  /// \brief Dense leaf payload (kInput only; null for Placeholder leaves and
  /// for leaves bound to a sparse or compressed operand — use operand() for
  /// representation-polymorphic access).
  const std::shared_ptr<const la::DenseMatrix>& matrix() const {
    return operand_.dense_ptr();
  }

  /// \brief Total node count of the sub-DAG (duplicates counted once).
  size_t NumNodes() const;

  /// \brief Rendering like "((t(X) * X) * v)".
  std::string ToString() const;

  // Factories (validated).
  static Result<ExprPtr> Input(std::shared_ptr<const la::DenseMatrix> m,
                               std::string name = "");

  /// \brief Leaf bound to an operand in any representation (dense, CSR, or
  /// CLA-compressed). The executor dispatches to representation-specific
  /// kernels; the plan itself is representation-agnostic.
  static Result<ExprPtr> InputOperand(Operand operand, std::string name = "");

  /// \brief Data-less leaf with a declared (possibly kUnknownDim) shape —
  /// plans can be compiled and costed before the matrix exists. Executing a
  /// plan containing an unbound placeholder is an error.
  static Result<ExprPtr> Placeholder(size_t rows, size_t cols,
                                     std::string name = "");

  /// \brief Constructs a node WITHOUT shape validation; output dimensions are
  /// derived best-effort from the children. Used by front ends that defer
  /// shape checking to the plan-time analyzer (laopt/analysis.h), which then
  /// reports mismatches with full operand shapes instead of failing inside a
  /// combinator. Not valid for kInput or kFused; `scalar` only read for
  /// kScalarMul.
  static Result<ExprPtr> MakeUnchecked(OpKind kind, std::vector<ExprPtr> children,
                                       double scalar = 1.0);
  static Result<ExprPtr> MatMul(ExprPtr a, ExprPtr b);
  static Result<ExprPtr> Transpose(ExprPtr a);
  static Result<ExprPtr> Add(ExprPtr a, ExprPtr b);
  static Result<ExprPtr> Subtract(ExprPtr a, ExprPtr b);
  static Result<ExprPtr> ElemMul(ExprPtr a, ExprPtr b);
  static Result<ExprPtr> ScalarMul(double alpha, ExprPtr a);
  static Result<ExprPtr> Sum(ExprPtr a);
  static Result<ExprPtr> RowSums(ExprPtr a);
  static Result<ExprPtr> ColSums(ExprPtr a);

  /// \brief A fused elementwise region: `program` runs cell by cell over
  /// `children`, which share the result's shape and may repeat. Fails unless
  /// ValidateFused accepts the pair.
  static Result<ExprPtr> Fused(std::vector<ExprPtr> children,
                               la::CellProgram program);

  const std::string& name() const { return name_; }

 protected:
  ExprNode() = default;

 private:
  // Test-only corruption hook: the plan-verifier tests (laopt_verify_test)
  // need to manufacture ill-formed DAGs — cycles, wrong arity, stale cached
  // shapes — that the public factories correctly refuse to build.
  friend struct ExprNodeTestAccess;

  OpKind kind_ = OpKind::kInput;
  size_t rows_ = 0, cols_ = 0;
  double scalar_ = 1.0;
  std::string name_;
  Operand operand_;
  std::vector<ExprPtr> children_;
  la::CellProgram program_;
};

/// \brief The (rows, cols) a `kind` node derives from its `children`: the
/// one shape rule, which MakeUnchecked (and so every checked factory) builds
/// with and the verifier re-derives against. The caller has checked the
/// arity and that no child is null; not for leaves.
std::pair<size_t, size_t> DerivedShape(OpKind kind,
                                       const std::vector<ExprPtr>& children);

/// \brief The well-formedness check of a kFused node, shared by
/// ExprNode::Fused and the plan verifier: every load names a child, no
/// instruction finds too few values on the stack, the program ends with one
/// value, every child is loaded, and every child is rows x cols (known).
Status ValidateFused(const std::vector<ExprPtr>& children,
                     const la::CellProgram& program, size_t rows, size_t cols);

/// \brief The cell instruction an elementwise node computes (kScale carries
/// its scalar). Precondition: IsElementwise(node.kind()).
la::CellOp CellOpOf(const ExprNode& node);

/// \brief `node` over `children` through its kind's checked factory, or
/// `node` itself when the children are unchanged. Leaves come back as is.
Result<ExprPtr> WithChildren(const ExprPtr& node, std::vector<ExprPtr> children);

/// \brief Structural identity of `node` given canonical ids of its children:
/// the kind, the exact scalar of a scalar_mul, a fused node's program, and a
/// leaf's payload and row window (a placeholder is keyed by its own address).
/// Equal keys compute equal values. CSE merges by it and the verifier's
/// value-class check counts by it.
std::string StructuralKey(const ExprNode& node,
                          const std::vector<size_t>& child_ids);

/// \brief Estimated floating-point operations to evaluate `e` naively
/// (no common-subexpression sharing; multiplications dominate). A fused node
/// counts its ops times its cells, as the unfused ops would. Nodes with
/// unknown dimensions contribute zero.
double EstimateFlops(const ExprPtr& e);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_EXPR_H_
