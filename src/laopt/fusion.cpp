#include "laopt/fusion.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "la/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmml::laopt {

using la::DenseMatrix;

namespace {

bool IsElementwise(OpKind kind) {
  return kind == OpKind::kAdd || kind == OpKind::kSubtract ||
         kind == OpKind::kElemMul || kind == OpKind::kScalarMul;
}

size_t CountElementwiseOps(const ExprPtr& node) {
  if (!IsElementwise(node->kind())) return 0;
  size_t count = 1;
  for (const auto& c : node->children()) count += CountElementwiseOps(c);
  return count;
}

// Number of distinct non-elementwise boundary nodes feeding the region —
// each is materialized for the whole fused loop, so each contributes one
// region-shaped matrix to the working set.
void CountRegionInputs(const ExprPtr& node,
                       std::unordered_set<const ExprNode*>* inputs) {
  if (!IsElementwise(node->kind())) {
    inputs->insert(node.get());
    return;
  }
  for (const auto& c : node->children()) CountRegionInputs(c, inputs);
}

// A compiled cell program in postfix form, executed on a small stack.
struct Instruction {
  enum Kind { kLoad, kAdd, kSub, kMul, kScale } kind;
  size_t input = 0;    // kLoad: index into the inputs array.
  double alpha = 1.0;  // kScale.
};

// Compiles the elementwise region into postfix instructions; `inputs`
// collects the region's non-elementwise boundary nodes (deduplicated).
void CompileRegion(const ExprPtr& node, std::vector<Instruction>* program,
                   std::vector<ExprPtr>* inputs,
                   std::unordered_map<const ExprNode*, size_t>* input_index) {
  if (!IsElementwise(node->kind())) {
    auto [it, inserted] = input_index->emplace(node.get(), inputs->size());
    if (inserted) inputs->push_back(node);
    program->push_back({Instruction::kLoad, it->second, 0});
    return;
  }
  for (const auto& c : node->children()) {
    CompileRegion(c, program, inputs, input_index);
  }
  switch (node->kind()) {
    case OpKind::kAdd:
      program->push_back({Instruction::kAdd, 0, 0});
      break;
    case OpKind::kSubtract:
      program->push_back({Instruction::kSub, 0, 0});
      break;
    case OpKind::kElemMul:
      program->push_back({Instruction::kMul, 0, 0});
      break;
    case OpKind::kScalarMul:
      program->push_back({Instruction::kScale, 0, node->scalar()});
      break;
    default:
      break;  // Unreachable: guarded by IsElementwise.
  }
}

}  // namespace

bool IsFusibleRegion(const ExprPtr& node) {
  return node && CountElementwiseOps(node) >= 2;
}

Result<DenseMatrix> ExecuteFused(
    const ExprPtr& node,
    const std::function<Result<DenseMatrix>(const ExprPtr&)>& eval_child) {
  if (!IsFusibleRegion(node)) {
    return Status::InvalidArgument("ExecuteFused: not a fusible region");
  }
  std::vector<Instruction> program;
  std::vector<ExprPtr> input_nodes;
  std::unordered_map<const ExprNode*, size_t> input_index;
  CompileRegion(node, &program, &input_nodes, &input_index);

  std::vector<DenseMatrix> inputs;
  inputs.reserve(input_nodes.size());
  for (const auto& in : input_nodes) {
    DMML_ASSIGN_OR_RETURN(DenseMatrix m, eval_child(in));
    if (m.rows() != node->rows() || m.cols() != node->cols()) {
      return Status::Internal("fused region input shape mismatch");
    }
    inputs.push_back(std::move(m));
  }

  DenseMatrix out(node->rows(), node->cols());
  const size_t cells = out.size();
  std::vector<double> stack(program.size());
  for (size_t i = 0; i < cells; ++i) {
    size_t top = 0;
    for (const Instruction& ins : program) {
      switch (ins.kind) {
        case Instruction::kLoad:
          stack[top++] = inputs[ins.input].data()[i];
          break;
        case Instruction::kAdd:
          --top;
          stack[top - 1] += stack[top];
          break;
        case Instruction::kSub:
          --top;
          stack[top - 1] -= stack[top];
          break;
        case Instruction::kMul:
          --top;
          stack[top - 1] *= stack[top];
          break;
        case Instruction::kScale:
          stack[top - 1] *= ins.alpha;
          break;
      }
    }
    out.data()[i] = stack[0];
  }
  return out;
}

namespace {

class FusingEvaluator {
 public:
  FusingEvaluator(const FusionOptions& options, FusionStats* stats,
                  DagAnalysis* analysis)
      : options_(options), stats_(stats), analysis_(analysis) {}

  Result<DenseMatrix> Eval(const ExprPtr& node) {
    auto it = memo_.find(node.get());
    if (it != memo_.end()) return it->second;
    DMML_ASSIGN_OR_RETURN(DenseMatrix result, EvalUncached(node));
    memo_.emplace(node.get(), result);
    return result;
  }

 private:
  // Memory guard: estimated bytes live while the fused loop runs — every
  // distinct boundary input plus the output, each region-shaped. True (fuse)
  // when no budget is set or the estimate fits.
  Result<bool> RegionFitsBudget(const ExprPtr& node) {
    if (options_.memory_budget_bytes == 0) return true;
    DMML_ASSIGN_OR_RETURN(NodeAnalysis info, analysis_->Ensure(node));
    if (!info.bytes_known) return true;  // Nothing to reason with.
    std::unordered_set<const ExprNode*> inputs;
    CountRegionInputs(node, &inputs);
    bool saturated = info.bytes_saturated;
    uint64_t working_set = info.dense_bytes;
    for (size_t i = 0; i < inputs.size() && !saturated; ++i) {
      if (__builtin_add_overflow(working_set, info.dense_bytes, &working_set)) {
        saturated = true;
      }
    }
    if (saturated) working_set = UINT64_MAX;
    return working_set <= options_.memory_budget_bytes;
  }

  Result<DenseMatrix> EvalUncached(const ExprPtr& node) {
    if (IsFusibleRegion(node)) {
      DMML_ASSIGN_OR_RETURN(bool fuse, RegionFitsBudget(node));
      if (!fuse) {
        if (stats_) stats_->regions_declined++;
        DMML_COUNTER_INC("laopt.fusion.budget_declines");
        return EvalOperator(node);
      }
      if (stats_) {
        stats_->regions_fused++;
        stats_->ops_fused += CountElementwiseOps(node);
      }
      DMML_COUNTER_INC("laopt.fusion.regions_fused");
      DMML_COUNTER_ADD("laopt.fusion.ops_fused", CountElementwiseOps(node));
      return ExecuteFused(node, [this](const ExprPtr& c) { return Eval(c); });
    }
    return EvalOperator(node);
  }

  Result<DenseMatrix> EvalOperator(const ExprPtr& node) {
    if (node->kind() == OpKind::kInput) {
      const Operand& op = node->operand();
      if (!op.bound()) {
        return Status::FailedPrecondition(
            "cannot execute unbound placeholder '" +
            (node->name().empty() ? std::string("_") : node->name()) + "'");
      }
      if (op.repr() == Repr::kDense) return *op.dense();
      // The fusion interpreter is a dense-value engine; non-dense leaves are
      // densified on entry (the buffered executor is the representation-
      // native path).
      DMML_COUNTER_INC("laopt.repr.densify_fallbacks");
      return op.ToDense(nullptr);
    }
    std::vector<DenseMatrix> kids;
    kids.reserve(node->children().size());
    for (const auto& c : node->children()) {
      DMML_ASSIGN_OR_RETURN(DenseMatrix k, Eval(c));
      kids.push_back(std::move(k));
    }
    switch (node->kind()) {
      case OpKind::kMatMul:
        return la::Multiply(kids[0], kids[1]);
      case OpKind::kTranspose:
        return la::Transpose(kids[0]);
      case OpKind::kAdd:
        return la::Add(kids[0], kids[1]);
      case OpKind::kSubtract:
        return la::Subtract(kids[0], kids[1]);
      case OpKind::kElemMul:
        return la::ElementwiseMultiply(kids[0], kids[1]);
      case OpKind::kScalarMul:
        return la::Scale(kids[0], node->scalar());
      case OpKind::kSum: {
        DenseMatrix out(1, 1);
        out.At(0, 0) = la::Sum(kids[0]);
        return out;
      }
      case OpKind::kRowSums:
        return la::RowSums(kids[0]);
      case OpKind::kColSums:
        return la::ColumnSums(kids[0]);
      case OpKind::kInput:
        break;
    }
    return Status::Internal("unknown op kind in fusing executor");
  }

  const FusionOptions options_;
  FusionStats* stats_;
  DagAnalysis* analysis_;
  std::unordered_map<const ExprNode*, DenseMatrix> memo_;
};

}  // namespace

Result<DenseMatrix> ExecuteWithFusion(const ExprPtr& root,
                                      const FusionOptions& options,
                                      FusionStats* stats, DagAnalysis* analysis) {
  if (!root) return Status::InvalidArgument("ExecuteWithFusion: null expression");
  DMML_TRACE_SPAN("laopt.execute_fused");
  DagAnalysis local_analysis;
  FusingEvaluator evaluator(options, stats,
                            analysis ? analysis : &local_analysis);
  return evaluator.Eval(root);
}

Result<DenseMatrix> ExecuteWithFusion(const ExprPtr& root, FusionStats* stats) {
  return ExecuteWithFusion(root, FusionOptions{}, stats);
}

}  // namespace dmml::laopt
