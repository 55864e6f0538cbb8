#include "laopt/optimizer.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmml::laopt {

namespace {

// Flattens a left/right-nested MatMul tree into its ordered factor list.
void FlattenChain(const ExprPtr& node, std::vector<ExprPtr>* factors) {
  if (node->kind() == OpKind::kMatMul) {
    FlattenChain(node->children()[0], factors);
    FlattenChain(node->children()[1], factors);
  } else {
    factors->push_back(node);
  }
}

// Estimated flops of the gemm (rows x inner, sparsity s_left) · (inner x
// cols): sparse-aware kernels skip the left operand's zero cells, so the
// dense 2·rows·inner·cols is discounted by s_left.
double GemmCost(size_t rows, size_t inner, size_t cols, double s_left) {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(inner) *
         static_cast<double>(cols) * s_left;
}

// O(m^3) matrix-chain DP over analyzer factor estimates (shape + sparsity);
// intermediate sparsities are propagated with the analyzer's matmul formula
// so downstream gemms of a sparse partial product get cheaper. Returns split
// points; splits[i][j] is the optimal split index for factors [i, j].
double ChainDp(const std::vector<ChainFactor>& factors,
               std::vector<std::vector<size_t>>* splits) {
  const size_t m = factors.size();
  std::vector<std::vector<double>> cost(m, std::vector<double>(m, 0.0));
  std::vector<std::vector<double>> sparsity(m, std::vector<double>(m, 1.0));
  splits->assign(m, std::vector<size_t>(m, 0));
  for (size_t i = 0; i < m; ++i) sparsity[i][i] = factors[i].sparsity;
  for (size_t len = 2; len <= m; ++len) {
    for (size_t i = 0; i + len <= m; ++i) {
      size_t j = i + len - 1;
      cost[i][j] = std::numeric_limits<double>::infinity();
      for (size_t k = i; k < j; ++k) {
        double c = cost[i][k] + cost[k + 1][j] +
                   GemmCost(factors[i].rows, factors[k].cols, factors[j].cols,
                            sparsity[i][k]);
        if (c < cost[i][j]) {
          cost[i][j] = c;
          (*splits)[i][j] = k;
          sparsity[i][j] = MatMulSparsityEstimate(
              sparsity[i][k], sparsity[k + 1][j], factors[k].cols);
        }
      }
    }
  }
  return m >= 2 ? cost[0][m - 1] : 0.0;
}

Result<ExprPtr> RebuildChain(const std::vector<ExprPtr>& factors,
                             const std::vector<std::vector<size_t>>& splits, size_t i,
                             size_t j) {
  if (i == j) return factors[i];
  size_t k = splits[i][j];
  DMML_ASSIGN_OR_RETURN(ExprPtr left, RebuildChain(factors, splits, i, k));
  DMML_ASSIGN_OR_RETURN(ExprPtr right, RebuildChain(factors, splits, k + 1, j));
  return ExprNode::MatMul(std::move(left), std::move(right));
}

// Sparsity a factor contributes to chain costing. A zero-skipping kernel
// only runs when the planner keeps the factor on a sparse representation;
// a dense kernel multiplies the zeros too, so a dense-chosen factor costs
// as fully dense regardless of its nnz.
double EffectiveChainSparsity(const NodeAnalysis& a) {
  return a.chosen_repr == Repr::kDense ? 1.0 : a.sparsity;
}

// Cost of the chain as currently parenthesized, under the same sparsity-
// aware model as ChainDp, used to decide whether reordering is profitable.
Result<double> CurrentChainCost(const ExprPtr& node, DagAnalysis* analysis) {
  if (node->kind() != OpKind::kMatMul) return 0.0;
  const ExprPtr& left = node->children()[0];
  const ExprPtr& right = node->children()[1];
  DMML_ASSIGN_OR_RETURN(double cl, CurrentChainCost(left, analysis));
  DMML_ASSIGN_OR_RETURN(double cr, CurrentChainCost(right, analysis));
  DMML_ASSIGN_OR_RETURN(NodeAnalysis la, analysis->Ensure(left));
  return cl + cr + GemmCost(left->rows(), left->cols(), right->cols(),
                            EffectiveChainSparsity(la));
}

class Rewriter {
 public:
  Rewriter(const OptimizerOptions& options, OptimizerReport* report,
           DagAnalysis* analysis)
      : options_(options), report_(report), analysis_(analysis) {}

  Result<ExprPtr> Rewrite(const ExprPtr& node) {
    auto it = memo_.find(node.get());
    if (it != memo_.end()) return it->second;
    DMML_ASSIGN_OR_RETURN(ExprPtr result, RewriteUncached(node));
    memo_.emplace(node.get(), result);
    return result;
  }

 private:
  Result<ExprPtr> RewriteUncached(const ExprPtr& node) {
    // Rewrite children first (bottom-up).
    std::vector<ExprPtr> kids;
    kids.reserve(node->children().size());
    for (const auto& c : node->children()) {
      DMML_ASSIGN_OR_RETURN(ExprPtr k, Rewrite(c));
      kids.push_back(std::move(k));
    }

    switch (node->kind()) {
      case OpKind::kInput:
      case OpKind::kAdd:
      case OpKind::kSubtract:
      case OpKind::kElemMul:
      case OpKind::kRowSums:
      case OpKind::kColSums:
      case OpKind::kFused:
        return WithChildren(node, std::move(kids));
      case OpKind::kTranspose: {
        // t(t(X)) -> X.
        if (options_.eliminate_transposes &&
            kids[0]->kind() == OpKind::kTranspose) {
          if (report_) report_->transposes_eliminated++;
          DMML_COUNTER_INC("laopt.rewrite.transposes_eliminated");
          return kids[0]->children()[0];
        }
        return ExprNode::Transpose(kids[0]);
      }
      case OpKind::kScalarMul: {
        // a*(b*X) -> (a*b)*X.
        if (options_.fold_scalars && kids[0]->kind() == OpKind::kScalarMul) {
          if (report_) report_->scalars_folded++;
          DMML_COUNTER_INC("laopt.rewrite.scalars_folded");
          return ExprNode::ScalarMul(node->scalar() * kids[0]->scalar(),
                                     kids[0]->children()[0]);
        }
        return ExprNode::ScalarMul(node->scalar(), kids[0]);
      }
      case OpKind::kMatMul: {
        // Hoist scalars out of products: (aX)·Y -> a(X·Y).
        double scalar = 1.0;
        if (options_.fold_scalars) {
          for (auto& k : kids) {
            while (k->kind() == OpKind::kScalarMul) {
              scalar *= k->scalar();
              k = k->children()[0];
              if (report_) report_->scalars_folded++;
              DMML_COUNTER_INC("laopt.rewrite.scalars_folded");
            }
          }
        }
        DMML_ASSIGN_OR_RETURN(ExprPtr mm, ExprNode::MatMul(kids[0], kids[1]));
        if (options_.reorder_chains) {
          std::vector<ExprPtr> factors;
          FlattenChain(mm, &factors);
          bool all_known = true;
          for (const auto& f : factors) all_known &= f->HasKnownShape();
          if (factors.size() > 2 && all_known) {
            // Cost candidate orders with the analyzer's shape and sparsity
            // estimates instead of raw node dimensions.
            std::vector<ChainFactor> chain;
            chain.reserve(factors.size());
            for (const auto& f : factors) {
              DMML_ASSIGN_OR_RETURN(NodeAnalysis fa, analysis_->Ensure(f));
              chain.push_back({f->rows(), f->cols(), EffectiveChainSparsity(fa)});
            }
            std::vector<std::vector<size_t>> splits;
            double optimal = ChainDp(chain, &splits);
            DMML_ASSIGN_OR_RETURN(double current, CurrentChainCost(mm, analysis_));
            if (report_) report_->chains_costed++;
            DMML_COUNTER_INC("laopt.optimize.chains_costed");
            if (optimal + 0.5 < current) {
              DMML_ASSIGN_OR_RETURN(
                  mm, RebuildChain(factors, splits, 0, factors.size() - 1));
              if (report_) report_->chains_reordered++;
              DMML_COUNTER_INC("laopt.rewrite.chains_reordered");
            }
          }
        }
        if (scalar != 1.0) return ExprNode::ScalarMul(scalar, mm);
        return mm;
      }
      case OpKind::kSum: {
        // sum(a * X) -> a * sum(X).
        if (options_.fold_scalars && kids[0]->kind() == OpKind::kScalarMul) {
          if (report_) report_->scalars_folded++;
          DMML_ASSIGN_OR_RETURN(ExprPtr inner,
                                ExprNode::Sum(kids[0]->children()[0]));
          return ExprNode::ScalarMul(kids[0]->scalar(), inner);
        }
        // sum(A %*% B) -> colSums(A) %*% rowSums(B): O(nmk) -> O(nk + km).
        if (options_.reorder_chains && kids[0]->kind() == OpKind::kMatMul) {
          if (report_) report_->chains_reordered++;
          DMML_COUNTER_INC("laopt.rewrite.chains_reordered");
          DMML_ASSIGN_OR_RETURN(ExprPtr cs,
                                ExprNode::ColSums(kids[0]->children()[0]));
          DMML_ASSIGN_OR_RETURN(ExprPtr rs,
                                ExprNode::RowSums(kids[0]->children()[1]));
          return ExprNode::MatMul(std::move(cs), std::move(rs));
        }
        return ExprNode::Sum(kids[0]);
      }
    }
    return Status::Internal("unknown op kind");
  }

  const OptimizerOptions& options_;
  OptimizerReport* report_;
  DagAnalysis* analysis_;
  std::unordered_map<const ExprNode*, ExprPtr> memo_;
};

// Elementwise fusion over a rewritten DAG. A region grows from its root
// down through elementwise children whose one consumer edge is the region
// node above them; everything else it reads is a boundary input and becomes
// a child of the kFused node (rewritten first, and deduplicated by
// identity). Regions of one op, or of unknown or mixed shape, stay as they
// are.
class Fuser {
 public:
  Fuser(const ExprPtr& root, OptimizerReport* report) : report_(report) {
    std::unordered_set<const ExprNode*> seen;
    std::vector<const ExprNode*> stack{root.get()};
    while (!stack.empty()) {
      const ExprNode* n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      for (const auto& c : n->children()) {
        ++uses_[c.get()];
        stack.push_back(c.get());
      }
    }
  }

  Result<ExprPtr> Fuse(const ExprPtr& node) {  // NOLINT(misc-no-recursion)
    auto it = memo_.find(node.get());
    if (it != memo_.end()) return it->second;
    DMML_ASSIGN_OR_RETURN(ExprPtr result, FuseUncached(node));
    memo_.emplace(node.get(), result);
    return result;
  }

 private:
  bool Absorbed(const ExprPtr& child) const {
    return IsElementwise(child->kind()) && uses_.at(child.get()) == 1;
  }

  Result<ExprPtr> FuseUncached(const ExprPtr& node) {  // NOLINT(misc-no-recursion)
    if (IsElementwise(node->kind()) && node->HasKnownShape() &&
        std::any_of(node->children().begin(), node->children().end(),
                    [&](const ExprPtr& c) { return Absorbed(c); })) {
      Region region;
      DMML_RETURN_IF_ERROR(Emit(node, &region));
      const bool shapes_agree = std::all_of(
          region.inputs.begin(), region.inputs.end(), [&](const ExprPtr& in) {
            return in->rows() == node->rows() && in->cols() == node->cols();
          });
      if (shapes_agree) {
        DMML_ASSIGN_OR_RETURN(ExprPtr fused,
                              ExprNode::Fused(std::move(region.inputs),
                                              std::move(region.program)));
        if (report_) {
          report_->regions_fused++;
          report_->ops_fused += fused->NumFusedOps();
        }
        DMML_COUNTER_INC("laopt.fusion.regions_fused");
        DMML_COUNTER_ADD("laopt.fusion.ops_fused", fused->NumFusedOps());
        return fused;
      }
    }
    std::vector<ExprPtr> kids;
    kids.reserve(node->children().size());
    for (const auto& c : node->children()) {
      DMML_ASSIGN_OR_RETURN(ExprPtr k, Fuse(c));
      kids.push_back(std::move(k));
    }
    return WithChildren(node, std::move(kids));
  }

  struct Region {
    la::CellProgram program;
    std::vector<ExprPtr> inputs;
    std::unordered_map<const ExprNode*, uint32_t> input_index;
  };

  // Appends `node`'s postfix code to the region.
  Status Emit(const ExprPtr& node, Region* region) {  // NOLINT(misc-no-recursion)
    for (const auto& c : node->children()) {
      if (Absorbed(c)) {
        DMML_RETURN_IF_ERROR(Emit(c, region));
        continue;
      }
      DMML_ASSIGN_OR_RETURN(ExprPtr input, Fuse(c));
      const auto [it, inserted] = region->input_index.emplace(
          input.get(), static_cast<uint32_t>(region->inputs.size()));
      if (inserted) region->inputs.push_back(std::move(input));
      region->program.push_back({la::CellOp::kLoad, it->second});
    }
    region->program.push_back(CellOpOf(*node));
    return Status::OK();
  }

  OptimizerReport* report_;
  std::unordered_map<const ExprNode*, size_t> uses_;
  std::unordered_map<const ExprNode*, ExprPtr> memo_;
};

}  // namespace

Result<ExprPtr> Optimize(const ExprPtr& root, const OptimizerOptions& options,
                         OptimizerReport* report, DagAnalysis* analysis) {
  if (!root) return Status::InvalidArgument("Optimize: null expression");
  DMML_TRACE_SPAN("laopt.optimize");
  if (report) {
    *report = OptimizerReport{};
    report->flops_before = EstimateFlops(root);
  }
  DagAnalysis local_analysis;
  Rewriter rewriter(options, report, analysis ? analysis : &local_analysis);
  DMML_ASSIGN_OR_RETURN(ExprPtr rewritten, rewriter.Rewrite(root));
  Fuser fuser(rewritten, report);
  DMML_ASSIGN_OR_RETURN(ExprPtr result, fuser.Fuse(rewritten));
  // Soundness gate (see VerifyEnabled): the rewritten and fused DAG must
  // verify and preserve the root's value shape; a failure names this pass
  // and the node.
  DMML_RETURN_IF_ERROR(VerifyPassOutput("optimizer", root, result,
                                        /*expect_hash_consed=*/false,
                                        report ? &report->verify : nullptr));
  if (report) report->flops_after = EstimateFlops(result);
  return result;
}

double OptimalChainCost(const std::vector<std::pair<size_t, size_t>>& shapes) {
  std::vector<ChainFactor> factors;
  factors.reserve(shapes.size());
  for (const auto& s : shapes) factors.push_back({s.first, s.second, 1.0});
  return OptimalSparseChainCost(factors);
}

double OptimalSparseChainCost(const std::vector<ChainFactor>& factors) {
  std::vector<std::vector<size_t>> splits;
  return ChainDp(factors, &splits);
}

}  // namespace dmml::laopt
