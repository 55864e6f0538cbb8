/// \file optimizer.h
/// \brief Logical rewrites over LA expression DAGs.
///
/// Implements the classic SystemML-style logical optimizations:
///  * transpose elimination: t(t(X)) → X
///  * scalar folding: α(βX) → (αβ)X, and scalar hoisting out of matmuls
///  * optimal matrix-chain ordering: flatten A·B·C·…, dynamic-programming
///    parenthesization by flop cost, rebuild. This turns e.g.
///    t(X)·(X·v) evaluated as (t(X)·X)·v — O(n·d²) — into the
///    O(n·d) two-gemv order automatically (and vice versa when profitable);
///  * elementwise fusion, always last: each maximal region of two or more
///    elementwise ops (+, −, ⊙, scalar·) becomes one kFused node whose cell
///    program the executor runs in one pass — no temporaries in between.
#ifndef DMML_LAOPT_OPTIMIZER_H_
#define DMML_LAOPT_OPTIMIZER_H_

#include <vector>

#include "laopt/analysis.h"
#include "laopt/expr.h"
#include "laopt/verify.h"

namespace dmml::laopt {

/// \brief Optimizer pass selection.
struct OptimizerOptions {
  bool eliminate_transposes = true;
  bool fold_scalars = true;
  bool reorder_chains = true;
};

/// \brief Rewrite statistics, for diagnostics and benchmarks.
struct OptimizerReport {
  size_t transposes_eliminated = 0;
  size_t scalars_folded = 0;
  size_t chains_reordered = 0;
  size_t chains_costed = 0;  ///< Chains run through the analyzer-backed DP.
  size_t regions_fused = 0;  ///< kFused nodes the fusion step built.
  size_t ops_fused = 0;      ///< Elementwise ops folded into them.
  double flops_before = 0;
  double flops_after = 0;

  /// Non-fatal verifier diagnostics from the post-pass soundness check
  /// (checked builds; see laopt/verify.h). Error-severity findings abort
  /// Optimize with a Status instead of landing here.
  std::vector<Diagnostic> verify;
};

/// \brief Applies the enabled rewrites bottom-up, then fuses elementwise
/// regions; returns the rewritten DAG.
///
/// Matrix-chain reordering costs candidate orders with shapes and sparsity
/// estimates from `analysis` (laopt/analysis.h); when none is supplied a
/// private one is built on the fly. Chains containing unknown-dimension
/// factors are left in source order (no sizes to reason with).
///
/// Fusion is not optional. It counts consumers over the rewritten DAG and
/// fuses only through nodes with no other consumer, so a shared
/// subexpression stays its own node and is computed once. A region fuses
/// when its shape is known and every boundary input has that shape. Counters
/// laopt.fusion.regions_fused and laopt.fusion.ops_fused.
Result<ExprPtr> Optimize(const ExprPtr& root, const OptimizerOptions& options = {},
                         OptimizerReport* report = nullptr,
                         DagAnalysis* analysis = nullptr);

/// \brief One matrix-chain factor as the DP sees it.
struct ChainFactor {
  size_t rows = 0;
  size_t cols = 0;
  double sparsity = 1.0;
};

/// \brief Optimal parenthesization cost (flops) of multiplying matrices with
/// the given (rows, cols) shapes in sequence, all assumed dense — exposed
/// for testing the DP.
double OptimalChainCost(const std::vector<std::pair<size_t, size_t>>& shapes);

/// \brief Sparsity-aware variant: gemm cost is discounted by the estimated
/// sparsity of the left operand (sparse-aware kernels skip zero cells), and
/// intermediate sparsities are propagated with the analyzer's matmul formula.
double OptimalSparseChainCost(const std::vector<ChainFactor>& factors);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_OPTIMIZER_H_
