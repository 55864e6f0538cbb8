/// \file shared_scan.h
/// \brief Shared-scan model selection: one pass over X trains every
/// configuration in the rung, over any physical representation of X.
///
/// This is the Columbus/MSMS observation taken to its laopt conclusion. A
/// rung of k GLM configurations (shared family / epoch budget / intercept
/// flag; heterogeneous learning rate, L2, lr-decay and tolerance) trains as
/// ONE d x k weight matrix W: an epoch costs one X·W product and one Xᵀ·R
/// product per fold window — dense GEMM, CSR, CLA or factorized ranged
/// kernels, picked by the representation X is bound to — instead of k
/// separate passes. A squared-loss rung whose shape favours it reads X
/// once instead: one Gram pass per rung, then d×d×k work per epoch
/// (ml::ChooseBatchGdRoute). The engine is the one batch-GD trainer,
/// ml::SharedScanTrain (ml/unified_trainers.h); this header re-exports it
/// with its fold types and adds validation scoring and the fold layout.
///
/// Cross-validation folds are contiguous row ranges of a once-permuted X:
/// fold f's validation rows are [begin, end), its training rows the two
/// windows [0, begin) and [end, n). Leave-one-fold-out training binds those
/// windows as zero-copy laopt::Operand row slices — the executor's ranged
/// kernels read X in place; no GatherRows on the hot path.
///
/// Observability: `modelsel.shared.rungs`, `modelsel.shared.configs_per_scan`
/// and `modelsel.shared.epochs_saved` counters, plus the
/// `modelsel.rung_width` histogram. They count SharedScanTrain calls only:
/// a single ml::TrainGlmOnOperand fit runs the same engine without them.
#ifndef DMML_MODELSEL_SHARED_SCAN_H_
#define DMML_MODELSEL_SHARED_SCAN_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "laopt/operand.h"
#include "ml/glm.h"
#include "ml/unified_trainers.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::modelsel {

struct KFold;

using ml::FoldRange;
using ml::SharedScanFold;
using ml::SharedScanResult;
using ml::SharedScanTrain;

/// \brief Higher-is-better validation metric for rung/fold scoring. Over a
/// window of n rows with scores s = x·w + b:
enum class FoldMetric {
  /// Binomial label accuracy: a row predicts label 1 iff
  /// ml::GlmInverseLink(s) ≥ 0.5, so s = 0 exactly predicts 1 (CV scoring).
  kAccuracy,
  /// −L/n for L the sum of la::GlmResidualsInto's binomial loss terms
  /// softplus(−margin): the exact mean log loss, finite for any finite
  /// score. No probability clip, so a confidently wrong row costs its full
  /// |s| (halving rung scoring, the only caller).
  kNegLogLoss,
  /// −√(2L/n) for L the sum of the Gaussian loss terms ½r²: the negated
  /// RMSE (Gaussian scoring).
  kNegRmse,
};

/// \brief Scores all k configurations on validation rows [row_begin,
/// row_end) of `x` without gathering: one ranged X·W product on the
/// binding's kernels (a factorized X runs its windowed LMM) feeds every
/// config's scores, and the loss metrics take the residual kernel's loss
/// sums. Any non-empty window works, one row included. Returns one score
/// per config (weights column); column c's score depends on column c only,
/// bit for bit.
Result<std::vector<double>> ScoreConfigsOnWindow(
    const laopt::Operand& x, const la::DenseMatrix& y, size_t row_begin,
    size_t row_end, const la::DenseMatrix& weights,
    const std::vector<double>& intercepts, ml::GlmFamily family,
    FoldMetric metric, ThreadPool* pool = GlobalThreadPool());

/// \brief The once-up-front permutation that makes a KFold's folds
/// contiguous: `order` concatenates the validation index lists of folds
/// 0..k-1, so after gathering rows in `order`, fold f's validation rows are
/// exactly `folds[f]` and its training rows — the windows around them — are
/// the same rows, in the same order, as KFold::TrainingIndices(f).
struct ContiguousFolds {
  std::vector<size_t> order;     ///< Permuted row i holds original row order[i].
  std::vector<FoldRange> folds;  ///< Validation ranges, one per fold.
};

/// \brief Builds the contiguous-fold permutation of `kf`.
ContiguousFolds MakeContiguousFolds(const KFold& kf);

}  // namespace dmml::modelsel

#endif  // DMML_MODELSEL_SHARED_SCAN_H_
