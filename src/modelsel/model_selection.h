/// \file model_selection.h
/// \brief Model-selection management: hyperparameter grids, k-fold
/// cross-validation, and batched multi-configuration training.
///
/// The batched trainer implements the Columbus/MSMS observation the target
/// tutorial presents: exploring k model configurations as one *batch* shares
/// every scan of the training data — scores for all models come from one
/// X·W GEMM (W holding one weight column per configuration) instead of k
/// separate GEMVs, and gradients from one Xᵀ·R GEMM. The speedup over
/// sequential exploration grows with k.
///
/// Batched training and batched grid search are rungs of the one batch-GD
/// engine, ml::SharedScanTrain (re-exported by modelsel/shared_scan.h): X
/// may be bound to any physical representation via a laopt::Operand, folds
/// are contiguous row ranges of a once-permuted copy (no per-fold
/// GatherRows), and every epoch's linear algebra executes as wide
/// multi-root laopt plans on a shared thread pool. Every config keeps the
/// single-model contract of ml::TrainGlmOnOperand — batch GD only, its own
/// tolerance stop and epoch count — so a rung of one config is that
/// trainer, and GridSearchSequential and GridSearchBatched train the same
/// models.
#ifndef DMML_MODELSEL_MODEL_SELECTION_H_
#define DMML_MODELSEL_MODEL_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "la/dense_matrix.h"
#include "laopt/operand.h"
#include "ml/glm.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::modelsel {

/// \brief A hyperparameter grid over GLM learning rates and L2 strengths.
struct GridSpec {
  ml::GlmConfig base;                 ///< Family, epochs, solver etc.
  std::vector<double> learning_rates;
  std::vector<double> l2_penalties;

  /// \brief Cartesian-product expansion into concrete configs.
  std::vector<ml::GlmConfig> Expand() const;
};

/// \brief Deterministic k-fold index split.
struct KFold {
  /// \param n examples, \param k folds (2 <= k <= n), \param seed shuffle seed.
  static Result<KFold> Make(size_t n, size_t k, uint64_t seed);

  /// \brief Row indices of fold `f` (the validation part).
  const std::vector<size_t>& ValidationIndices(size_t f) const { return folds_[f]; }

  /// \brief All row indices not in fold `f`.
  std::vector<size_t> TrainingIndices(size_t f) const;

  size_t num_folds() const { return folds_.size(); }

 private:
  std::vector<std::vector<size_t>> folds_;
};

/// \brief Gathers the given rows of x (and y) into dense copies.
la::DenseMatrix GatherRows(const la::DenseMatrix& m, const std::vector<size_t>& rows);

/// \brief Cross-validation outcome of one configuration.
struct CvScore {
  ml::GlmConfig config;
  double mean_score = 0;  ///< Higher is better (negated RMSE for Gaussian).
  double std_score = 0;
  std::vector<double> fold_scores;
};

/// \brief k-fold CV of one config. Score = accuracy (Binomial) or -RMSE
/// (Gaussian), so that higher is always better. Fold models train on `pool`.
Result<CvScore> CrossValidate(const la::DenseMatrix& x, const la::DenseMatrix& y,
                              const ml::GlmConfig& config, size_t k, uint64_t seed,
                              ThreadPool* pool = GlobalThreadPool());

/// \brief Result of a grid search.
struct GridSearchResult {
  std::vector<CvScore> scores;  ///< One per config, input order.
  size_t best_index = 0;
  double seconds = 0;
};

/// \brief Sequential baseline: CV of each configuration independently.
Result<GridSearchResult> GridSearchSequential(const la::DenseMatrix& x,
                                              const la::DenseMatrix& y,
                                              const GridSpec& grid, size_t k,
                                              uint64_t seed,
                                              ThreadPool* pool = GlobalThreadPool());

/// \brief Trains many GLM configurations *simultaneously* with shared data
/// scans (one GEMM per epoch for all models). All configs must share family,
/// max_epochs and fit_intercept and run kBatchGd; lr, l2, lr_decay and
/// tolerance may differ per config, and each model stops on its own
/// tolerance.
Result<std::vector<ml::GlmModel>> BatchedTrainGlm(
    const la::DenseMatrix& x, const la::DenseMatrix& y,
    const std::vector<ml::GlmConfig>& configs,
    ThreadPool* pool = GlobalThreadPool());

/// \brief Representation-polymorphic batched training: X may be bound
/// dense, CSR-sparse, or CLA-compressed; the shared scans run on the
/// binding's native kernels through the laopt executor.
Result<std::vector<ml::GlmModel>> BatchedTrainGlm(
    const laopt::Operand& x, const la::DenseMatrix& y,
    const std::vector<ml::GlmConfig>& configs,
    ThreadPool* pool = GlobalThreadPool());

/// \brief Batched grid search on the shared-scan engine: X and y are
/// permuted once so every fold is a contiguous row range, then each epoch
/// trains every configuration of every fold through wide multi-root laopt
/// plans — one shared scan per epoch per fold, no per-fold row gathers.
Result<GridSearchResult> GridSearchBatched(const la::DenseMatrix& x,
                                           const la::DenseMatrix& y,
                                           const GridSpec& grid, size_t k,
                                           uint64_t seed,
                                           ThreadPool* pool = GlobalThreadPool());

}  // namespace dmml::modelsel

#endif  // DMML_MODELSEL_MODEL_SELECTION_H_
