/// \file unified_trainers.h
/// \brief The trainers: batch-gradient GLM, the normal equations and Lloyd's
/// k-means, each written once against a laopt::Operand and executed by the
/// buffered executor's representation dispatch.
///
/// These are the only implementations of the three algorithms. A caller
/// binds its data as an Operand — `BorrowOperand` for a dense matrix,
/// `laopt::Operand(shared_ptr)` for CSR or CLA, and
/// `factorized::MakeFactorizedOperand` for a normalized join — and calls
/// the trainer; `ml::TrainGlm` (kBatchGd, kNormalEquations) and
/// `ml::TrainKMeans` are the dense bindings. The matrix products of every
/// epoch — X·W, Xᵀ·R, X·Cᵀ, Xᵀ·A, XᵀX, rowSums(X ⊙ X) — run through one
/// BufferedExecutor, which dispatches each to the dense, CSR, compressed or
/// factorized kernel matching the binding (laopt/executor.h). The scalar
/// bookkeeping (residuals, losses, argmin assignment, center and weight
/// updates) is representation-independent, so every binding runs the same
/// arithmetic.
///
/// Batch GD has one engine, `SharedScanTrain`: a rung of k configs trained
/// as one d×k weight matrix over one or more fold windows (the Columbus
/// shared scan). `TrainGlmOnOperand` is its width-1 rung over one window
/// spanning every row, and modelsel's batched trainers, grid search and
/// successive halving are its wider rungs.
#ifndef DMML_ML_UNIFIED_TRAINERS_H_
#define DMML_ML_UNIFIED_TRAINERS_H_

#include <vector>

#include "la/dense_matrix.h"
#include "laopt/operand.h"
#include "ml/glm.h"
#include "ml/kmeans.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::laopt {
class PlanProfile;
}  // namespace dmml::laopt

namespace dmml::ml {

/// \brief Non-owning Operand over a caller-held dense matrix — the standard
/// way to run an existing `DenseMatrix` through the operand-based trainers
/// without copying or transferring ownership. The caller must outlive every executor run that reads it.
laopt::Operand BorrowOperand(const la::DenseMatrix& m);

/// \brief One fold's validation rows as a contiguous range [begin, end) of
/// the (pre-permuted) data. Training rows are the complement windows
/// [0, begin) and [end, n). An empty range (begin == end) means "no held-out
/// rows": the fold trains on all n rows.
struct FoldRange {
  size_t begin = 0;
  size_t end = 0;
};

/// \brief Per-fold output of a rung: one weight column, intercept, loss
/// history and epoch count per configuration.
struct SharedScanFold {
  la::DenseMatrix weights;                          ///< d x k, column c = config c.
  std::vector<double> intercepts;                   ///< k entries.
  std::vector<std::vector<double>> loss_histories;  ///< k histories.
  std::vector<size_t> epochs_run;                   ///< k entries.
};

/// \brief How the batch-GD engine obtains each epoch's losses and gradients.
enum class BatchGdRoute {
  /// Two ranged products over X per epoch and fold — X·W, then Xᵀ·R on the
  /// residuals — for any family.
  kScan,
  /// Squared loss only: one pass computes each row segment's XᵀX, Xᵀy and
  /// Xᵀ1, and every epoch is one d×d×k product per fold.
  kStatistics,
};

/// \brief "scan" or "statistics".
const char* BatchGdRouteName(BatchGdRoute route);

/// \brief A route and the costs it was chosen by, in flop-equivalents.
struct BatchGdRouteChoice {
  BatchGdRoute route = BatchGdRoute::kScan;
  double statistics_cost = 0;  ///< Σ_segments gram(s) + E·F·2d².
  double scan_cost = 0;        ///< E·Σ_folds 4·nnz(train_f).
};

/// \brief Result of one rung over every fold.
struct SharedScanResult {
  std::vector<SharedScanFold> folds;  ///< One per input FoldRange, in order.
  size_t epochs_run = 0;              ///< Epochs the rung executed.
  BatchGdRouteChoice route;           ///< The route the rung trained on.
};

/// \brief The engine's route rule, a pure function of X's binding and
/// shape, the folds and the shared config fields. The rows are cut at every
/// fold boundary into segments; E is `max_epochs`, F the number of folds.
/// It picks statistics only when all three hold:
///
///  1. the family is Gaussian;
///  2. d is at most the smallest fold's training row count;
///  3. Σ_segments gram(s) + E·F·2d² ≤ E·Σ_f 4·nnz(train_f), where gram(s)
///     is rows_s·d(d+1) for dense, CLA and factorized bindings and
///     Σ_rows nnz_r(nnz_r+1) for CSR, and nnz(train_f) is rows·d or the
///     CSR nonzeros of fold f's training rows.
///
/// The rule is evaluated at width 1 — k never enters it — so every column
/// of a rung takes the route its width-1 run takes. Malformed inputs get
/// the scan route with zero costs.
BatchGdRouteChoice ChooseBatchGdRoute(const laopt::Operand& x,
                                      const std::vector<FoldRange>& folds,
                                      const std::vector<GlmConfig>& configs);

/// \brief The batch-gradient GLM engine: trains every configuration of a
/// rung on each fold's training windows at once, as one d×k weight matrix
/// per fold, over any binding of `x`.
///
/// All configs must share family, max_epochs and fit_intercept, and every
/// `solver` must be kBatchGd (InvalidArgument naming the solver otherwise);
/// learning_rate (finite, > 0), l2 and lr_decay (finite, ≥ 0) and tolerance
/// may differ per config — InvalidArgument names a field out of range. `y`
/// is n x 1 in the same row order as `x`. Training windows are zero-copy
/// row slices of `x`. ChooseBatchGdRoute picks how each epoch runs:
///
///  * scan: one X·W and one Xᵀ·R product per window on the binding's
///    ranged kernels, run as two wide multi-root plans that the inter-node
///    scheduler overlaps across folds;
///  * statistics: one plan first computes each row segment's XᵀX, Xᵀy and
///    Xᵀ1 (the `ml.glm.statistics` span), and each epoch is one G_f·W_f
///    plan over the live folds plus the scalar gradient and loss algebra.
///    A column whose statistics loss falls below 1e-6 of yᵀy/2n takes that
///    epoch's loss from a residual pass instead (`ml.glm.stats.loss_rescans`).
///
/// Each run adds one to `ml.glm.route.statistics` or `ml.glm.route.scan`,
/// and `SharedScanResult::route` records the route and both costs. Each
/// (fold, config) column then follows the single-model contract:
///
///  * the update is w -= lr·(g/n + λ·w), b -= lr·Σr/n, with
///    lr = learning_rate / (1 + lr_decay·epoch);
///  * `loss_histories[c][e]` is the loss at the weights epoch e started from
///    (mean loss plus ½λ‖w‖²);
///  * the column stops on its own `tolerance` (|Δloss| <= tol·max(1, loss)):
///    the epoch that meets the rule still updates and records its loss, then
///    the column freezes and `epochs_run[c]` keeps its count. The rung ends
///    when every column has stopped or the budget runs out.
///
/// A k-wide dense epoch is bit-equal per column to width-1 epochs over the
/// same windows, on either route. Steady-state epochs allocate nothing; each epoch's wall
/// time is observed into `ml.glm.epoch_us`. A `profile` records per-node
/// EXPLAIN ANALYZE evidence for the executor runs that have one root (a
/// one-window rung); multi-root runs are not profiled. Every call is one
/// model-selection rung: it runs under the `modelsel.shared_scan` span and
/// adds to the `modelsel.shared.{rungs,configs_per_scan}` counters and the
/// `modelsel.rung_width` histogram; `modelsel.shared.epochs_saved` adds
/// Σ_c epochs_run − max_c epochs_run per fold.
Result<SharedScanResult> SharedScanTrain(const laopt::Operand& x,
                                         const la::DenseMatrix& y,
                                         const std::vector<FoldRange>& folds,
                                         const std::vector<GlmConfig>& configs,
                                         ThreadPool* pool = GlobalThreadPool(),
                                         laopt::PlanProfile* profile = nullptr);

/// \brief Moves a fold's k columns out into k models of `family`.
std::vector<GlmModel> UnpackFoldModels(SharedScanFold fold, GlmFamily family);

/// \brief Full-batch gradient-descent GLM training on a design matrix in
/// any physical representation: the width-1 rung of SharedScanTrain's
/// engine over one training window spanning every row, with its contract
/// (kBatchGd only, `loss_history[e]` at the weights epoch e started from,
/// tolerance stop, `ml.glm.epoch_us` per epoch). A single fit is not model
/// selection, so it leaves the `modelsel.*` rung counters untouched.
///
/// Profiling (all three trainers): pass a `profile` to accumulate per-node
/// EXPLAIN ANALYZE evidence across every epoch's executor runs
/// (laopt/profile.h). With a null `profile`, setting the
/// DMML_EXPLAIN_ANALYZE environment variable to a truthy value makes the
/// trainer profile into a local PlanProfile and log the calibration report
/// at the end of training. While training runs, the active profile is
/// published on the obs `/profiles` endpoint under the trainer's span name
/// (e.g. "ml.glm.train_operand").
Result<GlmModel> TrainGlmOnOperand(const laopt::Operand& x,
                                   const la::DenseMatrix& y,
                                   const GlmConfig& config,
                                   ThreadPool* pool = nullptr,
                                   laopt::PlanProfile* profile = nullptr);

/// \brief Closed-form ridge solve (XᵀX + nλI) w = Xᵀy over any
/// representation of X (Gaussian family). XᵀX, Xᵀy and the intercept
/// border's colSums(X) are evaluated through the executor, each on the
/// binding's own kernel: dense bindings hit the SYRK/fused-transpose
/// kernels, CSR and CLA their Gram and transpose products, and a
/// factorized binding the Orion cofactor Gramian and per-table column sums
/// (factorized_gramian.h). Fills `model` (weights, intercept, one
/// loss_history entry, epochs_run = 1).
Status RunNormalEquationsOnOperand(const laopt::Operand& x,
                                   const la::DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   GlmModel* model,
                                   laopt::PlanProfile* profile = nullptr);

/// \brief Lloyd's k-means on a design matrix in any representation, with
/// the contract documented on ml::TrainKMeans (k-means++ seeding, empty
/// clusters keep their center, labels and inertia describe the returned
/// centers). The seeding's X·c and Xᵀ·e products, the per-iteration X·Cᵀ
/// and Xᵀ·A products and the one-off rowSums(X ⊙ X) run on the binding's
/// native kernels, so no binding is densified. Each iteration's wall time
/// is observed into the `ml.kmeans.iter_us` histogram.
Result<KMeansModel> TrainKMeansOnOperand(const laopt::Operand& x,
                                         const KMeansConfig& config,
                                         ThreadPool* pool = nullptr,
                                         laopt::PlanProfile* profile = nullptr);

}  // namespace dmml::ml

#endif  // DMML_ML_UNIFIED_TRAINERS_H_
