/// \file unified_trainers.h
/// \brief The single-model trainers: batch-gradient GLM, the normal
/// equations and Lloyd's k-means, each written once against a
/// laopt::Operand and executed by the buffered executor's representation
/// dispatch.
///
/// These are the only implementations of the three algorithms. A caller
/// binds its data as an Operand — `BorrowOperand` for a dense matrix,
/// `laopt::Operand(shared_ptr)` for CSR or CLA, and
/// `factorized::MakeFactorizedOperand` for a normalized join — and calls
/// the trainer; `ml::TrainGlm` (kBatchGd, kNormalEquations) and
/// `ml::TrainKMeans` are the dense bindings. The matrix products of every
/// epoch — X·w, Xᵀ·r, X·Cᵀ, Xᵀ·A, XᵀX, rowSums(X ⊙ X) — run through one
/// BufferedExecutor, which dispatches each to the dense, CSR, compressed or
/// factorized kernel matching the binding (laopt/executor.h). The scalar
/// bookkeeping (residuals, losses, argmin assignment, center and weight
/// updates) is representation-independent, so every binding runs the same
/// arithmetic. The k-wide shared-scan engine (modelsel/shared_scan.h) is
/// the one other batch-gradient loop; it trains many configs at once.
#ifndef DMML_ML_UNIFIED_TRAINERS_H_
#define DMML_ML_UNIFIED_TRAINERS_H_

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
/// (and the modelsel shared-scan engine) without copying or transferring
/// ownership. The caller must outlive every executor run that reads it.
laopt::Operand BorrowOperand(const la::DenseMatrix& m);

/// \brief Full-batch gradient-descent GLM training on a design matrix in
/// any physical representation. The per-epoch X·w and Xᵀ·r products run on
/// the representation's native kernels (dense GEMM, CSR gemv/gevm, the
/// compressed dictionary-pre-aggregating operators, or the factorized
/// LMM/RMM); buffers are executor slots reused across epochs, so
/// steady-state epochs allocate nothing. `config.solver` must be kBatchGd
/// (InvalidArgument naming the solver otherwise). `loss_history[e]` is the
/// loss at the weights epoch e started from; each epoch's wall time is
/// observed into the `ml.glm.epoch_us` histogram.
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
/// border's colSums(X) are evaluated through the executor: dense bindings
/// hit the SYRK/fused-transpose kernels, a factorized binding the Orion
/// cofactor Gramian and per-table column sums (factorized_gramian.h), and
/// sparse and compressed bindings their native operators where they exist
/// and the densify fallback where they do not. Fills `model` (weights,
/// intercept, one loss_history entry, epochs_run = 1).
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
