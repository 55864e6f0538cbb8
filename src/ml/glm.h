/// \file glm.h
/// \brief Generalized linear models with a family of solvers.
///
/// Families: Gaussian (linear regression) and Binomial (logistic regression),
/// both with optional L2 regularization and intercept. Solvers span the
/// statistical-vs-hardware-efficiency spectrum the target tutorial discusses:
/// full-batch gradient descent, serial SGD, mini-batch SGD, lock-free
/// parallel SGD (Hogwild-style), and closed-form normal equations (Gaussian
/// family only).
#ifndef DMML_ML_GLM_H_
#define DMML_ML_GLM_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "la/kernels.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::ml {

/// GLM response family. It is la's, so the residual kernel takes it as is.
using la::GlmFamily;

/// Training algorithm.
enum class GlmSolver {
  kBatchGd,          ///< Full-batch gradient descent.
  kSgd,              ///< Single-example serial SGD with shuffling.
  kMiniBatchSgd,     ///< Mini-batch SGD.
  kHogwild,          ///< Lock-free parallel mini-SGD over a thread pool.
  kNormalEquations,  ///< (X^T X + λI)^-1 X^T y; Gaussian family only.
  kAdagrad,          ///< Mini-batch SGD with per-coordinate Adagrad scaling.
  kAdam,             ///< Mini-batch SGD with Adam moment estimates.
};

/// \brief GLM hyperparameters.
struct GlmConfig {
  GlmFamily family = GlmFamily::kGaussian;
  GlmSolver solver = GlmSolver::kBatchGd;
  double learning_rate = 0.1;
  double l2 = 0.0;              ///< L2 penalty λ (not applied to intercept).
  size_t max_epochs = 100;
  double tolerance = 1e-7;      ///< Relative loss-improvement stop criterion.
  size_t batch_size = 32;       ///< For kMiniBatchSgd.
  bool fit_intercept = true;
  size_t num_threads = 1;       ///< For kHogwild.
  uint64_t seed = 42;           ///< Shuffling / initialization seed.
  double lr_decay = 0.0;        ///< lr_t = lr / (1 + decay * epoch).
  double adam_beta1 = 0.9;      ///< Adam first-moment decay.
  double adam_beta2 = 0.999;    ///< Adam second-moment decay.
  double adaptive_eps = 1e-8;   ///< Adagrad/Adam denominator floor.
};

/// \brief A fitted GLM.
struct GlmModel {
  GlmFamily family = GlmFamily::kGaussian;
  la::DenseMatrix weights;  ///< d x 1.
  double intercept = 0.0;
  /// Training loss per epoch. Batch GD: entry e is the loss at the weights
  /// epoch e started from. The per-row solvers (SGD, mini-batch, Hogwild,
  /// Adagrad, Adam): the loss after epoch e's updates. Normal equations:
  /// one entry, the loss at the solution.
  std::vector<double> loss_history;
  size_t epochs_run = 0;

  /// \brief Linear scores X w + b as (n x 1).
  Result<la::DenseMatrix> DecisionFunction(const la::DenseMatrix& x) const;

  /// \brief Gaussian: scores; Binomial: probabilities sigmoid(scores).
  Result<la::DenseMatrix> Predict(const la::DenseMatrix& x) const;

  /// \brief Binomial only: 0/1 labels at `threshold`.
  Result<la::DenseMatrix> PredictLabels(const la::DenseMatrix& x,
                                        double threshold = 0.5) const;
};

/// \brief Trains a GLM on (x: n x d, y: n x 1) per `config`.
///
/// kBatchGd and kNormalEquations are the dense bindings of
/// ml::TrainGlmOnOperand and ml::RunNormalEquationsOnOperand
/// (ml/unified_trainers.h), the one implementation of each for every
/// representation. The per-row solvers are implemented here, since they
/// are not whole-matrix programs.
Result<GlmModel> TrainGlm(const la::DenseMatrix& x, const la::DenseMatrix& y,
                          const GlmConfig& config, ThreadPool* pool = nullptr);

/// \brief Mean loss of the family at parameters (w, b): MSE/2 for Gaussian,
/// log loss for Binomial, plus the L2 term. Exposed for convergence studies.
Result<double> GlmLoss(const la::DenseMatrix& x, const la::DenseMatrix& y,
                       const la::DenseMatrix& w, double intercept, GlmFamily family,
                       double l2);

/// \brief Inverse link: identity (Gaussian) or sigmoid (Binomial).
double GlmInverseLink(double score, GlmFamily family);

}  // namespace dmml::ml

#endif  // DMML_ML_GLM_H_
