#include "ml/unified_trainers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "la/kernels.h"
#include "la/ops.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dmml::ml {

using la::DenseMatrix;
using laopt::BufferedExecutor;
using laopt::ExprNode;
using laopt::ExprPtr;
using laopt::Operand;

namespace {

const char* SolverName(GlmSolver solver) {
  switch (solver) {
    case GlmSolver::kBatchGd:
      return "batch_gd";
    case GlmSolver::kSgd:
      return "sgd";
    case GlmSolver::kMiniBatchSgd:
      return "minibatch_sgd";
    case GlmSolver::kHogwild:
      return "hogwild";
    case GlmSolver::kNormalEquations:
      return "normal_equations";
    case GlmSolver::kAdagrad:
      return "adagrad";
    case GlmSolver::kAdam:
      return "adam";
  }
  return "unknown";
}

bool ExplainAnalyzeEnvEnabled() {
  const char* v = std::getenv("DMML_EXPLAIN_ANALYZE");  // NOLINT(concurrency-mt-unsafe)
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "FALSE") != 0 && std::strcmp(v, "off") != 0;
}

// Resolves the profile a trainer invocation records into: the caller's, or —
// when DMML_EXPLAIN_ANALYZE asks for a report and the caller passed none — a
// trainer-local PlanProfile whose calibration report is logged on scope
// exit. Whichever is active gets published on the obs `/profiles` endpoint
// under the trainer's span name for the duration of training.
class ScopedTrainerProfile {
 public:
  ScopedTrainerProfile(laopt::PlanProfile* caller_profile, const char* name)
      : caller_profile_(caller_profile), name_(name) {
    if (caller_profile_ == nullptr && ExplainAnalyzeEnvEnabled()) {
      local_ = std::make_shared<laopt::PlanProfile>();
    }
    if (local_ != nullptr) {
      // The provider takes shared ownership, so a /profiles scrape racing
      // this scope's teardown can never see a destroyed profile.
      registration_ = laopt::RegisterProfile(name_, local_);
    } else if (caller_profile_ != nullptr) {
      // The caller owns this profile, so shared ownership is unavailable;
      // the non-owning alias is still safe because unregistration (the
      // registration_ member destructs before anything else here, and
      // before the trainer returns) blocks until in-flight scrapes of this
      // provider return — see ProfileRegistry::Unregister.
      registration_ = laopt::RegisterProfile(
          name_, std::shared_ptr<const laopt::PlanProfile>(
                     std::shared_ptr<void>(), caller_profile_));
    }
  }

  ~ScopedTrainerProfile() {
    if (local_) {
      DMML_LOG(Info) << "DMML_EXPLAIN_ANALYZE " << name_ << "\n"
                     << local_->ExplainAnalyzeText();
    }
  }

  ScopedTrainerProfile(const ScopedTrainerProfile&) = delete;
  ScopedTrainerProfile& operator=(const ScopedTrainerProfile&) = delete;

  laopt::PlanProfile* active() const {
    return local_ ? local_.get() : caller_profile_;
  }

 private:
  laopt::PlanProfile* caller_profile_;
  const char* name_;
  std::shared_ptr<laopt::PlanProfile> local_;
  // Declared last: destructs first, draining in-flight scrapes before the
  // profile they read (local_ or the caller's) can go away.
  obs::ScopedProfileRegistration registration_;
};

// Assigns every row to its nearest center by the expanded distance
// ‖x‖² − 2·x·c + ‖c‖², given cross = X·Cᵀ (n x k) and row_norms = ‖x‖²
// (n x 1). Returns the inertia, the summed squared distances.
double AssignNearest(const DenseMatrix& cross, const DenseMatrix& row_norms,
                     const DenseMatrix& centers,
                     std::vector<double>* center_norms,
                     std::vector<int>* labels) {
  const size_t n = cross.rows(), k = centers.rows(), d = centers.cols();
  for (size_t c = 0; c < k; ++c) {
    (*center_norms)[c] = la::Dot(centers.Row(c), centers.Row(c), d);
  }
  double inertia = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const double dist =
          row_norms.At(i, 0) - 2.0 * cross.At(i, c) + (*center_norms)[c];
      if (dist < best_d) {
        best_d = dist;
        best = c;
      }
    }
    (*labels)[i] = static_cast<int>(best);
    inertia += std::max(0.0, best_d);  // The expansion can round below 0.
  }
  return inertia;
}

}  // namespace

Operand BorrowOperand(const DenseMatrix& m) {
  return Operand(
      std::shared_ptr<const DenseMatrix>(std::shared_ptr<void>(), &m));
}

Result<GlmModel> TrainGlmOnOperand(const Operand& x, const DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   laopt::PlanProfile* profile) {
  if (!x.bound()) return Status::InvalidArgument("GLM: unbound design operand");
  if (config.solver != GlmSolver::kBatchGd) {
    return Status::InvalidArgument(
        std::string("GLM: the operand trainer runs batch gradient descent "
                    "only, got solver ") +
        SolverName(config.solver));
  }
  const size_t n = x.rows(), d = x.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("GLM: empty data");
  if (y.rows() != n || y.cols() != 1) {
    return Status::InvalidArgument("GLM: y must be n x 1");
  }
  if (config.learning_rate <= 0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (config.family == GlmFamily::kBinomial) {
    for (size_t i = 0; i < n; ++i) {
      double v = y.At(i, 0);
      if (v != 0.0 && v != 1.0) {
        return Status::InvalidArgument("Binomial family requires 0/1 labels");
      }
    }
  }
  DMML_TRACE_SPAN("ml.glm.train_operand");

  // The whole epoch's linear algebra is two executor programs over shared
  // leaves: scores = X %*% w and grad = t(X) %*% r. Representation dispatch
  // picks the kernels; w and r are payloads this loop mutates in place.
  auto w = std::make_shared<DenseMatrix>(d, 1);
  auto r = std::make_shared<DenseMatrix>(n, 1);
  DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(x, "X"));
  DMML_ASSIGN_OR_RETURN(ExprPtr wleaf, ExprNode::InputOperand(Operand(w), "w"));
  DMML_ASSIGN_OR_RETURN(ExprPtr rleaf, ExprNode::InputOperand(Operand(r), "r"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr scores_expr, ExprNode::MatMul(xleaf, wleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr grad_expr, ExprNode::MatMul(xt, rleaf));
  ScopedTrainerProfile prof(profile, "ml.glm.train_operand");
  BufferedExecutor executor(pool);
  executor.set_profile(prof.active());

  GlmModel model;
  model.family = config.family;
  const double inv_n = 1.0 / static_cast<double>(n);
  double prev_loss = std::numeric_limits<double>::infinity();

  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    const uint64_t epoch_start_us = obs::NowMicros();
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* scores,
                          executor.Run(scores_expr));
    double loss = 0;
    double bias_grad = 0;
    for (size_t i = 0; i < n; ++i) {
      double s = scores->At(i, 0) + model.intercept;
      double yi = y.At(i, 0);
      if (config.family == GlmFamily::kGaussian) {
        double resid = s - yi;
        loss += 0.5 * resid * resid;
        r->At(i, 0) = resid;
      } else {
        double sign_y = yi > 0.5 ? 1.0 : -1.0;
        double m = sign_y * s;
        loss += m > 0 ? std::log1p(std::exp(-m)) : -m + std::log1p(std::exp(m));
        r->At(i, 0) = GlmInverseLink(s, config.family) - yi;
      }
      bias_grad += r->At(i, 0);
    }
    loss *= inv_n;
    if (config.l2 > 0) {
      double w2 = 0;
      for (size_t j = 0; j < d; ++j) w2 += w->At(j, 0) * w->At(j, 0);
      loss += 0.5 * config.l2 * w2;
    }

    DMML_ASSIGN_OR_RETURN(const DenseMatrix* grad, executor.Run(grad_expr));
    double lr = config.learning_rate /
                (1.0 + config.lr_decay * static_cast<double>(epoch));
    for (size_t j = 0; j < d; ++j) {
      // grad is d x 1 in every dispatch (the 1 x d gevm outputs are
      // reinterpreted by the executor); same contiguous values either way.
      w->At(j, 0) -= lr * (grad->At(j, 0) * inv_n + config.l2 * w->At(j, 0));
    }
    if (config.fit_intercept) model.intercept -= lr * bias_grad * inv_n;

    // Entry e is the loss at the weights epoch e started from: it falls out
    // of the residual pass, so no second pass over X is needed.
    model.loss_history.push_back(loss);
    model.epochs_run = epoch + 1;
    DMML_HISTOGRAM_OBSERVE("ml.glm.epoch_us", obs::ExponentialBuckets(32, 4, 10),
                           static_cast<double>(obs::NowMicros() - epoch_start_us));
    if (std::isfinite(prev_loss) &&
        std::fabs(prev_loss - loss) <=
            config.tolerance * std::max(1.0, prev_loss)) {
      break;
    }
    prev_loss = loss;
  }
  model.weights = *w;
  return model;
}

Status RunNormalEquationsOnOperand(const Operand& x, const DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   GlmModel* model, laopt::PlanProfile* profile) {
  if (!x.bound()) return Status::InvalidArgument("GLM: unbound design operand");
  const size_t n = x.rows(), d = x.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("GLM: empty data");
  if (y.rows() != n || y.cols() != 1) {
    return Status::InvalidArgument("GLM: y must be n x 1");
  }
  if (config.family != GlmFamily::kGaussian) {
    return Status::InvalidArgument("normal equations require the Gaussian family");
  }
  const size_t da = config.fit_intercept ? d + 1 : d;

  // One program per product of the augmented system, plus the scores of
  // the solution for its loss; all built up front, since the executor keys
  // plans by node address. On a dense binding t(X)%*%X routes to the SYRK
  // kernel, t(X)%*%y to the fused transpose-multiply and colSums to the
  // column reduction. Other bindings swap in their native operators per
  // laopt/executor.h.
  auto w = std::make_shared<DenseMatrix>(d, 1);
  DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(x, "X"));
  DMML_ASSIGN_OR_RETURN(ExprPtr yleaf, ExprNode::InputOperand(BorrowOperand(y), "y"));
  DMML_ASSIGN_OR_RETURN(ExprPtr wleaf, ExprNode::InputOperand(Operand(w), "w"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr gram_expr, ExprNode::MatMul(xt, xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr xty_expr, ExprNode::MatMul(xt, yleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr colsums_expr, ExprNode::ColSums(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr scores_expr, ExprNode::MatMul(xleaf, wleaf));
  ScopedTrainerProfile prof(profile, "ml.glm.normal_equations");
  BufferedExecutor executor(pool);
  executor.set_profile(prof.active());

  DenseMatrix xtx(da, da);
  DenseMatrix xty(da, 1);
  {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* gram, executor.Run(gram_expr));
    for (size_t a = 0; a < d; ++a) {
      std::copy(gram->Row(a), gram->Row(a) + d, xtx.Row(a));
    }
  }
  {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* xty_data, executor.Run(xty_expr));
    for (size_t a = 0; a < d; ++a) xty.At(a, 0) = xty_data->At(a, 0);
  }
  if (config.fit_intercept) {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* colsums,
                          executor.Run(colsums_expr));
    for (size_t j = 0; j < d; ++j) {
      xtx.At(j, d) = colsums->At(0, j);
      xtx.At(d, j) = colsums->At(0, j);
    }
    xtx.At(d, d) = static_cast<double>(n);
    xty.At(d, 0) = la::Sum(y, pool);
  }
  // L2 penalty (matching the per-example-mean loss convention: λ * n).
  if (config.l2 > 0) {
    for (size_t j = 0; j < d; ++j) {
      xtx.At(j, j) += config.l2 * static_cast<double>(n);
    }
  }
  DMML_ASSIGN_OR_RETURN(DenseMatrix sol, la::Solve(xtx, xty));
  for (size_t j = 0; j < d; ++j) w->At(j, 0) = sol.At(j, 0);
  model->family = config.family;
  model->weights = *w;
  model->intercept = config.fit_intercept ? sol.At(d, 0) : 0.0;
  model->epochs_run = 1;

  DMML_ASSIGN_OR_RETURN(const DenseMatrix* scores, executor.Run(scores_expr));
  double loss = 0;
  for (size_t i = 0; i < n; ++i) {
    double resid = scores->At(i, 0) + model->intercept - y.At(i, 0);
    loss += 0.5 * resid * resid;
  }
  loss /= static_cast<double>(n);
  if (config.l2 > 0) {
    double w2 = 0;
    for (size_t j = 0; j < d; ++j) w2 += w->At(j, 0) * w->At(j, 0);
    loss += 0.5 * config.l2 * w2;
  }
  model->loss_history.push_back(loss);
  return Status::OK();
}

Result<KMeansModel> TrainKMeansOnOperand(const Operand& x,
                                         const KMeansConfig& config,
                                         ThreadPool* pool,
                                         laopt::PlanProfile* profile) {
  if (!x.bound()) {
    return Status::InvalidArgument("k-means: unbound design operand");
  }
  const size_t n = x.rows(), d = x.cols(), k = config.k;
  if (n == 0 || d == 0) return Status::InvalidArgument("k-means: empty data");
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k-means: k must be in [1, n]");
  }
  DMML_TRACE_SPAN("ml.kmeans.train_operand");

  // Every program, built up front: the executor keys prepared plans and
  // slots by node address, so no node may be freed while it runs. Payloads
  // are mutated in place between runs: a one-hot row selector e_i, the
  // newest seed center c, the centers C and the assignment indicator A.
  auto pick = std::make_shared<DenseMatrix>(n, 1);
  auto newest = std::make_shared<DenseMatrix>(d, 1);
  auto centers = std::make_shared<DenseMatrix>(k, d);
  auto assign = std::make_shared<DenseMatrix>(n, k);
  DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(x, "X"));
  DMML_ASSIGN_OR_RETURN(ExprPtr pleaf,
                        ExprNode::InputOperand(Operand(pick), "pick"));
  DMML_ASSIGN_OR_RETURN(ExprPtr nleaf,
                        ExprNode::InputOperand(Operand(newest), "newest"));
  DMML_ASSIGN_OR_RETURN(ExprPtr cleaf,
                        ExprNode::InputOperand(Operand(centers), "centers"));
  DMML_ASSIGN_OR_RETURN(ExprPtr aleaf,
                        ExprNode::InputOperand(Operand(assign), "assign"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr xx, ExprNode::ElemMul(xleaf, xleaf));
  // rowSums(X ⊙ X) fuses into the representation's row-squared-norms kernel.
  DMML_ASSIGN_OR_RETURN(ExprPtr norms_expr, ExprNode::RowSums(xx));
  DMML_ASSIGN_OR_RETURN(ExprPtr row_expr, ExprNode::MatMul(xt, pleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr proj_expr, ExprNode::MatMul(xleaf, nleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr ct, ExprNode::Transpose(cleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr cross_expr, ExprNode::MatMul(xleaf, ct));
  DMML_ASSIGN_OR_RETURN(ExprPtr sums_expr, ExprNode::MatMul(xt, aleaf));
  ScopedTrainerProfile prof(profile, "ml.kmeans.train_operand");
  BufferedExecutor executor(pool);
  executor.set_profile(prof.active());

  // Copied out, since a slot buffer is only stable until the next Run().
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* norms, executor.Run(norms_expr));
  const DenseMatrix row_norms = *norms;

  // k-means++ seeding: the first center is a uniform row, each later one a
  // row drawn with probability proportional to its squared distance from
  // the nearest center so far. Both products run through the executor, so
  // no binding densifies: Xᵀ·e_i extracts row i, and X·c gives the distance
  // expansion's cross term for the newest center c.
  Rng rng(config.seed);
  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  size_t chosen = rng.UniformInt(static_cast<uint64_t>(n));
  for (size_t c = 0;; ++c) {
    pick->At(chosen, 0) = 1.0;
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* row, executor.Run(row_expr));
    pick->At(chosen, 0) = 0.0;
    std::copy(row->data(), row->data() + d, centers->Row(c));
    if (c + 1 == k) break;

    std::copy(row->data(), row->data() + d, newest->data());
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* proj, executor.Run(proj_expr));
    const double norm = la::Dot(newest->data(), newest->data(), d);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      const double dd =
          std::max(0.0, row_norms.At(i, 0) - 2.0 * proj->At(i, 0) + norm);
      dist2[i] = std::min(dist2[i], dd);
      total += dist2[i];
    }
    chosen = 0;
    if (total > 0) {
      const double r = rng.Uniform() * total;
      double acc = 0;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (r < acc) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.UniformInt(static_cast<uint64_t>(n));
    }
  }

  // Lloyd's iterations: X·Cᵀ for the assignment, Xᵀ·A for the update.
  KMeansModel model;
  model.labels.assign(n, 0);
  std::vector<double> center_norms(k);
  std::vector<size_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < config.max_iters; ++iter) {
    const uint64_t iter_start_us = obs::NowMicros();
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* cross, executor.Run(cross_expr));
    const double inertia =
        AssignNearest(*cross, row_norms, *centers, &center_norms, &model.labels);

    assign->Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      assign->At(i, static_cast<size_t>(model.labels[i])) = 1.0;
      counts[static_cast<size_t>(model.labels[i])]++;
    }
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* sums, executor.Run(sums_expr));
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // An empty cluster keeps its center.
      double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        centers->At(c, j) = sums->At(j, c) * inv;
      }
    }

    model.inertia_history.push_back(inertia);
    model.iters_run = iter + 1;
    DMML_HISTOGRAM_OBSERVE("ml.kmeans.iter_us", obs::ExponentialBuckets(32, 4, 10),
                           static_cast<double>(obs::NowMicros() - iter_start_us));
    if (std::isfinite(prev_inertia) &&
        std::fabs(prev_inertia - inertia) <=
            config.tolerance * std::max(1.0, prev_inertia)) {
      break;
    }
    prev_inertia = inertia;
  }

  // Final assignment against the centers returned, so labels and inertia
  // describe them even when the iteration budget ran out mid-descent.
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* cross, executor.Run(cross_expr));
  model.inertia =
      AssignNearest(*cross, row_norms, *centers, &center_norms, &model.labels);
  model.centers = *centers;
  return model;
}

}  // namespace dmml::ml
