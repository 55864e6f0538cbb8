#include "ml/glm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "la/kernels.h"
#include "la/ops.h"
#include "ml/unified_trainers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dmml::ml {

using la::DenseMatrix;

double GlmInverseLink(double score, GlmFamily family) {
  if (family == GlmFamily::kGaussian) return score;
  // Numerically-stable sigmoid.
  if (score >= 0) {
    double z = std::exp(-score);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(score);
  return z / (1.0 + z);
}

Result<DenseMatrix> GlmModel::DecisionFunction(const DenseMatrix& x) const {
  if (x.cols() != weights.rows()) {
    return Status::InvalidArgument("model expects " + std::to_string(weights.rows()) +
                                   " features, got " + std::to_string(x.cols()));
  }
  DenseMatrix scores = la::Gemv(x, weights);
  if (intercept != 0.0) {
    for (size_t i = 0; i < scores.rows(); ++i) scores.At(i, 0) += intercept;
  }
  return scores;
}

Result<DenseMatrix> GlmModel::Predict(const DenseMatrix& x) const {
  DMML_ASSIGN_OR_RETURN(DenseMatrix scores, DecisionFunction(x));
  if (family == GlmFamily::kGaussian) return scores;
  for (size_t i = 0; i < scores.rows(); ++i) {
    scores.At(i, 0) = GlmInverseLink(scores.At(i, 0), family);
  }
  return scores;
}

Result<DenseMatrix> GlmModel::PredictLabels(const DenseMatrix& x,
                                            double threshold) const {
  if (family != GlmFamily::kBinomial) {
    return Status::FailedPrecondition("PredictLabels requires the Binomial family");
  }
  DMML_ASSIGN_OR_RETURN(DenseMatrix probs, Predict(x));
  for (size_t i = 0; i < probs.rows(); ++i) {
    probs.At(i, 0) = probs.At(i, 0) >= threshold ? 1.0 : 0.0;
  }
  return probs;
}

Result<double> GlmLoss(const DenseMatrix& x, const DenseMatrix& y,
                       const DenseMatrix& w, double intercept, GlmFamily family,
                       double l2) {
  if (x.rows() != y.rows() || y.cols() != 1 || x.cols() != w.rows() ||
      w.cols() != 1) {
    return Status::InvalidArgument("GlmLoss: shape mismatch");
  }
  const size_t n = x.rows();
  if (n == 0) return Status::InvalidArgument("GlmLoss: empty data");
  DenseMatrix scores = la::Gemv(x, w);
  double loss_sum = 0, resid_sum = 0;
  la::GlmResidualsInto(scores, &intercept, y.data(), family, &scores, &loss_sum,
                       &resid_sum);
  double loss = loss_sum / static_cast<double>(n);
  if (l2 > 0) {
    double w2 = 0;
    for (size_t j = 0; j < w.rows(); ++j) w2 += w.At(j, 0) * w.At(j, 0);
    loss += 0.5 * l2 * w2;
  }
  return loss;
}

namespace {

// Residual of one example under the family: dLoss/dScore.
inline double ScoreGradient(double score, double y, GlmFamily family) {
  return GlmInverseLink(score, family) - y;
}

// Observes one epoch's wall time into ml.glm.epoch_us on scope exit, so
// convergence breaks still record the final (partial) epoch.
class EpochScope {
 public:
  EpochScope() : start_(obs::NowMicros()) {}
  ~EpochScope() {
    DMML_HISTOGRAM_OBSERVE("ml.glm.epoch_us", obs::ExponentialBuckets(32, 4, 10),
                           static_cast<double>(obs::NowMicros() - start_));
  }
  EpochScope(const EpochScope&) = delete;
  EpochScope& operator=(const EpochScope&) = delete;

 private:
  uint64_t start_;
};

// Serial SGD / mini-batch SGD (batch = 1 for plain SGD).
void RunSgd(const DenseMatrix& x, const DenseMatrix& y, const GlmConfig& config,
            size_t batch_size, GlmModel* model) {
  const size_t n = x.rows(), d = x.cols();
  Rng rng(config.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  DenseMatrix grad(d, 1);
  double prev_loss = std::numeric_limits<double>::infinity();

  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    EpochScope epoch_scope;
    rng.Shuffle(&order);
    double lr = config.learning_rate / (1.0 + config.lr_decay * static_cast<double>(epoch));
    for (size_t start = 0; start < n; start += batch_size) {
      size_t end = std::min(start + batch_size, n);
      grad.Fill(0.0);
      double bias_grad = 0.0;
      for (size_t k = start; k < end; ++k) {
        size_t i = order[k];
        double score = la::Dot(x.Row(i), model->weights.data(), d) + model->intercept;
        double g = ScoreGradient(score, y.At(i, 0), config.family);
        la::Axpy(g, x.Row(i), grad.data(), d);
        bias_grad += g;
      }
      double inv_b = 1.0 / static_cast<double>(end - start);
      for (size_t j = 0; j < d; ++j) {
        double gj = grad.At(j, 0) * inv_b + config.l2 * model->weights.At(j, 0);
        model->weights.At(j, 0) -= lr * gj;
      }
      if (config.fit_intercept) model->intercept -= lr * bias_grad * inv_b;
    }
    double loss = *GlmLoss(x, y, model->weights, model->intercept, config.family,
                           config.l2);
    model->loss_history.push_back(loss);
    model->epochs_run = epoch + 1;
    if (std::isfinite(prev_loss) &&
        std::fabs(prev_loss - loss) <= config.tolerance * std::max(1.0, prev_loss)) {
      break;
    }
    prev_loss = loss;
  }
}

// Mini-batch SGD with per-coordinate adaptive step sizes (Adagrad or Adam).
void RunAdaptive(const DenseMatrix& x, const DenseMatrix& y, const GlmConfig& config,
                 bool adam, GlmModel* model) {
  const size_t n = x.rows(), d = x.cols();
  const size_t batch_size = std::max<size_t>(1, config.batch_size);
  Rng rng(config.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  DenseMatrix grad(d, 1);

  // Accumulators: Adagrad uses g2 only; Adam uses m (first) and g2 (second).
  std::vector<double> m(d + 1, 0.0);
  std::vector<double> g2(d + 1, 0.0);
  size_t step = 0;
  double prev_loss = std::numeric_limits<double>::infinity();

  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    EpochScope epoch_scope;
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += batch_size) {
      size_t end = std::min(start + batch_size, n);
      grad.Fill(0.0);
      double bias_grad = 0.0;
      for (size_t k = start; k < end; ++k) {
        size_t i = order[k];
        double score = la::Dot(x.Row(i), model->weights.data(), d) + model->intercept;
        double g = ScoreGradient(score, y.At(i, 0), config.family);
        la::Axpy(g, x.Row(i), grad.data(), d);
        bias_grad += g;
      }
      double inv_b = 1.0 / static_cast<double>(end - start);
      ++step;
      auto update = [&](size_t j, double gj, double* param) {
        if (adam) {
          m[j] = config.adam_beta1 * m[j] + (1 - config.adam_beta1) * gj;
          g2[j] = config.adam_beta2 * g2[j] + (1 - config.adam_beta2) * gj * gj;
          double m_hat =
              m[j] / (1 - std::pow(config.adam_beta1, static_cast<double>(step)));
          double v_hat =
              g2[j] / (1 - std::pow(config.adam_beta2, static_cast<double>(step)));
          *param -= config.learning_rate * m_hat /
                    (std::sqrt(v_hat) + config.adaptive_eps);
        } else {
          g2[j] += gj * gj;
          *param -=
              config.learning_rate * gj / (std::sqrt(g2[j]) + config.adaptive_eps);
        }
      };
      for (size_t j = 0; j < d; ++j) {
        double gj = grad.At(j, 0) * inv_b + config.l2 * model->weights.At(j, 0);
        update(j, gj, &model->weights.At(j, 0));
      }
      if (config.fit_intercept) update(d, bias_grad * inv_b, &model->intercept);
    }
    double loss = *GlmLoss(x, y, model->weights, model->intercept, config.family,
                           config.l2);
    model->loss_history.push_back(loss);
    model->epochs_run = epoch + 1;
    if (std::isfinite(prev_loss) &&
        std::fabs(prev_loss - loss) <= config.tolerance * std::max(1.0, prev_loss)) {
      break;
    }
    prev_loss = loss;
  }
}

// Hogwild-style lock-free parallel SGD: each worker samples examples and
// applies unsynchronized updates to the shared weight vector. Races are
// benign for sparse-conflict workloads (Niu et al., NIPS'11).
void RunHogwild(const DenseMatrix& x, const DenseMatrix& y, const GlmConfig& config,
                ThreadPool* pool, GlmModel* model) {
  const size_t n = x.rows(), d = x.cols();
  size_t num_threads = std::max<size_t>(1, config.num_threads);
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr && num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(num_threads);
    pool = local_pool.get();
  }

  // Shared parameters; updates are intentionally unsynchronized.
  std::vector<double> w(d, 0.0);
  std::atomic<double> intercept{0.0};

  double prev_loss = std::numeric_limits<double>::infinity();
  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    EpochScope epoch_scope;
    double lr = config.learning_rate / (1.0 + config.lr_decay * static_cast<double>(epoch));
    auto worker = [&](size_t tid, size_t begin, size_t end) {
      Rng rng(config.seed + epoch * 1315423911ULL + tid);
      size_t steps = end - begin;
      for (size_t s = 0; s < steps; ++s) {
        size_t i = rng.UniformInt(static_cast<uint64_t>(n));
        double b = intercept.load(std::memory_order_relaxed);
        const double* xi = x.Row(i);
        // All shared-weight accesses go through relaxed atomic_ref: no
        // ordering, no locks (plain loads/stores on x86), but no torn
        // values and no formal data race — the Hogwild contract.
        double score = b;
        for (size_t j = 0; j < d; ++j) {
          score +=
              xi[j] * std::atomic_ref<double>(w[j]).load(std::memory_order_relaxed);
        }
        double g = ScoreGradient(score, y.At(i, 0), config.family);
        for (size_t j = 0; j < d; ++j) {
          std::atomic_ref<double> wj(w[j]);
          double cur = wj.load(std::memory_order_relaxed);
          wj.store(cur - lr * (g * xi[j] + config.l2 * cur),
                   std::memory_order_relaxed);
        }
        if (config.fit_intercept) {
          intercept.store(b - lr * g, std::memory_order_relaxed);
        }
      }
    };

    if (pool == nullptr || num_threads <= 1) {
      worker(0, 0, n);
    } else {
      std::vector<std::future<void>> futures;
      size_t chunk = (n + num_threads - 1) / num_threads;
      for (size_t t = 0; t < num_threads; ++t) {
        size_t begin = t * chunk, end = std::min(begin + chunk, n);
        if (begin >= end) break;
        futures.push_back(pool->Submit([&, t, begin, end] { worker(t, begin, end); }));
      }
      for (auto& f : futures) f.get();
    }

    for (size_t j = 0; j < d; ++j) model->weights.At(j, 0) = w[j];
    model->intercept = intercept.load();
    double loss = *GlmLoss(x, y, model->weights, model->intercept, config.family,
                           config.l2);
    model->loss_history.push_back(loss);
    model->epochs_run = epoch + 1;
    if (std::isfinite(prev_loss) &&
        std::fabs(prev_loss - loss) <= config.tolerance * std::max(1.0, prev_loss)) {
      break;
    }
    prev_loss = loss;
  }
}

}  // namespace

Result<GlmModel> TrainGlm(const DenseMatrix& x, const DenseMatrix& y,
                          const GlmConfig& config, ThreadPool* pool) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("TrainGlm: empty design matrix");
  }
  if (y.rows() != x.rows() || y.cols() != 1) {
    return Status::InvalidArgument("TrainGlm: y must be n x 1 matching x");
  }
  if (config.family == GlmFamily::kBinomial) {
    for (size_t i = 0; i < y.rows(); ++i) {
      double v = y.At(i, 0);
      if (v != 0.0 && v != 1.0) {
        return Status::InvalidArgument("Binomial family requires 0/1 labels");
      }
    }
  }
  if (config.solver == GlmSolver::kNormalEquations &&
      config.family != GlmFamily::kGaussian) {
    return Status::InvalidArgument("normal equations require the Gaussian family");
  }
  if (config.learning_rate <= 0 && config.solver != GlmSolver::kNormalEquations) {
    return Status::InvalidArgument("learning_rate must be positive");
  }

  GlmModel model;
  model.family = config.family;
  model.weights = DenseMatrix(x.cols(), 1);

  DMML_TRACE_SPAN("ml.glm.train");
  switch (config.solver) {
    case GlmSolver::kBatchGd:
      return TrainGlmOnOperand(BorrowOperand(x), y, config, pool);
    case GlmSolver::kSgd:
      RunSgd(x, y, config, 1, &model);
      break;
    case GlmSolver::kMiniBatchSgd:
      RunSgd(x, y, config, std::max<size_t>(1, config.batch_size), &model);
      break;
    case GlmSolver::kHogwild:
      RunHogwild(x, y, config, pool, &model);
      break;
    case GlmSolver::kNormalEquations:
      DMML_RETURN_IF_ERROR(RunNormalEquationsOnOperand(BorrowOperand(x), y,
                                                       config, pool, &model));
      break;
    case GlmSolver::kAdagrad:
      RunAdaptive(x, y, config, /*adam=*/false, &model);
      break;
    case GlmSolver::kAdam:
      RunAdaptive(x, y, config, /*adam=*/true, &model);
      break;
  }
  return model;
}

}  // namespace dmml::ml
