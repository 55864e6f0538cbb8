// Representation-polymorphic execution: one laopt program over dense, CSR
// sparse, CLA-compressed and factorized operands.
//
//  * The same program source (and the same compiled plan) must produce the
//    same values under every leaf representation, while dispatching to the
//    representation's native kernels (laopt.repr.* counters).
//  * One engine, four bindings: batch-gradient GLM, the normal equations
//    and Lloyd's k-means (ml/unified_trainers.h) over dense, CSR, CLA and
//    factorized views of one star join must match the dense binding, batch
//    GD must also match a per-row reference loop, no binding may densify,
//    and every binding reports the trainer step histograms. A cross-
//    validated rung and its window scoring must match the dense binding
//    without densifying either.
//  * BufferedExecutor::Bind rebinding — different data, different shape,
//    different representation — must never surface stale buffer contents.
//  * EvalExpression threads the caller's pool through to the kernels
//    (regression: it used to drop the pool on the floor).
//
// This suite is the sanitizer target for representation dispatch: it must
// stay green under -DDMML_SANITIZE=thread and address,undefined, with and
// without DMML_INTER_NODE=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "la/kernels.h"
#include "laopt/analysis.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/parser.h"
#include "laopt/verify.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "modelsel/shared_scan.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dmml::laopt {
namespace {

using cla::CompressedMatrix;
using la::DenseMatrix;
using la::SparseMatrix;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

// Low-cardinality design matrix with ~60% zeros: compresses well, sparse
// enough for CSR to matter, and exactly representable in all three forms.
DenseMatrix MixedReprDesign(size_t n, size_t d, uint64_t seed) {
  DenseMatrix x = data::LowCardinalityMatrix(n, d, 4, /*run_sorted=*/false, seed);
  Rng rng(seed + 99);
  for (size_t i = 0; i < x.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < 0.6) x.data()[i] = 0.0;
  }
  return x;
}

SparseMatrix ToCsr(const DenseMatrix& x) {
  std::vector<la::Triplet> triplets;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      if (x.At(r, c) != 0.0) triplets.push_back({r, c, x.At(r, c)});
    }
  }
  return SparseMatrix::FromTriplets(x.rows(), x.cols(), triplets);
}

class ReprParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dense_ = std::make_shared<DenseMatrix>(MixedReprDesign(120, 6, 5));
    sparse_ = std::make_shared<SparseMatrix>(ToCsr(*dense_));
    compressed_ =
        std::make_shared<CompressedMatrix>(CompressedMatrix::Compress(*dense_));
    y_ = std::make_shared<DenseMatrix>(data::GaussianMatrix(120, 1, 6));
    w_ = std::make_shared<DenseMatrix>(data::GaussianMatrix(6, 1, 7));
  }

  Environment EnvWith(Operand x) const {
    return {{"X", std::move(x)}, {"y", y_}, {"w", w_}};
  }

  std::shared_ptr<DenseMatrix> dense_;
  std::shared_ptr<SparseMatrix> sparse_;
  std::shared_ptr<CompressedMatrix> compressed_;
  std::shared_ptr<DenseMatrix> y_, w_;
};

TEST_F(ReprParityTest, SameProgramSourceUnderAllThreeBindings) {
  // The normal-equations products plus the reductions, one source each. The
  // program text never changes; only the environment binding does.
  const std::vector<std::string> programs = {
      "t(X) %*% X",  "t(X) %*% y",      "X %*% w",     "colSums(X)",
      "rowSums(X)",  "sum(X)",          "t(X) %*% (X %*% w)",
  };
  for (const std::string& src : programs) {
    auto dense_result = EvalExpression(src, EnvWith(dense_));
    ASSERT_TRUE(dense_result.ok()) << src << ": " << dense_result.status().message();

    const uint64_t sparse_before = CounterValue("laopt.repr.sparse_ops");
    auto sparse_result = EvalExpression(src, EnvWith(sparse_));
    ASSERT_TRUE(sparse_result.ok()) << src;
    EXPECT_GT(CounterValue("laopt.repr.sparse_ops"), sparse_before)
        << src << ": sparse binding must dispatch at least one sparse kernel";

    const uint64_t compressed_before = CounterValue("laopt.repr.compressed_ops");
    auto compressed_result = EvalExpression(src, EnvWith(compressed_));
    ASSERT_TRUE(compressed_result.ok()) << src;
    EXPECT_GT(CounterValue("laopt.repr.compressed_ops"), compressed_before)
        << src << ": compressed binding must dispatch at least one compressed kernel";

    EXPECT_LE(MaxAbsDiff(*sparse_result, *dense_result), 1e-9) << src;
    EXPECT_LE(MaxAbsDiff(*compressed_result, *dense_result), 1e-9) << src;
  }
}

TEST_F(ReprParityTest, ElementwiseOpsDensifyWithFallbackCounter) {
  const uint64_t before = CounterValue("laopt.repr.densify_fallbacks");
  auto sparse_result = EvalExpression("X + X", EnvWith(sparse_));
  ASSERT_TRUE(sparse_result.ok());
  EXPECT_GT(CounterValue("laopt.repr.densify_fallbacks"), before)
      << "sparse operand of a dense-only op must be densified (and counted)";
  auto dense_result = EvalExpression("X + X", EnvWith(dense_));
  ASSERT_TRUE(dense_result.ok());
  EXPECT_LE(MaxAbsDiff(*sparse_result, *dense_result), 1e-12);
}

TEST_F(ReprParityTest, ExplainShowsRepresentationChoices) {
  auto sparse_plan = ParseExpression("t(X) %*% y", EnvWith(sparse_));
  ASSERT_TRUE(sparse_plan.ok());
  DagAnalysis analysis;
  std::string dump = analysis.Explain(*sparse_plan);
  EXPECT_NE(dump.find("repr sparse"), std::string::npos) << dump;

  auto compressed_plan = ParseExpression("X %*% w", EnvWith(compressed_));
  ASSERT_TRUE(compressed_plan.ok());
  DagAnalysis canalysis;
  std::string cdump = canalysis.Explain(*compressed_plan);
  EXPECT_NE(cdump.find("repr compressed"), std::string::npos) << cdump;
  EXPECT_NE(cdump.find("repr dense"), std::string::npos) << cdump;
}

// --------------------------------------------------------------------------
// One engine, four bindings
// --------------------------------------------------------------------------

enum class Binding { kDense, kCsr, kCompressed, kFactorized };

std::string BindingName(const ::testing::TestParamInfo<Binding>& info) {
  switch (info.param) {
    case Binding::kDense:
      return "Dense";
    case Binding::kCsr:
      return "Csr";
    case Binding::kCompressed:
      return "Compressed";
    case Binding::kFactorized:
      return "Factorized";
  }
  return "Unknown";
}

// A star join T = [XS | XR[fk]] with continuous entity features (no two
// rows tie in distance), low-cardinality attribute features (they
// compress), and about half of all cells zero (the CSR view is sparse).
struct StarJoin {
  std::shared_ptr<const factorized::NormalizedMatrix> normalized;
  std::shared_ptr<const DenseMatrix> dense;  // The materialized join.
  DenseMatrix y_gaussian;
  DenseMatrix y_binomial;
};

StarJoin MakeStarJoin() {
  const size_t ns = 240, nr = 12, ds = 3, dr = 5;
  Rng rng(71);
  DenseMatrix xs(ns, ds);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs.data()[i] = rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.Normal();
  }
  DenseMatrix xr = data::LowCardinalityMatrix(nr, dr, 3, /*run_sorted=*/false, 72);
  for (size_t i = 0; i < xr.size(); ++i) {
    xr.data()[i] = rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : xr.data()[i] / 100.0;
  }
  std::vector<uint32_t> fk(ns);
  for (auto& key : fk) key = static_cast<uint32_t>(rng.UniformInt(uint64_t{nr}));
  auto nm = factorized::NormalizedMatrix::Make(std::move(xs), {{std::move(xr), fk}});
  EXPECT_TRUE(nm.ok());

  StarJoin join;
  join.normalized =
      std::make_shared<const factorized::NormalizedMatrix>(std::move(nm).ValueOrDie());
  join.dense = std::make_shared<const DenseMatrix>(join.normalized->Materialize());
  const DenseMatrix scores = la::Gemv(*join.dense, data::GaussianMatrix(ds + dr, 1, 73));
  join.y_gaussian = DenseMatrix(ns, 1);
  join.y_binomial = DenseMatrix(ns, 1);
  for (size_t i = 0; i < ns; ++i) {
    join.y_gaussian.At(i, 0) = scores.At(i, 0) + 0.1 * rng.Normal();
    join.y_binomial.At(i, 0) = scores.At(i, 0) > 0 ? 1.0 : 0.0;
  }
  return join;
}

Operand Bind(const StarJoin& join, Binding binding) {
  switch (binding) {
    case Binding::kDense:
      return Operand(join.dense);
    case Binding::kCsr:
      return Operand(std::make_shared<const SparseMatrix>(ToCsr(*join.dense)));
    case Binding::kCompressed:
      return Operand(std::make_shared<const CompressedMatrix>(
          CompressedMatrix::Compress(*join.dense)));
    case Binding::kFactorized:
      return factorized::MakeFactorizedOperand(join.normalized);
  }
  return Operand();
}

// Per-row batch gradient descent: row dot products and axpys instead of
// executor products, kept as a reference independent of the executor.
// Runs every epoch (no tolerance stop). loss_history[e] is the loss at the
// weights epoch e starts from, the operand trainer's convention.
ml::GlmModel ReferenceBatchGd(const DenseMatrix& x, const DenseMatrix& y,
                              const ml::GlmConfig& config) {
  const size_t n = x.rows(), d = x.cols();
  ml::GlmModel model;
  model.family = config.family;
  model.weights = DenseMatrix(d, 1);
  DenseMatrix grad(d, 1);
  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    model.loss_history.push_back(*ml::GlmLoss(x, y, model.weights, model.intercept,
                                              config.family, config.l2));
    grad.Fill(0.0);
    double bias_grad = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double score = la::Dot(x.Row(i), model.weights.data(), d) + model.intercept;
      double g = ml::GlmInverseLink(score, config.family) - y.At(i, 0);
      la::Axpy(g, x.Row(i), grad.data(), d);
      bias_grad += g;
    }
    double inv_n = 1.0 / static_cast<double>(n);
    double lr = config.learning_rate /
                (1.0 + config.lr_decay * static_cast<double>(epoch));
    for (size_t j = 0; j < d; ++j) {
      double gj = grad.At(j, 0) * inv_n + config.l2 * model.weights.At(j, 0);
      model.weights.At(j, 0) -= lr * gj;
    }
    if (config.fit_intercept) model.intercept -= lr * bias_grad * inv_n;
    model.epochs_run = epoch + 1;
  }
  return model;
}

void ExpectSameGlm(const ml::GlmModel& a, const ml::GlmModel& b) {
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_LE(MaxAbsDiff(a.weights, b.weights), 1e-9);
  EXPECT_NEAR(a.intercept, b.intercept, 1e-9);
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
  for (size_t e = 0; e < a.loss_history.size(); ++e) {
    EXPECT_NEAR(a.loss_history[e], b.loss_history[e], 1e-9) << "epoch " << e;
  }
}

class OneEngineParityTest : public ::testing::TestWithParam<Binding> {
 protected:
  void SetUp() override {
    join_ = MakeStarJoin();
    x_ = Bind(join_, GetParam());
    dense_x_ = Operand(join_.dense);
  }

  StarJoin join_;
  Operand x_;
  Operand dense_x_;
  ThreadPool pool_{3};
};

TEST_P(OneEngineParityTest, BatchGdMatchesDenseBindingAndPerRowReference) {
  for (ml::GlmFamily family : {ml::GlmFamily::kGaussian, ml::GlmFamily::kBinomial}) {
    for (bool intercept : {true, false}) {
      for (double l2 : {0.0, 0.05}) {
        ml::GlmConfig config;
        config.family = family;
        config.fit_intercept = intercept;
        config.l2 = l2;
        config.learning_rate = family == ml::GlmFamily::kGaussian ? 0.1 : 0.5;
        config.max_epochs = 25;
        config.tolerance = 0;
        const DenseMatrix& y = family == ml::GlmFamily::kGaussian ? join_.y_gaussian
                                                                  : join_.y_binomial;
        SCOPED_TRACE(std::string(family == ml::GlmFamily::kGaussian ? "gaussian"
                                                                    : "binomial") +
                     (intercept ? " intercept" : " no-intercept") + " l2=" +
                     std::to_string(l2));
        auto bound = ml::TrainGlmOnOperand(x_, y, config, &pool_);
        auto dense = ml::TrainGlmOnOperand(dense_x_, y, config, &pool_);
        ASSERT_TRUE(bound.ok()) << bound.status().message();
        ASSERT_TRUE(dense.ok()) << dense.status().message();
        EXPECT_EQ(bound->epochs_run, config.max_epochs);
        ExpectSameGlm(*bound, *dense);
        ExpectSameGlm(*bound, ReferenceBatchGd(*join_.dense, y, config));
        if (!intercept) {
          EXPECT_EQ(bound->intercept, 0.0);
        }
      }
    }
  }
}

TEST_P(OneEngineParityTest, NormalEquationsMatchDenseBinding) {
  for (bool intercept : {true, false}) {
    for (double l2 : {0.0, 0.5}) {
      ml::GlmConfig config;
      config.solver = ml::GlmSolver::kNormalEquations;
      config.fit_intercept = intercept;
      config.l2 = l2;
      SCOPED_TRACE(std::string(intercept ? "intercept" : "no-intercept") +
                   " l2=" + std::to_string(l2));
      ml::GlmModel bound, dense;
      Status bound_st = ml::RunNormalEquationsOnOperand(x_, join_.y_gaussian, config,
                                                        &pool_, &bound);
      Status dense_st = ml::RunNormalEquationsOnOperand(dense_x_, join_.y_gaussian,
                                                        config, &pool_, &dense);
      ASSERT_TRUE(bound_st.ok()) << bound_st.message();
      ASSERT_TRUE(dense_st.ok()) << dense_st.message();
      ExpectSameGlm(bound, dense);
    }
  }
}

TEST_P(OneEngineParityTest, KMeansMatchesDenseBinding) {
  ml::KMeansConfig config;
  config.k = 4;
  config.max_iters = 20;
  config.seed = 11;
  auto bound = ml::TrainKMeansOnOperand(x_, config, &pool_);
  auto dense = ml::TrainKMeansOnOperand(dense_x_, config, &pool_);
  ASSERT_TRUE(bound.ok()) << bound.status().message();
  ASSERT_TRUE(dense.ok()) << dense.status().message();
  EXPECT_EQ(bound->labels, dense->labels);
  EXPECT_LE(MaxAbsDiff(bound->centers, dense->centers), 1e-9);
  EXPECT_NEAR(bound->inertia, dense->inertia, 1e-9 * std::max(1.0, dense->inertia));
  EXPECT_EQ(bound->iters_run, dense->iters_run);
  ASSERT_EQ(bound->inertia_history.size(), dense->inertia_history.size());
  for (size_t t = 0; t < dense->inertia_history.size(); ++t) {
    EXPECT_NEAR(bound->inertia_history[t], dense->inertia_history[t],
                1e-9 * std::max(1.0, dense->inertia_history[t]));
  }
}

TEST_P(OneEngineParityTest, KMeansLabelsAndInertiaDescribeReturnedCenters) {
  // Two iterations cannot converge here, so the last update still moves the
  // centers; labels from that iteration's assignment would be stale.
  ml::KMeansConfig config;
  config.k = 8;
  config.max_iters = 2;
  config.tolerance = 0;
  config.seed = 3;
  auto model = ml::TrainKMeansOnOperand(x_, config, &pool_);
  ASSERT_TRUE(model.ok()) << model.status().message();
  ASSERT_EQ(model->iters_run, 2u);
  auto predicted = model->Predict(*join_.dense);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(*predicted, model->labels);
  const double recomputed =
      ml::KMeansInertia(*join_.dense, model->centers, model->labels);
  EXPECT_NEAR(model->inertia, recomputed, 1e-9 * std::max(1.0, recomputed));
}

TEST_P(OneEngineParityTest, TrainersNeverDensifyAndObserveStepHistograms) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Histogram* epoch_us =
      registry.GetHistogram("ml.glm.epoch_us", obs::ExponentialBuckets(32, 4, 10));
  obs::Histogram* iter_us =
      registry.GetHistogram("ml.kmeans.iter_us", obs::ExponentialBuckets(32, 4, 10));
  const uint64_t fallbacks = CounterValue("laopt.repr.densify_fallbacks");
  const uint64_t epochs_before = epoch_us->TotalCount();
  const uint64_t iters_before = iter_us->TotalCount();

  ml::GlmConfig glm_config;
  glm_config.family = ml::GlmFamily::kBinomial;
  glm_config.max_epochs = 12;
  auto glm = ml::TrainGlmOnOperand(x_, join_.y_binomial, glm_config, &pool_);
  ASSERT_TRUE(glm.ok()) << glm.status().message();
  EXPECT_EQ(epoch_us->TotalCount() - epochs_before, glm->epochs_run);

  ml::KMeansConfig kmeans_config;
  kmeans_config.k = 5;
  kmeans_config.max_iters = 7;
  auto kmeans = ml::TrainKMeansOnOperand(x_, kmeans_config, &pool_);
  ASSERT_TRUE(kmeans.ok()) << kmeans.status().message();
  EXPECT_EQ(iter_us->TotalCount() - iters_before, kmeans->iters_run);

  EXPECT_EQ(CounterValue("laopt.repr.densify_fallbacks"), fallbacks)
      << "batch GD and k-means must run on the binding's native kernels";
}

TEST_P(OneEngineParityTest, CrossValidatedRungMatchesDenseBindingWithoutDensifying) {
  // A 3-fold, 3-config rung: the middle fold trains through two windows of
  // X, the outer folds through one, and each fold scores on its held-out
  // window. Every binding runs its own windowed kernels — a factorized X
  // slices the fact rows and keys, never materializing a window.
  const size_t n = join_.dense->rows();
  const std::vector<modelsel::FoldRange> folds = {
      {0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}};
  for (ml::GlmFamily family : {ml::GlmFamily::kGaussian, ml::GlmFamily::kBinomial}) {
    const bool gaussian = family == ml::GlmFamily::kGaussian;
    SCOPED_TRACE(gaussian ? "gaussian" : "binomial");
    std::vector<ml::GlmConfig> configs(3);
    for (size_t c = 0; c < configs.size(); ++c) {
      configs[c].family = family;
      configs[c].learning_rate = (gaussian ? 0.05 : 0.25) * static_cast<double>(c + 1);
      configs[c].l2 = 0.02 * static_cast<double>(c);
      configs[c].max_epochs = 15;
      configs[c].tolerance = 0;
    }
    const DenseMatrix& y = gaussian ? join_.y_gaussian : join_.y_binomial;
    const modelsel::FoldMetric metric =
        gaussian ? modelsel::FoldMetric::kNegRmse : modelsel::FoldMetric::kNegLogLoss;

    const uint64_t fallbacks = CounterValue("laopt.repr.densify_fallbacks");
    auto bound = modelsel::SharedScanTrain(x_, y, folds, configs, &pool_);
    ASSERT_TRUE(bound.ok()) << bound.status().message();
    std::vector<std::vector<double>> bound_scores;
    for (size_t f = 0; f < folds.size(); ++f) {
      auto scores = modelsel::ScoreConfigsOnWindow(
          x_, y, folds[f].begin, folds[f].end, bound->folds[f].weights,
          bound->folds[f].intercepts, family, metric, &pool_);
      ASSERT_TRUE(scores.ok()) << scores.status().message();
      bound_scores.push_back(*scores);
    }
    EXPECT_EQ(CounterValue("laopt.repr.densify_fallbacks"), fallbacks)
        << "the rung and its scoring must run on the binding's native kernels";

    auto dense = modelsel::SharedScanTrain(dense_x_, y, folds, configs, &pool_);
    ASSERT_TRUE(dense.ok()) << dense.status().message();
    EXPECT_EQ(bound->epochs_run, dense->epochs_run);
    for (size_t f = 0; f < folds.size(); ++f) {
      SCOPED_TRACE("fold " + std::to_string(f));
      const modelsel::SharedScanFold& b = bound->folds[f];
      const modelsel::SharedScanFold& d = dense->folds[f];
      EXPECT_LE(MaxAbsDiff(b.weights, d.weights), 1e-9);
      auto scores = modelsel::ScoreConfigsOnWindow(
          dense_x_, y, folds[f].begin, folds[f].end, d.weights, d.intercepts,
          family, metric, &pool_);
      ASSERT_TRUE(scores.ok()) << scores.status().message();
      for (size_t c = 0; c < configs.size(); ++c) {
        EXPECT_NEAR(b.intercepts[c], d.intercepts[c], 1e-9) << "config " << c;
        EXPECT_NEAR(bound_scores[f][c], (*scores)[c], 1e-9) << "config " << c;
        ASSERT_EQ(b.loss_histories[c].size(), d.loss_histories[c].size());
        for (size_t e = 0; e < d.loss_histories[c].size(); ++e) {
          EXPECT_NEAR(b.loss_histories[c][e], d.loss_histories[c][e], 1e-9)
              << "config " << c << " epoch " << e;
        }
      }
    }
  }
}

TEST_P(OneEngineParityTest, FourFoldStatisticsRungMatchesPerRowReference) {
  // A 4-fold, 32-config Gaussian rung that the route rule sends to the
  // statistics route: each (fold, config) column must match the per-row
  // loop over a gathered copy of the fold's training rows, on every binding.
  const size_t n = join_.dense->rows(), q = n / 4;
  const std::vector<modelsel::FoldRange> folds = {
      {0, q}, {q, 2 * q}, {2 * q, 3 * q}, {3 * q, n}};
  std::vector<ml::GlmConfig> configs;
  for (double lr : {0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16}) {
    for (double l2 : {0.0, 1e-3, 1e-2, 1e-1}) {
      ml::GlmConfig c;
      c.learning_rate = lr;
      c.l2 = l2;
      c.max_epochs = 12;
      c.tolerance = 0;
      configs.push_back(c);
    }
  }
  ASSERT_EQ(ml::ChooseBatchGdRoute(x_, folds, configs).route,
            ml::BatchGdRoute::kStatistics);
  const uint64_t fallbacks = CounterValue("laopt.repr.densify_fallbacks");
  auto rung = modelsel::SharedScanTrain(x_, join_.y_gaussian, folds, configs, &pool_);
  ASSERT_TRUE(rung.ok()) << rung.status().message();
  EXPECT_EQ(rung->route.route, ml::BatchGdRoute::kStatistics);
  EXPECT_EQ(CounterValue("laopt.repr.densify_fallbacks"), fallbacks);

  auto near = [](double got, double want) {
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  };
  for (size_t f = 0; f < folds.size(); ++f) {
    SCOPED_TRACE("fold " + std::to_string(f));
    std::vector<size_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (i < folds[f].begin || i >= folds[f].end) rows.push_back(i);
    }
    DenseMatrix xt(rows.size(), join_.dense->cols()), yt(rows.size(), 1);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::copy(join_.dense->Row(rows[i]), join_.dense->Row(rows[i]) + xt.cols(),
                xt.Row(i));
      yt.At(i, 0) = join_.y_gaussian.At(rows[i], 0);
    }
    const modelsel::SharedScanFold& fold = rung->folds[f];
    for (size_t c = 0; c < configs.size(); ++c) {
      SCOPED_TRACE("config " + std::to_string(c));
      const ml::GlmModel ref = ReferenceBatchGd(xt, yt, configs[c]);
      EXPECT_EQ(fold.epochs_run[c], ref.epochs_run);
      for (size_t j = 0; j < xt.cols(); ++j) {
        EXPECT_PRED2(near, fold.weights.At(j, c), ref.weights.At(j, 0)) << "weight " << j;
      }
      EXPECT_PRED2(near, fold.intercepts[c], ref.intercept);
      ASSERT_EQ(fold.loss_histories[c].size(), ref.loss_history.size());
      for (size_t e = 0; e < ref.loss_history.size(); ++e) {
        EXPECT_PRED2(near, fold.loss_histories[c][e], ref.loss_history[e])
            << "epoch " << e;
      }
    }
  }
}

TEST_P(OneEngineParityTest, GramsRunTheBindingsOwnKernelWithoutDensifying) {
  // t(X[b:e)) %*% X[b:e) and the unsliced t(X) %*% X: every binding runs its
  // own Gram, lint-quiet, with no densify fallback.
  const size_t n = join_.dense->rows();
  const std::pair<size_t, size_t> windows[] = {{17, 200}, {0, n}};
  for (const auto& [b, e] : windows) {
    SCOPED_TRACE("window [" + std::to_string(b) + ", " + std::to_string(e) + ")");
    const Operand x = b == 0 && e == n ? x_ : x_.Slice(b, e);
    auto leaf = ExprNode::InputOperand(x, "X");
    ASSERT_TRUE(leaf.ok());
    auto gram = ExprNode::MatMul(*ExprNode::Transpose(*leaf), *leaf);
    ASSERT_TRUE(gram.ok());
    EXPECT_TRUE(LintPlan(*gram).empty()) << RenderDiagnostics(LintPlan(*gram));
    BufferedExecutor executor(&pool_);
    ExecStats stats;
    auto out = executor.Run(*gram, &stats);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(stats.densify_fallbacks, 0u);
    EXPECT_TRUE((*out)->ApproxEquals(la::reference::Gram(join_.dense->SliceRows(b, e)),
                                     1e-12));
  }
}

TEST_P(OneEngineParityTest, ParsedGramRunsTheGramKernel) {
  // The parser gives both X occurrences of t(X) %*% X one leaf, so the
  // executor's Gram arm runs on every binding: no densify fallback, the
  // result within 1e-12 of the Gram the dense kernels computed before.
  const Environment env = {{"X", x_}};
  auto parsed = ParseExpression("t(X) %*% X", env);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const uint64_t grams = CounterValue("la.gram.calls");
  ExecStats stats;
  auto out = Execute(*parsed, &pool_, &stats);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(stats.densify_fallbacks, 0u);
  // Dense, CSR and the factorized entity block count la.gram.calls; CLA's
  // blockwise Gram is told apart by its zero fallbacks.
  if (GetParam() != Binding::kCompressed) {
    EXPECT_GT(CounterValue("la.gram.calls"), grams);
  }
  EXPECT_TRUE(out->ApproxEquals(la::TransposeMultiply(*join_.dense, *join_.dense), 1e-12));
}

TEST_P(OneEngineParityTest, NormalEquationsNeverDensify) {
  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  config.l2 = 0.1;
  const uint64_t fallbacks = CounterValue("laopt.repr.densify_fallbacks");
  ml::GlmModel model;
  Status st = ml::RunNormalEquationsOnOperand(x_, join_.y_gaussian, config, &pool_,
                                              &model);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(CounterValue("laopt.repr.densify_fallbacks"), fallbacks)
      << "XᵀX, Xᵀy, colSums(X) and X·w must all run natively";
}

INSTANTIATE_TEST_SUITE_P(Bindings, OneEngineParityTest,
                         ::testing::Values(Binding::kDense, Binding::kCsr,
                                           Binding::kCompressed, Binding::kFactorized),
                         BindingName);

TEST(BufferedExecutorBindTest, RebindAcrossShapesAndRepresentations) {
  // A shape-polymorphic plan: colSums over a leaf with unknown rows.
  auto leaf = *ExprNode::Placeholder(ExprNode::kUnknownDim, 4, "X");
  auto expr = *ExprNode::ColSums(leaf);
  BufferedExecutor executor;

  auto small = std::make_shared<DenseMatrix>(data::GaussianMatrix(10, 4, 21));
  auto big = std::make_shared<DenseMatrix>(data::GaussianMatrix(64, 4, 22));

  ASSERT_TRUE(executor.Bind(leaf, Operand(small)).ok());
  auto r1 = executor.Run(expr);
  ASSERT_TRUE(r1.ok());
  EXPECT_LE(MaxAbsDiff(**r1, la::ColumnSums(*small)), 1e-12);

  // Rebind to a different shape: buffers must be reshaped, not reused stale.
  ASSERT_TRUE(executor.Bind(leaf, Operand(big)).ok());
  auto r2 = executor.Run(expr);
  ASSERT_TRUE(r2.ok());
  EXPECT_LE(MaxAbsDiff(**r2, la::ColumnSums(*big)), 1e-12);

  // Rebind to a different representation (of partially-zeroed data).
  DenseMatrix zeroed = *big;
  for (size_t i = 0; i < zeroed.size(); i += 3) zeroed.data()[i] = 0.0;
  auto sparse = std::make_shared<SparseMatrix>(ToCsr(zeroed));
  ASSERT_TRUE(executor.Bind(leaf, Operand(sparse)).ok());
  auto r3 = executor.Run(expr);
  ASSERT_TRUE(r3.ok());
  EXPECT_LE(MaxAbsDiff(**r3, la::ColumnSums(sparse->ToDense())), 1e-12);

  // Steady state on a stable binding: repeated runs allocate nothing new.
  (void)executor.Run(expr);
  const uint64_t allocs = CounterValue("la.inplace.allocs");
  const uint64_t reuses = CounterValue("la.inplace.reuses");
  for (int i = 0; i < 4; ++i) {
    auto rerun = executor.Run(expr);
    ASSERT_TRUE(rerun.ok());
  }
  EXPECT_EQ(CounterValue("la.inplace.allocs"), allocs)
      << "repeated Run() on an unchanged binding must not allocate";
  EXPECT_GT(CounterValue("la.inplace.reuses"), reuses);
}

TEST(BufferedExecutorBindTest, BindValidatesLeafAndShape) {
  auto leaf = *ExprNode::Placeholder(8, 3, "X");
  auto expr = *ExprNode::ColSums(leaf);
  BufferedExecutor executor;
  auto m = std::make_shared<DenseMatrix>(8, 3);

  EXPECT_FALSE(executor.Bind(expr, Operand(m)).ok()) << "non-leaf bind";
  EXPECT_FALSE(executor.Bind(leaf, Operand()).ok()) << "unbound operand";
  auto wrong = std::make_shared<DenseMatrix>(9, 3);
  EXPECT_FALSE(executor.Bind(leaf, Operand(wrong)).ok()) << "shape mismatch";
  EXPECT_TRUE(executor.Bind(leaf, Operand(m)).ok());

  // An unbound placeholder without a Bind must fail, not crash.
  BufferedExecutor fresh;
  EXPECT_FALSE(fresh.Run(expr).ok());
}

TEST(ParserPoolRegressionTest, EvalExpressionRunsKernelsOnCallersPool) {
  // Regression: EvalExpression used to execute the optimized plan without
  // the pool, silently serializing every parsed program. A pooled Gram over
  // enough rows must go through the parallel partial-reduction path.
  auto x = std::make_shared<DenseMatrix>(data::GaussianMatrix(4096, 8, 31));
  Environment env = {{"X", x}};
  ThreadPool pool(4);

  const uint64_t serial_before = CounterValue("la.parallel.reductions");
  auto serial = EvalExpression("t(X) %*% X", env);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(CounterValue("la.parallel.reductions"), serial_before)
      << "no pool, no parallel reduction";

  const uint64_t pooled_before = CounterValue("la.parallel.reductions");
  auto pooled = EvalExpression("t(X) %*% X", env, &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_GT(CounterValue("la.parallel.reductions"), pooled_before)
      << "EvalExpression must thread the caller's pool to the kernels";
  EXPECT_LE(MaxAbsDiff(*pooled, *serial), 1e-9);
}

}  // namespace
}  // namespace dmml::laopt
