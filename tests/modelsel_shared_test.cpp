// Shared-scan model selection: one pass trains every config in the rung.
//
//  * A k-wide shared-scan epoch must be bit-equal per column to k separate
//    1-wide epochs over the same window on the dense path (the ranged
//    kernels' FP bracketing is width-independent by construction), and
//    within 1e-9 under the CSR and CLA-compressed bindings.
//  * Contiguous-fold training (two zero-copy row windows per fold) must
//    match training on a gathered copy of the same rows.
//  * Per-config lr / l2 / lr-decay heterogeneity stays column-local and
//    must not drift from the 1-wide path.
//  * Every column follows the single-model contract: loss_history[e] is the
//    loss at the weights epoch e started from, and each column stops on its
//    own tolerance, bit-equal to TrainGlmOnOperand run alone.
//  * The modelsel rung counters count SharedScanTrain calls, not single
//    fits on the same engine.
//  * Steady-state rung epochs are allocation-free; scans and reductions run
//    on the caller's pool.
//
// This suite is the sanitizer target for the shared-scan engine: it must
// stay green under -DDMML_SANITIZE=thread and address,undefined, with and
// without DMML_INTER_NODE=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "la/dense_matrix.h"
#include "la/kernels.h"
#include "la/sparse_matrix.h"
#include "laopt/operand.h"
#include "ml/glm.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"
#include "modelsel/shared_scan.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dmml::modelsel {
namespace {

using cla::CompressedMatrix;
using la::DenseMatrix;
using la::SparseMatrix;
using laopt::Operand;
using ml::GlmConfig;
using ml::GlmFamily;
using ml::GlmModel;

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

// Low-cardinality design with ~60% zeros: representable in all three
// physical forms and worth compressing.
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

// A heterogeneous rung: every config differs in learning rate, L2 and decay.
std::vector<GlmConfig> HeterogeneousRung(GlmFamily family, size_t epochs) {
  const double lrs[] = {0.1, 0.05, 0.2, 0.15};
  const double l2s[] = {0.0, 0.01, 0.1, 0.001};
  const double decays[] = {0.0, 0.1, 0.05, 0.2};
  std::vector<GlmConfig> configs(4);
  for (size_t c = 0; c < 4; ++c) {
    configs[c].family = family;
    configs[c].learning_rate = lrs[c];
    configs[c].l2 = l2s[c];
    configs[c].lr_decay = decays[c];
    configs[c].max_epochs = epochs;
    configs[c].fit_intercept = true;
    configs[c].tolerance = 0;
  }
  return configs;
}

TEST(SharedScanTest, KWideEpochBitEqualToOneWideEpochsOnDense) {
  DenseMatrix x = data::GaussianMatrix(96, 5, 11);
  DenseMatrix y = data::GaussianMatrix(96, 1, 12);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 6);

  auto shared = BatchedTrainGlm(x, y, configs);
  ASSERT_TRUE(shared.ok()) << shared.status().message();
  for (size_t c = 0; c < configs.size(); ++c) {
    auto seq = BatchedTrainGlm(x, y, {configs[c]});
    ASSERT_TRUE(seq.ok()) << seq.status().message();
    const GlmModel& wide = (*shared)[c];
    const GlmModel& narrow = (*seq)[0];
    ASSERT_EQ(wide.weights.rows(), narrow.weights.rows());
    for (size_t j = 0; j < wide.weights.rows(); ++j) {
      EXPECT_EQ(wide.weights.At(j, 0), narrow.weights.At(j, 0))
          << "config " << c << " weight " << j << " must be bit-equal";
    }
    EXPECT_EQ(wide.intercept, narrow.intercept) << "config " << c;
    ASSERT_EQ(wide.loss_history.size(), narrow.loss_history.size());
    for (size_t e = 0; e < wide.loss_history.size(); ++e) {
      EXPECT_EQ(wide.loss_history[e], narrow.loss_history[e])
          << "config " << c << " epoch " << e;
    }
  }
}

TEST(SharedScanTest, LossHistoryIsTheLossAtEachEpochsStartingWeights) {
  // Entry e of a long run is the loss (L2 term included) at the weights and
  // intercept an e-epoch run ends with — the GlmModel::loss_history
  // convention, for every column of a rung.
  auto ds = data::MakeRegression(300, 5, 0.1, 6);
  GlmConfig config;
  config.family = GlmFamily::kGaussian;
  config.learning_rate = 0.05;
  config.l2 = 0.5;
  config.max_epochs = 8;
  config.tolerance = 0;
  GlmConfig other = config;
  other.learning_rate = 0.02;
  other.l2 = 0.1;

  auto long_run = BatchedTrainGlm(ds.x, ds.y, {config, other});
  ASSERT_TRUE(long_run.ok()) << long_run.status().message();
  for (size_t c = 0; c < 2; ++c) {
    const GlmConfig& cfg = c == 0 ? config : other;
    const GlmModel& model = (*long_run)[c];
    ASSERT_EQ(model.loss_history.size(), cfg.max_epochs);
    for (size_t e = 0; e < cfg.max_epochs; ++e) {
      DenseMatrix w(ds.x.cols(), 1);
      double b = 0.0;
      if (e > 0) {
        GlmConfig shorter = cfg;
        shorter.max_epochs = e;
        auto prefix = BatchedTrainGlm(ds.x, ds.y, {shorter});
        ASSERT_TRUE(prefix.ok());
        w = (*prefix)[0].weights;
        b = (*prefix)[0].intercept;
      }
      auto expected = ml::GlmLoss(ds.x, ds.y, w, b, cfg.family, cfg.l2);
      ASSERT_TRUE(expected.ok());
      EXPECT_NEAR(model.loss_history[e], *expected, 1e-12)
          << "config " << c << " epoch " << e;
    }
  }
}

TEST(SharedScanTest, EachColumnStopsOnItsOwnToleranceBitEqualToSingleModel) {
  auto ds = data::MakeRegression(300, 5, 0.1, 6);
  std::vector<GlmConfig> configs(3);
  const double lrs[] = {0.02, 0.05, 0.1};
  for (size_t c = 0; c < 3; ++c) {
    configs[c].family = GlmFamily::kGaussian;
    configs[c].learning_rate = lrs[c];
    configs[c].l2 = 0.01 * static_cast<double>(c);
    configs[c].max_epochs = 200;
    configs[c].tolerance = 1e-3;
  }

  auto rung = BatchedTrainGlm(ds.x, ds.y, configs);
  ASSERT_TRUE(rung.ok()) << rung.status().message();
  EXPECT_NE((*rung)[0].epochs_run, (*rung)[2].epochs_run)
      << "the configs must stop at different epochs";
  size_t longest = 0;
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_LT((*rung)[c].epochs_run, configs[c].max_epochs) << "config " << c;
    longest = std::max(longest, (*rung)[c].epochs_run);
  }
  auto trained = SharedScanTrain(ml::BorrowOperand(ds.x), ds.y,
                                 {{ds.x.rows(), ds.x.rows()}}, configs);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(trained->epochs_run, longest)
      << "the rung ends when its last column stops";

  for (size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE("config " + std::to_string(c));
    auto single = ml::TrainGlmOnOperand(ml::BorrowOperand(ds.x), ds.y, configs[c]);
    ASSERT_TRUE(single.ok()) << single.status().message();
    const GlmModel& column = (*rung)[c];
    EXPECT_EQ(column.epochs_run, single->epochs_run);
    for (size_t j = 0; j < ds.x.cols(); ++j) {
      EXPECT_EQ(column.weights.At(j, 0), single->weights.At(j, 0)) << "weight " << j;
    }
    EXPECT_EQ(column.intercept, single->intercept);
    ASSERT_EQ(column.loss_history.size(), single->loss_history.size());
    for (size_t e = 0; e < single->loss_history.size(); ++e) {
      EXPECT_EQ(column.loss_history[e], single->loss_history[e]) << "epoch " << e;
    }
  }
}

TEST(SharedScanTest, ParityAcrossSparseAndCompressedBindings) {
  auto dense = std::make_shared<DenseMatrix>(MixedReprDesign(120, 6, 5));
  auto sparse = std::make_shared<SparseMatrix>(ToCsr(*dense));
  auto compressed =
      std::make_shared<CompressedMatrix>(CompressedMatrix::Compress(*dense));
  DenseMatrix y = data::GaussianMatrix(120, 1, 6);
  // The low-cardinality design has larger feature magnitudes than the
  // Gaussian designs; shrink the step sizes so every config converges (an
  // absolute 1e-9 parity bound is only meaningful on O(1) weights).
  std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 5);
  for (GlmConfig& c : configs) c.learning_rate *= 0.05;

  auto dense_models = BatchedTrainGlm(*dense, y, configs);
  ASSERT_TRUE(dense_models.ok());
  const Operand bindings[] = {Operand(sparse), Operand(compressed)};
  for (const Operand& op : bindings) {
    auto shared = BatchedTrainGlm(op, y, configs);
    ASSERT_TRUE(shared.ok()) << shared.status().message();
    for (size_t c = 0; c < configs.size(); ++c) {
      // Shared k-wide vs sequential 1-wide under the same binding.
      auto seq = BatchedTrainGlm(op, y, {configs[c]});
      ASSERT_TRUE(seq.ok());
      EXPECT_LE(MaxAbsDiff((*shared)[c].weights, (*seq)[0].weights), 1e-9);
      EXPECT_NEAR((*shared)[c].intercept, (*seq)[0].intercept, 1e-9);
      // Native kernels vs the dense reference.
      EXPECT_LE(MaxAbsDiff((*shared)[c].weights, (*dense_models)[c].weights),
                1e-9);
      EXPECT_NEAR((*shared)[c].intercept, (*dense_models)[c].intercept, 1e-9);
    }
  }
}

TEST(SharedScanTest, StatisticsRouteColumnsBitEqualToWidthOneOnEveryBinding) {
  // On the statistics route the statistics do not depend on the rung width
  // and G·W runs the dense ranged kernel, so a wide column is bit-equal to
  // its width-1 run under the CSR and CLA bindings too.
  auto dense = std::make_shared<DenseMatrix>(MixedReprDesign(120, 6, 5));
  DenseMatrix y = data::GaussianMatrix(120, 1, 6);
  std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 5);
  for (GlmConfig& c : configs) c.learning_rate *= 0.05;
  const std::vector<FoldRange> folds = {{0, 40}, {40, 80}};
  const Operand bindings[] = {
      Operand(dense), Operand(std::make_shared<SparseMatrix>(ToCsr(*dense))),
      Operand(std::make_shared<CompressedMatrix>(CompressedMatrix::Compress(*dense)))};
  for (const Operand& op : bindings) {
    SCOPED_TRACE(laopt::ReprName(op.repr()));
    ASSERT_EQ(ml::ChooseBatchGdRoute(op, folds, configs).route,
              ml::BatchGdRoute::kStatistics);
    auto wide = SharedScanTrain(op, y, folds, configs);
    ASSERT_TRUE(wide.ok()) << wide.status().message();
    for (size_t c = 0; c < configs.size(); ++c) {
      auto one = SharedScanTrain(op, y, folds, {configs[c]});
      ASSERT_TRUE(one.ok());
      for (size_t f = 0; f < folds.size(); ++f) {
        const SharedScanFold& w = wide->folds[f];
        const SharedScanFold& o = one->folds[f];
        for (size_t j = 0; j < dense->cols(); ++j) {
          EXPECT_EQ(w.weights.At(j, c), o.weights.At(j, 0)) << "config " << c;
        }
        EXPECT_EQ(w.intercepts[c], o.intercepts[0]);
        EXPECT_EQ(w.loss_histories[c], o.loss_histories[0]);
      }
    }
  }
}

TEST(SharedScanTest, FoldWindowsMatchGatheredCopyTraining) {
  DenseMatrix x = data::GaussianMatrix(90, 4, 21);
  DenseMatrix y = data::GaussianMatrix(90, 1, 22);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 6);

  auto kf = KFold::Make(x.rows(), 3, 7);
  ASSERT_TRUE(kf.ok());
  const ContiguousFolds cf = MakeContiguousFolds(*kf);
  const DenseMatrix xp = GatherRows(x, cf.order);
  const DenseMatrix yp = GatherRows(y, cf.order);
  auto shared = SharedScanTrain(ml::BorrowOperand(xp), yp, cf.folds, configs);
  ASSERT_TRUE(shared.ok()) << shared.status().message();
  ASSERT_EQ(shared->folds.size(), 3u);

  for (size_t f = 0; f < 3; ++f) {
    // The reference trains on a *gathered copy* of the same training rows in
    // the same order; the shared scan reads them through two zero-copy
    // windows around the validation range.
    DenseMatrix xt = GatherRows(x, kf->TrainingIndices(f));
    DenseMatrix yt = GatherRows(y, kf->TrainingIndices(f));
    auto gathered = BatchedTrainGlm(xt, yt, configs);
    ASSERT_TRUE(gathered.ok());
    for (size_t c = 0; c < configs.size(); ++c) {
      const DenseMatrix col = shared->folds[f].weights.Column(c);
      EXPECT_LE(MaxAbsDiff(col, (*gathered)[c].weights), 1e-9)
          << "fold " << f << " config " << c;
      EXPECT_NEAR(shared->folds[f].intercepts[c], (*gathered)[c].intercept,
                  1e-9);
    }
  }
}

TEST(SharedScanTest, HeterogeneityStaysColumnLocal) {
  DenseMatrix x = data::GaussianMatrix(64, 3, 31);
  DenseMatrix y = data::GaussianMatrix(64, 1, 32);
  GlmConfig a;
  a.family = GlmFamily::kGaussian;
  a.learning_rate = 0.1;
  a.l2 = 0.01;
  a.lr_decay = 0.05;
  a.max_epochs = 5;
  GlmConfig b = a;
  b.learning_rate = 0.03;
  b.l2 = 0.2;
  b.lr_decay = 0.0;

  // Duplicated configs must produce bit-identical columns; a different
  // config in the middle must not perturb them.
  auto models = BatchedTrainGlm(x, y, {a, b, a});
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(MaxAbsDiff((*models)[0].weights, (*models)[2].weights), 0.0);
  EXPECT_EQ((*models)[0].intercept, (*models)[2].intercept);
  EXPECT_GT(MaxAbsDiff((*models)[0].weights, (*models)[1].weights), 0.0);
}

TEST(SharedScanTest, ScoreWindowMatchesPerModelScoring) {
  data::ClassificationDataset ds = data::MakeClassification(100, 4, 0.1, 41);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kBinomial, 6);
  auto models = BatchedTrainGlm(ds.x, ds.y, configs);
  ASSERT_TRUE(models.ok());

  DenseMatrix weights(ds.x.cols(), configs.size());
  std::vector<double> intercepts(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    for (size_t j = 0; j < ds.x.cols(); ++j) {
      weights.At(j, c) = (*models)[c].weights.At(j, 0);
    }
    intercepts[c] = (*models)[c].intercept;
  }

  const size_t vb = 10, ve = 40;
  std::vector<size_t> val_rows;
  for (size_t i = vb; i < ve; ++i) val_rows.push_back(i);
  DenseMatrix xv = GatherRows(ds.x, val_rows);
  DenseMatrix yv = GatherRows(ds.y, val_rows);

  const Operand op = ml::BorrowOperand(ds.x);
  auto acc = ScoreConfigsOnWindow(op, ds.y, vb, ve, weights, intercepts,
                                  GlmFamily::kBinomial, FoldMetric::kAccuracy);
  auto nll = ScoreConfigsOnWindow(op, ds.y, vb, ve, weights, intercepts,
                                  GlmFamily::kBinomial, FoldMetric::kNegLogLoss);
  ASSERT_TRUE(acc.ok());
  ASSERT_TRUE(nll.ok());
  for (size_t c = 0; c < configs.size(); ++c) {
    auto labels = (*models)[c].PredictLabels(xv);
    ASSERT_TRUE(labels.ok());
    auto ref_acc = ml::Accuracy(yv, *labels);
    ASSERT_TRUE(ref_acc.ok());
    EXPECT_NEAR((*acc)[c], *ref_acc, 1e-12) << "config " << c;

    auto probs = (*models)[c].Predict(xv);
    ASSERT_TRUE(probs.ok());
    auto ref_loss = ml::LogLoss(yv, *probs);
    ASSERT_TRUE(ref_loss.ok());
    EXPECT_NEAR((*nll)[c], -*ref_loss, 1e-9) << "config " << c;
  }
}

TEST(SharedScanTest, RaggedWidthColumnsBitEqualToWidthOneRuns) {
  // Widths 3 and 5 leave a partial 4-lane vector in every row, and the odd
  // training windows (68 rows for fold 0; 33 + 33 for fold 1) leave one at
  // the end of each width-1 window. Every column must still match its
  // width-1 run bit for bit, in training and in fold scoring.
  const size_t n = 101, d = 4;
  const std::vector<FoldRange> folds = {{0, 33}, {33, 68}};
  for (GlmFamily family : {GlmFamily::kGaussian, GlmFamily::kBinomial}) {
    DenseMatrix x, y;
    if (family == GlmFamily::kBinomial) {
      data::ClassificationDataset ds = data::MakeClassification(n, d, 0.1, 81);
      x = ds.x;
      y = ds.y;
    } else {
      auto ds = data::MakeRegression(n, d, 0.1, 82);
      x = ds.x;
      y = ds.y;
    }
    const Operand op = ml::BorrowOperand(x);
    for (size_t width : {3u, 5u}) {
      SCOPED_TRACE(std::string(family == GlmFamily::kBinomial ? "binomial" : "gaussian") +
                   " width " + std::to_string(width));
      std::vector<GlmConfig> configs(width);
      for (size_t c = 0; c < width; ++c) {
        configs[c].family = family;
        configs[c].learning_rate = 0.05 + 0.03 * static_cast<double>(c);
        configs[c].l2 = 0.01 * static_cast<double>(c);
        configs[c].lr_decay = 0.05 * static_cast<double>(c);
        configs[c].tolerance = c % 2 == 1 ? 1e-4 : 0.0;
        configs[c].max_epochs = 30;
      }
      auto wide = SharedScanTrain(op, y, folds, configs);
      ASSERT_TRUE(wide.ok()) << wide.status().message();
      for (size_t c = 0; c < width; ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        auto narrow = SharedScanTrain(op, y, folds, {configs[c]});
        ASSERT_TRUE(narrow.ok()) << narrow.status().message();
        for (size_t f = 0; f < folds.size(); ++f) {
          SCOPED_TRACE("fold " + std::to_string(f));
          const SharedScanFold& w = wide->folds[f];
          const SharedScanFold& one = narrow->folds[f];
          for (size_t j = 0; j < d; ++j) {
            EXPECT_EQ(w.weights.At(j, c), one.weights.At(j, 0)) << "weight " << j;
          }
          EXPECT_EQ(w.intercepts[c], one.intercepts[0]);
          EXPECT_EQ(w.epochs_run[c], one.epochs_run[0]);
          EXPECT_EQ(w.loss_histories[c], one.loss_histories[0]);

          std::vector<FoldMetric> metrics = {FoldMetric::kNegRmse};
          if (family == GlmFamily::kBinomial) {
            metrics = {FoldMetric::kAccuracy, FoldMetric::kNegLogLoss};
          }
          for (FoldMetric metric : metrics) {
            auto wide_scores = ScoreConfigsOnWindow(op, y, folds[f].begin, folds[f].end,
                                                    w.weights, w.intercepts, family, metric);
            auto one_scores = ScoreConfigsOnWindow(op, y, folds[f].begin, folds[f].end,
                                                   one.weights, one.intercepts, family, metric);
            ASSERT_TRUE(wide_scores.ok() && one_scores.ok());
            EXPECT_EQ((*wide_scores)[c], (*one_scores)[0])
                << "metric " << static_cast<int>(metric);
          }
        }
      }
    }
  }
}

TEST(SharedScanTest, FoldScoringContract) {
  // One feature, so a config's validation scores are s = w·x + b exactly.
  // With w = 1 every row is on the wrong side with |s| > 40: even rows have
  // label 0 and score +|x|, odd rows label 1 and score −|x|.
  const size_t n = 8;
  DenseMatrix x(n, 1), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const double magnitude = 41.0 + static_cast<double>(i);
    x.At(i, 0) = i % 2 == 0 ? magnitude : -magnitude;
    y.At(i, 0) = i % 2 == 0 ? 0.0 : 1.0;
  }
  const Operand op = ml::BorrowOperand(x);
  auto softplus = [](double m) { return m > 0 ? std::log1p(std::exp(-m))
                                              : -m + std::log1p(std::exp(m)); };
  DenseMatrix weights(1, 2);  // Column 0: w = 1; column 1: w = 0, so s = 0.
  weights.At(0, 0) = 1.0;
  const std::vector<double> intercepts = {0.0, 0.0};

  // kNegLogLoss is the exact mean softplus of the negated margin, with no
  // probability clip capping a row at −log(1e-12) = 27.63.
  auto nll = ScoreConfigsOnWindow(op, y, 0, n, weights, intercepts,
                                  GlmFamily::kBinomial, FoldMetric::kNegLogLoss);
  ASSERT_TRUE(nll.ok()) << nll.status().message();
  double mean = 0;
  for (size_t i = 0; i < n; ++i) {
    const double m = (y.At(i, 0) > 0.5 ? 1.0 : -1.0) * x.At(i, 0);
    mean += softplus(m);
  }
  mean /= static_cast<double>(n);
  EXPECT_TRUE(std::isfinite((*nll)[0]));
  EXPECT_NEAR((*nll)[0], -mean, 1e-12 * mean);
  EXPECT_LT((*nll)[0], -40.0) << "each row costs more than the clip's 27.63";
  // Column 1 scores s = 0: log loss log 2 per row.
  EXPECT_NEAR((*nll)[1], -std::log(2.0), 1e-15);

  // kAccuracy at s = 0 exactly predicts label 1: σ(0) = 0.5 ≥ 0.5.
  auto acc = ScoreConfigsOnWindow(op, y, 0, n, weights, intercepts,
                                  GlmFamily::kBinomial, FoldMetric::kAccuracy);
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ((*acc)[0], 0.0) << "every row is on the wrong side";
  EXPECT_EQ((*acc)[1], 0.5) << "the label-1 half is right";

  // A one-row window scores that row alone.
  for (FoldMetric metric : {FoldMetric::kAccuracy, FoldMetric::kNegLogLoss}) {
    auto one = ScoreConfigsOnWindow(op, y, 3, 4, weights, intercepts,
                                    GlmFamily::kBinomial, metric);
    ASSERT_TRUE(one.ok()) << one.status().message();
    ASSERT_EQ(one->size(), 2u);
    if (metric == FoldMetric::kAccuracy) {
      EXPECT_EQ((*one)[0], 0.0);
      EXPECT_EQ((*one)[1], 1.0) << "row 3 has label 1";
    } else {
      EXPECT_NEAR((*one)[0], -softplus(x.At(3, 0)), 1e-12 * std::fabs(x.At(3, 0)));
    }
  }
  auto rmse = ScoreConfigsOnWindow(op, y, 3, 4, weights, intercepts,
                                   GlmFamily::kGaussian, FoldMetric::kNegRmse);
  ASSERT_TRUE(rmse.ok());
  EXPECT_EQ((*rmse)[0], -std::fabs(x.At(3, 0) - 1.0));
  EXPECT_EQ((*rmse)[1], -1.0);

  // Labels must be one column over every row of X.
  EXPECT_FALSE(ScoreConfigsOnWindow(op, DenseMatrix(n - 1, 1), 0, 2, weights,
                                    intercepts, GlmFamily::kBinomial,
                                    FoldMetric::kNegLogLoss).ok());
  EXPECT_FALSE(ScoreConfigsOnWindow(op, DenseMatrix(n, 2), 0, 2, weights,
                                    intercepts, GlmFamily::kBinomial,
                                    FoldMetric::kNegLogLoss).ok());
}

TEST(SharedScanTest, RungCountersAndWidthHistogram) {
  DenseMatrix x = data::GaussianMatrix(60, 3, 51);
  DenseMatrix y = data::GaussianMatrix(60, 1, 52);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 3);
  const std::vector<FoldRange> folds = {{0, 20}, {20, 40}};

  const uint64_t rungs = CounterValue("modelsel.shared.rungs");
  const uint64_t per_scan = CounterValue("modelsel.shared.configs_per_scan");
  const uint64_t saved = CounterValue("modelsel.shared.epochs_saved");
  obs::Histogram* width = obs::MetricsRegistry::Global().GetHistogram(
      "modelsel.rung_width", obs::ExponentialBuckets(1, 2, 9));
  const uint64_t width_count = width->TotalCount();

  auto trained = SharedScanTrain(ml::BorrowOperand(x), y, folds, configs);
  ASSERT_TRUE(trained.ok());
  EXPECT_EQ(trained->epochs_run, 3u);

  EXPECT_EQ(CounterValue("modelsel.shared.rungs"), rungs + 1);
  EXPECT_EQ(CounterValue("modelsel.shared.configs_per_scan"), per_scan + 4);
  // A sequential explorer would spend k*epochs*folds training passes; the
  // shared rung spends epochs*folds. The counter records the difference.
  EXPECT_EQ(CounterValue("modelsel.shared.epochs_saved"),
            saved + (4 - 1) * 3 * 2);
  EXPECT_EQ(width->TotalCount(), width_count + 1);

  // Single fits train on the same engine but are not model selection: they
  // and a sequential grid search leave the rung counters alone.
  auto ds = data::MakeRegression(90, 3, 0.1, 53);
  GridSpec grid;
  grid.base.max_epochs = 5;
  grid.learning_rates = {0.05, 0.1};
  grid.l2_penalties = {0.0};
  ASSERT_TRUE(ml::TrainGlmOnOperand(ml::BorrowOperand(ds.x), ds.y, grid.base).ok());
  ASSERT_TRUE(ml::TrainGlm(ds.x, ds.y, grid.base).ok());
  ASSERT_TRUE(GridSearchSequential(ds.x, ds.y, grid, 3, 7).ok());
  EXPECT_EQ(CounterValue("modelsel.shared.rungs"), rungs + 1);
  EXPECT_EQ(CounterValue("modelsel.shared.configs_per_scan"), per_scan + 4);
  EXPECT_EQ(width->TotalCount(), width_count + 1);
}

TEST(SharedScanTest, RejectsHyperparametersThatPoisonTraining) {
  // NaN ≤ 0 is false, so a `learning_rate <= 0` test let a NaN rate train
  // every weight to NaN with an OK status; a negative decay drives
  // 1 + decay·epoch through zero. Each must be refused, naming the field,
  // by the single fit and by a rung.
  DenseMatrix x = data::GaussianMatrix(40, 3, 91);
  DenseMatrix y = data::GaussianMatrix(40, 1, 92);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    GlmConfig config;
  };
  std::vector<Case> cases;
  for (double v : {nan, inf, -inf, 0.0, -1.0}) {
    cases.push_back({"learning_rate", {}});
    cases.back().config.learning_rate = v;
  }
  for (double v : {nan, inf, -0.5}) {
    cases.push_back({"lr_decay", {}});
    cases.back().config.lr_decay = v;
    cases.push_back({"l2", {}});
    cases.back().config.l2 = v == -0.5 ? -1.0 : v;
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.config.learning_rate) +
                 "/" + std::to_string(c.config.lr_decay) + "/" +
                 std::to_string(c.config.l2));
    auto single = ml::TrainGlmOnOperand(ml::BorrowOperand(x), y, c.config);
    ASSERT_FALSE(single.ok());
    EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(single.status().message().find(c.field), std::string::npos)
        << single.status().message();
    auto rung = SharedScanTrain(ml::BorrowOperand(x), y, {{0, 10}, {10, 20}},
                                {GlmConfig{}, c.config});
    ASSERT_FALSE(rung.ok());
    EXPECT_EQ(rung.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rung.status().message().find(c.field), std::string::npos)
        << rung.status().message();
  }
}

TEST(SharedScanTest, NoiseFreeFitTakesNearZeroLossesFromResiduals) {
  // y = X·w* exactly, trained until the fit is all but exact. The
  // statistics loss ½(wᵀGw − 2cᵀw + yᵀy)/n cancels there, so those epochs
  // take their loss from a residual pass: no loss goes negative, and entry
  // e still is GlmLoss at the weights an e-epoch run ends with.
  const size_t n = 200, d = 4;
  const DenseMatrix x = data::GaussianMatrix(n, d, 93);
  DenseMatrix w_star(d, 1);
  for (size_t j = 0; j < d; ++j) w_star.At(j, 0) = 1.0 + static_cast<double>(j);
  const DenseMatrix y = la::Gemv(x, w_star);
  GlmConfig config;
  config.learning_rate = 0.3;
  config.max_epochs = 50;
  config.tolerance = 0;
  // Every run below (2 epochs and up) takes the statistics route.
  for (size_t e : {2u, 50u}) {
    config.max_epochs = e;
    ASSERT_EQ(ml::ChooseBatchGdRoute(ml::BorrowOperand(x), {{n, n}}, {config}).route,
              ml::BatchGdRoute::kStatistics);
  }
  config.max_epochs = 50;

  const uint64_t rescans = CounterValue("ml.glm.stats.loss_rescans");
  auto model = ml::TrainGlmOnOperand(ml::BorrowOperand(x), y, config);
  ASSERT_TRUE(model.ok()) << model.status().message();
  EXPECT_GT(CounterValue("ml.glm.stats.loss_rescans"), rescans);
  const double yty_2n = la::Dot(y, y) / (2.0 * static_cast<double>(n));
  EXPECT_LT(model->loss_history.back(), 1e-6 * yty_2n) << "the fit must get exact";
  for (double loss : model->loss_history) EXPECT_GE(loss, 0.0);

  for (size_t e : {0u, 2u, 10u, 25u, 35u, 42u, 49u}) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    DenseMatrix w(d, 1);
    double b = 0.0;
    if (e > 0) {
      GlmConfig shorter = config;
      shorter.max_epochs = e;
      auto prefix = ml::TrainGlmOnOperand(ml::BorrowOperand(x), y, shorter);
      ASSERT_TRUE(prefix.ok());
      w = prefix->weights;
      b = prefix->intercept;
    }
    auto expected = ml::GlmLoss(x, y, w, b, config.family, config.l2);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(model->loss_history[e], *expected, 1e-9 * *expected);
  }
}

TEST(BatchGdRouteTest, WorkedValuesOfTheRouteRule) {
  auto configs_of = [](GlmFamily family, size_t epochs, size_t k) {
    std::vector<GlmConfig> configs(k);
    for (GlmConfig& c : configs) {
      c.family = family;
      c.max_epochs = epochs;
    }
    return configs;
  };
  // select_cla: 25,000 x 40 CLA, 4 folds, 10 epochs. Statistics costs
  // 25000·40·41 + 10·4·2·40² = 41.128M, the scan 10·4·(4·18750·40) = 120M.
  {
    const size_t n = 25000, q = n / 4;
    const Operand x(std::make_shared<const CompressedMatrix>(
        CompressedMatrix::Compress(DenseMatrix(n, 40))));
    const std::vector<FoldRange> folds = {{0, q}, {q, 2 * q}, {2 * q, 3 * q}, {3 * q, n}};
    for (size_t k : {1u, 32u}) {
      const ml::BatchGdRouteChoice choice =
          ml::ChooseBatchGdRoute(x, folds, configs_of(GlmFamily::kGaussian, 10, k));
      EXPECT_EQ(choice.route, ml::BatchGdRoute::kStatistics) << "k " << k;
      EXPECT_EQ(choice.statistics_cost, 41128000.0);
      EXPECT_EQ(choice.scan_cost, 120000000.0);
    }
    // The binomial family always scans, whatever the costs.
    EXPECT_EQ(ml::ChooseBatchGdRoute(x, folds, configs_of(GlmFamily::kBinomial, 10, 32))
                  .route,
              ml::BatchGdRoute::kScan);
  }
  // ScansRunOnCallerPool's single fit: 4096 x 16 for 2 epochs.
  // 4096·16·17 + 2·2·16² = 1,115,136 > 2·4·4096·16 = 524,288.
  {
    const DenseMatrix x(4096, 16);
    for (size_t k : {1u, 32u}) {
      const ml::BatchGdRouteChoice choice = ml::ChooseBatchGdRoute(
          ml::BorrowOperand(x), {{4096, 4096}}, configs_of(GlmFamily::kGaussian, 2, k));
      EXPECT_EQ(choice.route, ml::BatchGdRoute::kScan) << "k " << k;
      EXPECT_EQ(choice.statistics_cost, 1115136.0);
      EXPECT_EQ(choice.scan_cost, 524288.0);
    }
  }
  // bench_laopt --smoke's compressed GLM: 4000 x 30 for 5 epochs.
  // 4000·30·31 + 5·2·30² = 3,729,000 > 5·4·4000·30 = 2,400,000.
  {
    const DenseMatrix x(4000, 30);
    const ml::BatchGdRouteChoice choice = ml::ChooseBatchGdRoute(
        ml::BorrowOperand(x), {{4000, 4000}}, configs_of(GlmFamily::kGaussian, 5, 1));
    EXPECT_EQ(choice.route, ml::BatchGdRoute::kScan);
    EXPECT_EQ(choice.statistics_cost, 3729000.0);
    EXPECT_EQ(choice.scan_cost, 2400000.0);
  }
  // Wider than a fold's training rows: the costs favour statistics
  // (10·12·13 + 100·2·144 = 30,360 ≤ 100·4·120 = 48,000), the shape does not.
  {
    const DenseMatrix x(10, 12);
    const ml::BatchGdRouteChoice choice = ml::ChooseBatchGdRoute(
        ml::BorrowOperand(x), {{10, 10}}, configs_of(GlmFamily::kGaussian, 100, 1));
    EXPECT_LE(choice.statistics_cost, choice.scan_cost);
    EXPECT_EQ(choice.route, ml::BatchGdRoute::kScan);
  }
  // CSR counts nonzeros: 2 per row over 100 x 50 for 10 epochs, so the Gram
  // pass is 100·2·3 = 600 plus 10·2·50² = 50,000 per-epoch work, against a
  // scan of 10·4·200 = 8,000.
  {
    std::vector<la::Triplet> triplets;
    for (size_t r = 0; r < 100; ++r) {
      triplets.push_back({r, r % 50, 1.0});
      triplets.push_back({r, (r + 7) % 50, 2.0});
    }
    const Operand x(std::make_shared<const SparseMatrix>(
        SparseMatrix::FromTriplets(100, 50, triplets)));
    const ml::BatchGdRouteChoice choice =
        ml::ChooseBatchGdRoute(x, {{100, 100}}, configs_of(GlmFamily::kGaussian, 10, 1));
    EXPECT_EQ(choice.statistics_cost, 50600.0);
    EXPECT_EQ(choice.scan_cost, 8000.0);
    EXPECT_EQ(choice.route, ml::BatchGdRoute::kScan);
  }
}

TEST(BatchGdRouteTest, RouteCountersAndResultRecordTheChoice) {
  DenseMatrix x = data::GaussianMatrix(300, 5, 94);
  DenseMatrix y = data::GaussianMatrix(300, 1, 95);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 8);
  const uint64_t stats_runs = CounterValue("ml.glm.route.statistics");
  const uint64_t scan_runs = CounterValue("ml.glm.route.scan");
  auto trained = SharedScanTrain(ml::BorrowOperand(x), y, {{0, 100}}, configs);
  ASSERT_TRUE(trained.ok());
  const ml::BatchGdRouteChoice choice =
      ml::ChooseBatchGdRoute(ml::BorrowOperand(x), {{0, 100}}, configs);
  EXPECT_EQ(trained->route.route, ml::BatchGdRoute::kStatistics);
  EXPECT_EQ(trained->route.statistics_cost, choice.statistics_cost);
  EXPECT_EQ(trained->route.scan_cost, choice.scan_cost);
  EXPECT_EQ(CounterValue("ml.glm.route.statistics"), stats_runs + 1);
  EXPECT_EQ(CounterValue("ml.glm.route.scan"), scan_runs);

  auto binomial = BatchedTrainGlm(data::MakeClassification(100, 4, 0.1, 96).x,
                                  data::MakeClassification(100, 4, 0.1, 96).y,
                                  HeterogeneousRung(GlmFamily::kBinomial, 3));
  ASSERT_TRUE(binomial.ok());
  EXPECT_EQ(CounterValue("ml.glm.route.statistics"), stats_runs + 1);
  EXPECT_EQ(CounterValue("ml.glm.route.scan"), scan_runs + 1);
}

TEST(SharedScanTest, ScansRunOnCallerPool) {
  // Large enough that the ranged Xᵀ·R reduction crosses the parallel-chunk
  // threshold on a multi-worker pool.
  DenseMatrix x = data::GaussianMatrix(4096, 16, 61);
  DenseMatrix y = data::GaussianMatrix(4096, 1, 62);
  const std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, 2);

  ThreadPool pool(4);
  const uint64_t before = CounterValue("la.parallel.reductions");
  auto models = BatchedTrainGlm(x, y, configs, &pool);
  ASSERT_TRUE(models.ok());
  EXPECT_GT(CounterValue("la.parallel.reductions"), before)
      << "shared-scan epochs must run their reductions on the caller's pool";
}

TEST(SharedScanTest, SteadyStateEpochsAreAllocationFree) {
  DenseMatrix x = data::GaussianMatrix(512, 8, 71);
  DenseMatrix y = data::GaussianMatrix(512, 1, 72);
  const std::vector<FoldRange> folds = {{0, 128}, {128, 256}};

  auto allocs_for = [&](size_t epochs) {
    std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, epochs);
    const uint64_t before = CounterValue("la.inplace.allocs");
    auto trained = SharedScanTrain(ml::BorrowOperand(x), y, folds, configs);
    EXPECT_TRUE(trained.ok());
    return CounterValue("la.inplace.allocs") - before;
  };
  auto reuses_for = [&](size_t epochs) {
    std::vector<GlmConfig> configs = HeterogeneousRung(GlmFamily::kGaussian, epochs);
    const uint64_t before = CounterValue("la.inplace.reuses");
    auto trained = SharedScanTrain(ml::BorrowOperand(x), y, folds, configs);
    EXPECT_TRUE(trained.ok());
    return CounterValue("la.inplace.reuses") - before;
  };

  // Buffers are set up during the first epoch; extra epochs must add zero
  // allocations (they only re-fill executor slots, which counts as reuses).
  EXPECT_EQ(allocs_for(3), allocs_for(10));
  EXPECT_GT(reuses_for(10), reuses_for(3));
}

}  // namespace
}  // namespace dmml::modelsel
