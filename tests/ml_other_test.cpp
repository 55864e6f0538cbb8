// Tests for metrics, the scaler, k-means, naive Bayes and decision trees.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "data/generators.h"
#include "la/kernels.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/scaler.h"

namespace dmml::ml {
namespace {

using la::DenseMatrix;

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

TEST(MetricsTest, RmseMaeOnKnownVectors) {
  auto yt = DenseMatrix::ColumnVector({1, 2, 3});
  auto yp = DenseMatrix::ColumnVector({1, 2, 5});
  EXPECT_NEAR(*Rmse(yt, yp), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(*Mae(yt, yp), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, R2PerfectAndBaseline) {
  auto yt = DenseMatrix::ColumnVector({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(*R2(yt, yt), 1.0);
  auto mean = DenseMatrix::ColumnVector({2.5, 2.5, 2.5, 2.5});
  EXPECT_DOUBLE_EQ(*R2(yt, mean), 0.0);
  auto constant = DenseMatrix::ColumnVector({5, 5});
  EXPECT_FALSE(R2(constant, constant).ok());  // Undefined for constant truth.
}

TEST(MetricsTest, AccuracyAndPrf) {
  auto yt = DenseMatrix::ColumnVector({1, 1, 0, 0});
  auto yp = DenseMatrix::ColumnVector({1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(*Accuracy(yt, yp), 0.5);
  auto prf = BinaryPrf(yt, yp);
  ASSERT_TRUE(prf.ok());
  EXPECT_DOUBLE_EQ(prf->precision, 0.5);  // tp=1, fp=1.
  EXPECT_DOUBLE_EQ(prf->recall, 0.5);     // tp=1, fn=1.
  EXPECT_DOUBLE_EQ(prf->f1, 0.5);
}

TEST(MetricsTest, LogLossPerfectAndClipped) {
  auto yt = DenseMatrix::ColumnVector({1, 0});
  auto good = DenseMatrix::ColumnVector({1.0, 0.0});
  EXPECT_LT(*LogLoss(yt, good), 1e-10);
  auto bad = DenseMatrix::ColumnVector({0.0, 1.0});
  EXPECT_GT(*LogLoss(yt, bad), 10.0);
  EXPECT_TRUE(std::isfinite(*LogLoss(yt, bad)));
}

TEST(MetricsTest, RocAucPerfectRandomInverted) {
  auto yt = DenseMatrix::ColumnVector({0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(*RocAuc(yt, DenseMatrix::ColumnVector({0.1, 0.2, 0.8, 0.9})), 1.0);
  EXPECT_DOUBLE_EQ(*RocAuc(yt, DenseMatrix::ColumnVector({0.9, 0.8, 0.2, 0.1})), 0.0);
  EXPECT_DOUBLE_EQ(*RocAuc(yt, DenseMatrix::ColumnVector({0.5, 0.5, 0.5, 0.5})), 0.5);
}

TEST(MetricsTest, RocAucHandlesTies) {
  auto yt = DenseMatrix::ColumnVector({0, 1, 0, 1});
  auto ys = DenseMatrix::ColumnVector({0.3, 0.3, 0.1, 0.9});
  double auc = *RocAuc(yt, ys);
  EXPECT_GT(auc, 0.5);
  EXPECT_LT(auc, 1.0);
}

TEST(MetricsTest, SingleClassAucUndefined) {
  auto yt = DenseMatrix::ColumnVector({1, 1});
  EXPECT_FALSE(RocAuc(yt, DenseMatrix::ColumnVector({0.1, 0.9})).ok());
}

TEST(MetricsTest, ShapeValidation) {
  auto a = DenseMatrix::ColumnVector({1});
  auto b = DenseMatrix::ColumnVector({1, 2});
  EXPECT_FALSE(Rmse(a, b).ok());
  EXPECT_FALSE(Accuracy(a, b).ok());
  EXPECT_FALSE(Rmse(DenseMatrix(0, 1), DenseMatrix(0, 1)).ok());
}

// --------------------------------------------------------------------------
// Scaler
// --------------------------------------------------------------------------

TEST(ScalerTest, StandardizesColumns) {
  auto x = data::UniformMatrix(500, 3, -5, 20, 1);
  StandardScaler scaler;
  auto scaled = scaler.FitTransform(x);
  ASSERT_TRUE(scaled.ok());
  for (size_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (size_t i = 0; i < scaled->rows(); ++i) mean += scaled->At(i, j);
    mean /= static_cast<double>(scaled->rows());
    for (size_t i = 0; i < scaled->rows(); ++i) {
      double d = scaled->At(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(scaled->rows());
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-10);
  }
}

TEST(ScalerTest, InverseTransformRoundTrips) {
  auto x = data::GaussianMatrix(50, 4, 2);
  StandardScaler scaler;
  auto scaled = scaler.FitTransform(x);
  ASSERT_TRUE(scaled.ok());
  auto restored = scaler.InverseTransform(*scaled);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(x, 1e-10));
}

TEST(ScalerTest, ConstantColumnSurvives) {
  DenseMatrix x(10, 2);
  for (size_t i = 0; i < 10; ++i) x.At(i, 0) = 7.0;  // Zero variance.
  StandardScaler scaler;
  auto scaled = scaler.FitTransform(x);
  ASSERT_TRUE(scaled.ok());
  for (size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(scaled->At(i, 0), 0.0);
}

TEST(ScalerTest, ErrorsOnMisuse) {
  StandardScaler scaler;
  EXPECT_FALSE(scaler.Transform(DenseMatrix(2, 2)).ok());  // Unfitted.
  ASSERT_TRUE(scaler.Fit(DenseMatrix(5, 3, 1.0)).ok());
  EXPECT_FALSE(scaler.Transform(DenseMatrix(2, 2)).ok());  // Width mismatch.
  EXPECT_FALSE(scaler.Fit(DenseMatrix(0, 3)).ok());        // Empty.
}

// --------------------------------------------------------------------------
// k-means
// --------------------------------------------------------------------------

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  auto blobs = data::MakeBlobs(300, 2, 3, /*center_spread=*/20.0,
                               /*cluster_sigma=*/0.5, 3);
  KMeansConfig config;
  config.k = 3;
  config.seed = 4;
  auto model = TrainKMeans(blobs.x, config);
  ASSERT_TRUE(model.ok());
  // Every found cluster should be nearly pure wrt ground truth.
  for (size_t c = 0; c < 3; ++c) {
    std::map<int, int> votes;
    for (size_t i = 0; i < blobs.x.rows(); ++i) {
      if (model->labels[i] == static_cast<int>(c)) votes[blobs.labels[i]]++;
    }
    int total = 0, best = 0;
    for (auto& [_, v] : votes) {
      total += v;
      best = std::max(best, v);
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(static_cast<double>(best) / total, 0.95);
  }
}

TEST(KMeansTest, InertiaDecreasesMonotonically) {
  auto blobs = data::MakeBlobs(200, 3, 4, 5.0, 1.0, 5);
  KMeansConfig config;
  config.k = 4;
  auto model = TrainKMeans(blobs.x, config);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->inertia_history.size(); ++i) {
    EXPECT_LE(model->inertia_history[i], model->inertia_history[i - 1] + 1e-6);
  }
}

TEST(KMeansTest, PredictAssignsNearestCenter) {
  DenseMatrix x{{0, 0}, {0, 1}, {10, 10}, {10, 11}};
  KMeansConfig config;
  config.k = 2;
  auto model = TrainKMeans(x, config);
  ASSERT_TRUE(model.ok());
  auto assign = model->Predict(x);
  ASSERT_TRUE(assign.ok());
  EXPECT_EQ((*assign)[0], (*assign)[1]);
  EXPECT_EQ((*assign)[2], (*assign)[3]);
  EXPECT_NE((*assign)[0], (*assign)[2]);
  EXPECT_FALSE(model->Predict(DenseMatrix(2, 3)).ok());
}

TEST(KMeansTest, KEqualsNPutsEachPointAlone) {
  auto x = data::GaussianMatrix(5, 2, 6);
  KMeansConfig config;
  config.k = 5;
  config.max_iters = 50;
  auto model = TrainKMeans(x, config);
  ASSERT_TRUE(model.ok());
  std::set<int> labels(model->labels.begin(), model->labels.end());
  EXPECT_EQ(labels.size(), 5u);
  EXPECT_NEAR(model->inertia, 0.0, 1e-18);
}

TEST(KMeansTest, InvalidArguments) {
  auto x = data::GaussianMatrix(5, 2, 7);
  KMeansConfig config;
  config.k = 0;
  EXPECT_FALSE(TrainKMeans(x, config).ok());
  config.k = 6;
  EXPECT_FALSE(TrainKMeans(x, config).ok());
  config.k = 2;
  EXPECT_FALSE(TrainKMeans(DenseMatrix(0, 2), config).ok());
}

TEST(KMeansTest, InertiaConsistentWithReturnedAssignment) {
  auto blobs = data::MakeBlobs(150, 2, 3, 15.0, 0.5, 8);
  KMeansConfig config;
  config.k = 3;
  config.max_iters = 200;
  auto model = TrainKMeans(blobs.x, config);
  ASSERT_TRUE(model.ok());
  // Assert structure, not quality: reported inertia is consistent with the
  // returned assignment.
  double recomputed = KMeansInertia(blobs.x, model->centers, model->labels);
  EXPECT_NEAR(model->inertia, recomputed, 1e-6 * std::max(1.0, recomputed));
  for (int label : model->labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 3);
  }
}

// --------------------------------------------------------------------------
// Naive Bayes
// --------------------------------------------------------------------------

TEST(NaiveBayesTest, SeparatesGaussianClasses) {
  auto blobs = data::MakeBlobs(400, 3, 2, 10.0, 1.0, 9);
  auto model = TrainNaiveBayes(blobs.x, blobs.labels);
  ASSERT_TRUE(model.ok());
  auto pred = model->Predict(blobs.x);
  ASSERT_TRUE(pred.ok());
  int hits = 0;
  for (size_t i = 0; i < pred->size(); ++i) hits += (*pred)[i] == blobs.labels[i];
  EXPECT_GT(static_cast<double>(hits) / pred->size(), 0.97);
}

TEST(NaiveBayesTest, PosteriorsSumToOne) {
  auto blobs = data::MakeBlobs(100, 2, 3, 6.0, 1.5, 10);
  auto model = TrainNaiveBayes(blobs.x, blobs.labels);
  ASSERT_TRUE(model.ok());
  auto proba = model->PredictProba(blobs.x);
  ASSERT_TRUE(proba.ok());
  for (size_t i = 0; i < proba->rows(); ++i) {
    double total = 0;
    for (size_t c = 0; c < proba->cols(); ++c) {
      total += proba->At(i, c);
      EXPECT_GE(proba->At(i, c), 0.0);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(NaiveBayesTest, PriorsReflectImbalance) {
  DenseMatrix x(10, 1);
  std::vector<int> y = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1};
  for (size_t i = 0; i < 10; ++i) x.At(i, 0) = y[i] * 10.0 + (i % 3) * 0.1;
  auto model = TrainNaiveBayes(x, y);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(std::exp(model->log_priors[0]), 0.8, 1e-12);
  EXPECT_NEAR(std::exp(model->log_priors[1]), 0.2, 1e-12);
}

TEST(NaiveBayesTest, ArbitraryLabelValues) {
  auto blobs = data::MakeBlobs(100, 2, 2, 12.0, 0.5, 11);
  std::vector<int> y(blobs.labels.size());
  for (size_t i = 0; i < y.size(); ++i) y[i] = blobs.labels[i] == 0 ? -7 : 42;
  auto model = TrainNaiveBayes(blobs.x, y);
  ASSERT_TRUE(model.ok());
  auto pred = model->Predict(blobs.x);
  ASSERT_TRUE(pred.ok());
  for (int label : *pred) EXPECT_TRUE(label == -7 || label == 42);
}

TEST(NaiveBayesTest, InvalidInputs) {
  EXPECT_FALSE(TrainNaiveBayes(DenseMatrix(0, 2), {}).ok());
  EXPECT_FALSE(TrainNaiveBayes(DenseMatrix(3, 2), {0, 1}).ok());  // |y| != n.
  EXPECT_FALSE(TrainNaiveBayes(DenseMatrix(3, 2), {1, 1, 1}).ok());  // 1 class.
  auto model = TrainNaiveBayes(data::GaussianMatrix(10, 2, 12),
                               {0, 1, 0, 1, 0, 1, 0, 1, 0, 1});
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Predict(DenseMatrix(2, 3)).ok());
}

// --------------------------------------------------------------------------
// Decision tree
// --------------------------------------------------------------------------

TEST(DecisionTreeTest, LearnsAxisAlignedRule) {
  // Label = x0 > 0.5.
  auto x = data::UniformMatrix(300, 2, 0, 1, 13);
  DenseMatrix y(300, 1);
  for (size_t i = 0; i < 300; ++i) y.At(i, 0) = x.At(i, 0) > 0.5 ? 1.0 : 0.0;
  auto model = TrainTreeClassifier(x, y);
  ASSERT_TRUE(model.ok());
  auto pred = model->Predict(x);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(*Accuracy(y, *pred), 0.99);
  EXPECT_LE(model->Depth(), 8u);
}

TEST(DecisionTreeTest, LearnsXorWithDepthTwo) {
  // XOR needs two levels; impossible for a linear model.
  DenseMatrix x(400, 2);
  DenseMatrix y(400, 1);
  Rng rng(14);
  for (size_t i = 0; i < 400; ++i) {
    double a = rng.Uniform() < 0.5 ? 0.0 : 1.0;
    double b = rng.Uniform() < 0.5 ? 0.0 : 1.0;
    x.At(i, 0) = a + rng.Normal(0, 0.05);
    x.At(i, 1) = b + rng.Normal(0, 0.05);
    y.At(i, 0) = (a != b) ? 1.0 : 0.0;
  }
  auto model = TrainTreeClassifier(x, y);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(*Accuracy(y, *model->Predict(x)), 0.98);
}

TEST(DecisionTreeTest, RegressorFitsPiecewiseConstant) {
  DenseMatrix x(200, 1);
  DenseMatrix y(200, 1);
  for (size_t i = 0; i < 200; ++i) {
    x.At(i, 0) = static_cast<double>(i) / 200.0;
    y.At(i, 0) = x.At(i, 0) < 0.3 ? 1.0 : (x.At(i, 0) < 0.7 ? 5.0 : -2.0);
  }
  auto model = TrainTreeRegressor(x, y);
  ASSERT_TRUE(model.ok());
  auto pred = model->Predict(x);
  EXPECT_LT(*Rmse(y, *pred), 0.01);
}

TEST(DecisionTreeTest, MaxDepthRespected) {
  auto ds = data::MakeClassification(300, 4, 0.2, 15);
  TreeConfig config;
  config.max_depth = 2;
  auto model = TrainTreeClassifier(ds.x, ds.y, config);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->Depth(), 2u);
  EXPECT_LE(model->NumLeaves(), 4u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  auto ds = data::MakeClassification(100, 2, 0.1, 16);
  TreeConfig config;
  config.min_samples_leaf = 20;
  auto model = TrainTreeClassifier(ds.x, ds.y, config);
  ASSERT_TRUE(model.ok());
  for (const auto& node : model->nodes) {
    if (node.is_leaf) {
      EXPECT_GE(node.num_samples, 20u);
    }
  }
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  DenseMatrix x(10, 1);
  DenseMatrix y(10, 1, 1.0);  // All same class.
  auto model = TrainTreeClassifier(x, y);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->nodes.size(), 1u);
  EXPECT_TRUE(model->nodes[0].is_leaf);
  EXPECT_DOUBLE_EQ(model->nodes[0].value, 1.0);
}

TEST(DecisionTreeTest, InvalidInputs) {
  EXPECT_FALSE(TrainTreeClassifier(DenseMatrix(0, 1), DenseMatrix(0, 1)).ok());
  EXPECT_FALSE(TrainTreeClassifier(DenseMatrix(5, 1), DenseMatrix(4, 1)).ok());
  auto model = TrainTreeClassifier(data::UniformMatrix(20, 2, 0, 1, 17),
                                   DenseMatrix(20, 1));
  ASSERT_TRUE(model.ok());
  DecisionTreeModel untrained;
  EXPECT_FALSE(untrained.Predict(DenseMatrix(1, 2)).ok());
}

TEST(DecisionTreeTest, GeneralizesToHeldOutData) {
  auto train = data::MakeClassification(600, 5, 0.05, 18);
  auto test = data::MakeClassification(200, 5, 0.05, 18);  // Same generator.
  TreeConfig config;
  config.max_depth = 6;
  auto model = TrainTreeClassifier(train.x, train.y, config);
  ASSERT_TRUE(model.ok());
  // In-sample should beat chance comfortably; the planted weights are shared
  // so held-out accuracy should too.
  EXPECT_GT(*Accuracy(train.y, *model->Predict(train.x)), 0.8);
  EXPECT_GT(*Accuracy(test.y, *model->Predict(test.x)), 0.65);
}

}  // namespace
}  // namespace dmml::ml
