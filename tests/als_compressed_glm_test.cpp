// Tests for ALS matrix factorization and GLM training on compressed data.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "la/kernels.h"
#include "ml/als.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"

namespace dmml {
namespace {

using la::DenseMatrix;
using la::SparseMatrix;

// Builds a ratings matrix from planted rank-r factors, observing each cell
// with probability `density`.
SparseMatrix PlantedRatings(size_t n, size_t m, size_t rank, double density,
                            double noise, uint64_t seed, DenseMatrix* u_out,
                            DenseMatrix* v_out) {
  Rng rng(seed);
  DenseMatrix u(n, rank), v(m, rank);
  for (size_t e = 0; e < u.size(); ++e) u.data()[e] = rng.Normal(0, 1.0);
  for (size_t e = 0; e < v.size(); ++e) v.data()[e] = rng.Normal(0, 1.0);
  std::vector<la::Triplet> triplets;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (!rng.Bernoulli(density)) continue;
      double r = la::Dot(u.Row(i), v.Row(j), rank) + rng.Normal(0, noise);
      if (r == 0.0) r = 1e-9;
      triplets.push_back({i, j, r});
    }
  }
  if (u_out) *u_out = std::move(u);
  if (v_out) *v_out = std::move(v);
  return SparseMatrix::FromTriplets(n, m, std::move(triplets));
}

TEST(AlsTest, RecoversPlantedLowRankStructure) {
  auto ratings = PlantedRatings(60, 40, 3, 0.4, 0.01, 1, nullptr, nullptr);
  ml::AlsConfig config;
  config.rank = 3;
  config.l2 = 0.05;
  config.max_iters = 30;
  auto model = ml::TrainAls(ratings, config);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->rmse_history.back(), 0.1);
}

TEST(AlsTest, RmseDecreasesMonotonically) {
  auto ratings = PlantedRatings(40, 30, 2, 0.3, 0.1, 2, nullptr, nullptr);
  ml::AlsConfig config;
  config.rank = 2;
  config.max_iters = 15;
  config.tolerance = 0;
  auto model = ml::TrainAls(ratings, config);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->rmse_history.size(); ++i) {
    EXPECT_LE(model->rmse_history[i], model->rmse_history[i - 1] + 1e-6);
  }
}

TEST(AlsTest, GeneralizesToHeldOutEntries) {
  // Same planted factors, two disjoint observation masks.
  DenseMatrix u, v;
  auto train = PlantedRatings(80, 50, 3, 0.3, 0.05, 3, &u, &v);
  ml::AlsConfig config;
  config.rank = 3;
  config.l2 = 0.05;
  config.max_iters = 25;
  auto model = ml::TrainAls(train, config);
  ASSERT_TRUE(model.ok());
  // Evaluate on fresh entries from the same factors.
  Rng rng(999);
  double acc = 0;
  int count = 0;
  for (int s = 0; s < 500; ++s) {
    size_t i = rng.UniformInt(uint64_t{80});
    size_t j = rng.UniformInt(uint64_t{50});
    double truth = la::Dot(u.Row(i), v.Row(j), 3);
    double pred = *model->Predict(i, j);
    acc += (pred - truth) * (pred - truth);
    ++count;
  }
  EXPECT_LT(std::sqrt(acc / count), 0.6);
}

TEST(AlsTest, HigherRankFitsTighter) {
  auto ratings = PlantedRatings(50, 40, 4, 0.5, 0.05, 4, nullptr, nullptr);
  double prev = 1e18;
  for (size_t rank : {1, 2, 4}) {
    ml::AlsConfig config;
    config.rank = rank;
    config.l2 = 0.05;
    config.max_iters = 25;
    auto model = ml::TrainAls(ratings, config);
    ASSERT_TRUE(model.ok());
    EXPECT_LT(model->rmse_history.back(), prev + 1e-9);
    prev = model->rmse_history.back();
  }
}

TEST(AlsTest, UsersWithoutRatingsKeepInitialFactors) {
  // Row 5 has no observations; training must not touch or crash on it.
  auto ratings = SparseMatrix::FromTriplets(
      6, 4, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}, {3, 3, 1.5}, {4, 0, 2.5}});
  ml::AlsConfig config;
  config.rank = 2;
  auto model = ml::TrainAls(ratings, config);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Predict(5, 0).ok());
}

TEST(AlsTest, Validation) {
  ml::AlsConfig config;
  EXPECT_FALSE(ml::TrainAls(SparseMatrix(), config).ok());
  auto empty_obs = SparseMatrix::FromTriplets(3, 3, {});
  EXPECT_FALSE(ml::TrainAls(empty_obs, config).ok());
  auto ratings = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  config.rank = 0;
  EXPECT_FALSE(ml::TrainAls(ratings, config).ok());
  config = ml::AlsConfig{};
  config.l2 = 0;
  EXPECT_FALSE(ml::TrainAls(ratings, config).ok());
  config = ml::AlsConfig{};
  auto model = ml::TrainAls(ratings, config);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Predict(5, 0).ok());
  EXPECT_FALSE(model->Rmse(SparseMatrix::FromTriplets(9, 9, {{0, 0, 1.0}})).ok());
}

// --------------------------------------------------------------------------
// Compressed GLM (the operand trainer over a CLA binding; parity with the
// dense binding is in laopt_repr_test)
// --------------------------------------------------------------------------

laopt::Operand CompressedOperand(const DenseMatrix& x) {
  return laopt::Operand(std::make_shared<const cla::CompressedMatrix>(
      cla::CompressedMatrix::Compress(x)));
}

TEST(CompressedGlmTest, LogisticFamilyOnCompressedData) {
  auto ds = data::MakeClassification(500, 5, 0.05, 7);
  // Quantize features so compression bites but the task stays learnable.
  DenseMatrix x(ds.x.rows(), ds.x.cols());
  for (size_t e = 0; e < x.size(); ++e) {
    x.data()[e] = std::round(ds.x.data()[e] * 2.0) / 2.0;
  }
  ml::GlmConfig config;
  config.family = ml::GlmFamily::kBinomial;
  config.learning_rate = 0.5;
  config.max_epochs = 200;
  auto model = ml::TrainGlmOnOperand(CompressedOperand(x), ds.y, config);
  ASSERT_TRUE(model.ok());
  auto labels = model->PredictLabels(x);
  ASSERT_TRUE(labels.ok());
  EXPECT_GT(*ml::Accuracy(ds.y, *labels), 0.85);
}

TEST(CompressedGlmTest, Validation) {
  const laopt::Operand cm = CompressedOperand(data::GaussianMatrix(10, 2, 8));
  ml::GlmConfig config;
  EXPECT_FALSE(ml::TrainGlmOnOperand(cm, DenseMatrix(5, 1), config).ok());
  config.learning_rate = 0;
  EXPECT_FALSE(ml::TrainGlmOnOperand(cm, DenseMatrix(10, 1), config).ok());
  config = ml::GlmConfig{};
  config.family = ml::GlmFamily::kBinomial;
  EXPECT_FALSE(ml::TrainGlmOnOperand(cm, DenseMatrix(10, 1, 0.3), config).ok());
}

}  // namespace
}  // namespace dmml
