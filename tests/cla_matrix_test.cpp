// Tests for the CLA extensions: matrix-matrix ops on compressed data,
// compressed row norms, the sampling planner and k-means over a compressed
// binding.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "la/kernels.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"

namespace dmml::cla {
namespace {

using la::DenseMatrix;

DenseMatrix MixedData(size_t n, uint64_t seed) {
  // 6 columns: 2 low-card, 2 sorted runs, 1 sparse, 1 gaussian.
  DenseMatrix m(n, 6);
  auto lowcard = data::LowCardinalityMatrix(n, 2, 5, false, seed);
  auto sorted = data::LowCardinalityMatrix(n, 2, 7, true, seed + 1);
  Rng rng(seed + 2);
  for (size_t i = 0; i < n; ++i) {
    m.At(i, 0) = lowcard.At(i, 0);
    m.At(i, 1) = lowcard.At(i, 1);
    m.At(i, 2) = sorted.At(i, 0);
    m.At(i, 3) = sorted.At(i, 1);
    if (rng.Bernoulli(0.07)) m.At(i, 4) = rng.Normal();
    m.At(i, 5) = rng.Normal();
  }
  return m;
}

TEST(ClaMatrixOpsTest, MultiplyMatrixMatchesDense) {
  auto m = MixedData(600, 1);
  auto cm = CompressedMatrix::Compress(m);
  auto rhs = data::GaussianMatrix(6, 4, 2);
  auto y = cm.MultiplyMatrix(rhs);
  ASSERT_TRUE(y.ok());
  EXPECT_TRUE(y->ApproxEquals(la::Multiply(m, rhs), 1e-9));
}

TEST(ClaMatrixOpsTest, TransposeMultiplyMatrixMatchesDense) {
  auto m = MixedData(600, 3);
  auto cm = CompressedMatrix::Compress(m);
  auto rhs = data::GaussianMatrix(600, 3, 4);
  auto y = cm.TransposeMultiplyMatrix(rhs);
  ASSERT_TRUE(y.ok());
  EXPECT_TRUE(y->ApproxEquals(la::Multiply(la::Transpose(m), rhs), 1e-9));
}

TEST(ClaMatrixOpsTest, SingleColumnMatrixEqualsVectorOps) {
  auto m = MixedData(300, 5);
  auto cm = CompressedMatrix::Compress(m);
  auto v = data::GaussianMatrix(6, 1, 6);
  EXPECT_TRUE(cm.MultiplyMatrix(v)->ApproxEquals(*cm.MultiplyVector(v), 1e-12));
  auto u = data::GaussianMatrix(300, 1, 7);
  auto tm = *cm.TransposeMultiplyMatrix(u);           // cols x 1.
  auto vm = la::Transpose(*cm.VectorMultiply(u));     // cols x 1.
  EXPECT_TRUE(tm.ApproxEquals(vm, 1e-12));
}

TEST(ClaMatrixOpsTest, ShapeValidation) {
  auto cm = CompressedMatrix::Compress(MixedData(100, 8));
  EXPECT_FALSE(cm.MultiplyMatrix(DenseMatrix(5, 2)).ok());
  EXPECT_FALSE(cm.TransposeMultiplyMatrix(DenseMatrix(5, 2)).ok());
}

TEST(ClaMatrixOpsTest, RowSquaredNormsMatchDense) {
  auto m = MixedData(400, 9);
  auto cm = CompressedMatrix::Compress(m);
  auto norms = cm.RowSquaredNorms();
  for (size_t i = 0; i < m.rows(); ++i) {
    EXPECT_NEAR(norms.At(i, 0), la::Dot(m.Row(i), m.Row(i), m.cols()), 1e-8);
  }
}

// --------------------------------------------------------------------------
// Sampling planner
// --------------------------------------------------------------------------

TEST(ClaSamplingTest, SampledStatsApproximateExactOnes) {
  auto m = data::LowCardinalityMatrix(20000, 1, 30, false, 10);
  auto exact = CompressedMatrix::AnalyzeColumn(m, 0);
  auto sampled = CompressedMatrix::AnalyzeColumnSampled(m, 0, 2000);
  // All 30 values appear often; Chao1 should land right on 30.
  EXPECT_EQ(exact.cardinality, 30u);
  EXPECT_NEAR(static_cast<double>(sampled.cardinality), 30.0, 3.0);
  EXPECT_NEAR(static_cast<double>(sampled.num_nonzero),
              static_cast<double>(exact.num_nonzero),
              0.1 * static_cast<double>(m.rows()));
}

TEST(ClaSamplingTest, SampledPlannerPicksSameFormatsOnClearData) {
  // Clear-cut datasets where the estimator noise cannot flip the decision.
  auto lowcard = data::LowCardinalityMatrix(20000, 3, 8, false, 11);
  CompressionOptions sampling;
  sampling.sample_rows = 1000;
  auto exact_cm = CompressedMatrix::Compress(lowcard);
  auto sampled_cm = CompressedMatrix::Compress(lowcard, sampling);
  ASSERT_EQ(exact_cm.groups().size(), sampled_cm.groups().size());
  for (size_t g = 0; g < exact_cm.groups().size(); ++g) {
    EXPECT_EQ(exact_cm.groups()[g]->format(), sampled_cm.groups()[g]->format());
  }
  // And the compressed data is identical regardless of how it was planned.
  EXPECT_TRUE(sampled_cm.Decompress() == lowcard);
}

TEST(ClaSamplingTest, GaussianStaysUncompressedUnderSampling) {
  auto gauss = data::GaussianMatrix(20000, 2, 12);
  CompressionOptions sampling;
  sampling.sample_rows = 1000;
  auto cm = CompressedMatrix::Compress(gauss, sampling);
  for (const auto& g : cm.groups()) {
    EXPECT_EQ(g->format(), GroupFormat::kUncompressed);
  }
}

TEST(ClaSamplingTest, SampleLargerThanDataFallsBackToExact) {
  auto m = data::LowCardinalityMatrix(100, 1, 4, false, 13);
  auto a = CompressedMatrix::AnalyzeColumn(m, 0);
  auto b = CompressedMatrix::AnalyzeColumnSampled(m, 0, 1000);
  EXPECT_EQ(a.cardinality, b.cardinality);
  EXPECT_EQ(a.num_runs, b.num_runs);
}

// --------------------------------------------------------------------------
// Compressed k-means
// --------------------------------------------------------------------------

// k-means through the operand trainer on a non-owning compressed binding.
Result<ml::KMeansModel> KMeansOnCompressed(const CompressedMatrix& cm,
                                           const ml::KMeansConfig& config) {
  return ml::TrainKMeansOnOperand(
      laopt::Operand(std::shared_ptr<const CompressedMatrix>(std::shared_ptr<void>(), &cm)),
      config);
}

TEST(CompressedKMeansTest, RecoversBlobsThroughCompression) {
  auto blobs = data::MakeBlobs(600, 4, 3, 25.0, 0.5, 14);
  // Quantize to make the data compressible while keeping cluster structure.
  DenseMatrix quantized(blobs.x.rows(), blobs.x.cols());
  for (size_t i = 0; i < blobs.x.size(); ++i) {
    quantized.data()[i] = std::round(blobs.x.data()[i] * 4.0) / 4.0;
  }
  auto cm = CompressedMatrix::Compress(quantized);
  EXPECT_GT(cm.CompressionRatio(), 1.0);

  ml::KMeansConfig config;
  config.k = 3;
  config.max_iters = 50;
  config.seed = 15;
  auto model = KMeansOnCompressed(cm, config);
  ASSERT_TRUE(model.ok());
  // Clusters must be nearly pure.
  for (size_t c = 0; c < 3; ++c) {
    std::map<int, int> votes;
    for (size_t i = 0; i < quantized.rows(); ++i) {
      if (model->labels[i] == static_cast<int>(c)) votes[blobs.labels[i]]++;
    }
    int total = 0, best = 0;
    for (auto& [_, v] : votes) {
      total += v;
      best = std::max(best, v);
    }
    if (total > 0) {
      EXPECT_GT(static_cast<double>(best) / total, 0.9);
    }
  }
}

TEST(CompressedKMeansTest, MatchesUncompressedDistanceSemantics) {
  auto m = MixedData(300, 16);
  auto cm = CompressedMatrix::Compress(m);
  ml::KMeansConfig config;
  config.k = 4;
  config.max_iters = 30;
  config.seed = 17;
  auto model = KMeansOnCompressed(cm, config);
  ASSERT_TRUE(model.ok());
  // Labels must be argmin distances against the returned centers.
  for (size_t i = 0; i < m.rows(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_c = -1;
    for (size_t c = 0; c < 4; ++c) {
      double d = la::RowSquaredDistance(m, i, model->centers, c);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    ASSERT_EQ(model->labels[i], best_c) << "row " << i;
  }
}

TEST(CompressedKMeansTest, InertiaDecreases) {
  auto cm = CompressedMatrix::Compress(MixedData(400, 18));
  ml::KMeansConfig config;
  config.k = 3;
  auto model = KMeansOnCompressed(cm, config);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->inertia_history.size(); ++i) {
    EXPECT_LE(model->inertia_history[i], model->inertia_history[i - 1] + 1e-6);
  }
}

TEST(CompressedKMeansTest, InvalidK) {
  auto cm = CompressedMatrix::Compress(MixedData(50, 19));
  ml::KMeansConfig config;
  config.k = 0;
  EXPECT_FALSE(KMeansOnCompressed(cm, config).ok());
  config.k = 51;
  EXPECT_FALSE(KMeansOnCompressed(cm, config).ok());
}

}  // namespace
}  // namespace dmml::cla
