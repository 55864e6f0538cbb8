// Tests for factorized learning over normalized data: the factorized
// operators — whole and over a window of fact rows — agree with their
// materialized counterparts, the operand trainers learn through a
// factorized binding, and the redundancy accounting behaves as the
// tuple/feature ratios change. Parity of the
// trainers with the dense binding is in laopt_repr_test.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "data/generators.h"
#include "factorized/factorized_gramian.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "util/thread_pool.h"

namespace dmml::factorized {
namespace {

using la::DenseMatrix;

NormalizedMatrix SmallNormalized(uint64_t seed = 1) {
  data::StarSchemaOptions options;
  options.ns = 60;
  options.nr = 8;
  options.ds = 3;
  options.dr = 5;
  auto ds = data::MakeStarSchema(options, seed);
  return *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
}

TEST(NormalizedMatrixTest, MakeValidation) {
  DenseMatrix xs(4, 2);
  DenseMatrix xr(3, 2);
  // fk length mismatch.
  EXPECT_FALSE(NormalizedMatrix::Make(xs, {{xr, {0, 1}}}).ok());
  // fk out of range.
  EXPECT_FALSE(NormalizedMatrix::Make(xs, {{xr, {0, 1, 2, 3}}}).ok());
  // No attribute tables.
  EXPECT_FALSE(NormalizedMatrix::Make(xs, {}).ok());
  // OK.
  auto nm = NormalizedMatrix::Make(xs, {{xr, {0, 1, 2, 0}}});
  ASSERT_TRUE(nm.ok());
  EXPECT_EQ(nm->rows(), 4u);
  EXPECT_EQ(nm->cols(), 4u);
}

TEST(NormalizedMatrixTest, MaterializeGathersRows) {
  DenseMatrix xs{{1}, {2}, {3}};
  DenseMatrix xr{{10, 20}, {30, 40}};
  auto nm = NormalizedMatrix::Make(xs, {{xr, {1, 0, 1}}});
  ASSERT_TRUE(nm.ok());
  DenseMatrix expected{{1, 30, 40}, {2, 10, 20}, {3, 30, 40}};
  EXPECT_TRUE(nm->Materialize() == expected);
}

TEST(NormalizedMatrixTest, MultiplyMatchesMaterialized) {
  auto nm = SmallNormalized();
  auto m = data::GaussianMatrix(nm.cols(), 3, 2);
  auto fact = nm.Multiply(m);
  ASSERT_TRUE(fact.ok());
  auto mat = la::Multiply(nm.Materialize(), m);
  EXPECT_TRUE(fact->ApproxEquals(mat, 1e-9));
}

TEST(NormalizedMatrixTest, TransposeMultiplyMatchesMaterialized) {
  auto nm = SmallNormalized();
  auto m = data::GaussianMatrix(nm.rows(), 2, 3);
  auto fact = nm.TransposeMultiply(m);
  ASSERT_TRUE(fact.ok());
  auto mat = la::Multiply(la::Transpose(nm.Materialize()), m);
  EXPECT_TRUE(fact->ApproxEquals(mat, 1e-9));
}

TEST(NormalizedMatrixTest, RowSquaredNormsMatchMaterialized) {
  auto nm = SmallNormalized();
  auto norms = nm.RowSquaredNorms();
  auto mat = nm.Materialize();
  for (size_t i = 0; i < nm.rows(); ++i) {
    EXPECT_NEAR(norms.At(i, 0), la::Dot(mat.Row(i), mat.Row(i), mat.cols()), 1e-9);
  }
}

TEST(NormalizedMatrixTest, RangedProductsMatchMaterializedWindows) {
  // Two attribute tables, so every window slices the entity block and both
  // foreign-key columns while the attribute products cover whole tables.
  data::StarSchemaOptions options;
  options.ns = 50;
  options.nr = 6;
  options.ds = 2;
  options.dr = 3;
  auto ds1 = data::MakeStarSchema(options, 41);
  options.nr = 4;
  options.dr = 2;
  auto ds2 = data::MakeStarSchema(options, 42);
  auto nm = NormalizedMatrix::Make(ds1.xs, {{ds1.xr, ds1.fk}, {ds2.xr, ds2.fk}});
  ASSERT_TRUE(nm.ok());
  const size_t n = nm->rows();
  const DenseMatrix full = nm->Materialize();
  const laopt::Operand op = MakeFactorizedOperand(*nm);
  const DenseMatrix m = data::GaussianMatrix(nm->cols(), 3, 43);
  const std::pair<size_t, size_t> windows[] = {
      {0, 0}, {0, 1}, {n - 1, n}, {0, n}, {17, 33}};
  for (const auto& [b, e] : windows) {
    SCOPED_TRACE("window [" + std::to_string(b) + ", " + std::to_string(e) + ")");
    const DenseMatrix slice = full.SliceRows(b, e);
    // Densifying a window joins only its fact rows, to the same cells.
    EXPECT_TRUE(nm->Materialize(b, e) == slice);
    EXPECT_TRUE(op.linear()->Materialize(b, e, nullptr) == slice);
    EXPECT_TRUE(op.Slice(b, e).ToDense(nullptr) == slice);
    auto lmm = nm->Multiply(m, b, e);
    ASSERT_TRUE(lmm.ok()) << lmm.status().message();
    EXPECT_EQ(lmm->rows(), e - b);
    EXPECT_TRUE(lmm->ApproxEquals(la::Multiply(slice, m), 1e-12));

    const DenseMatrix r = data::GaussianMatrix(e - b, 3, 44);
    auto rmm = nm->TransposeMultiply(r, b, e);
    ASSERT_TRUE(rmm.ok()) << rmm.status().message();
    EXPECT_EQ(rmm->rows(), nm->cols());
    EXPECT_TRUE(rmm->ApproxEquals(la::Multiply(la::Transpose(slice), r), 1e-12));

    // The windowed cofactor Gramian: histograms, grouped sums and the
    // cross-table co-occurrences cover the window's fact rows only, serially
    // and through the operand on a pool.
    const DenseMatrix want = la::reference::Gram(slice);
    EXPECT_TRUE(FactorizedGramian(*nm, b, e).ApproxEquals(want, 1e-12));
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto gram = op.linear()->Gram(b, e, p);
      ASSERT_TRUE(gram.ok()) << gram.status().message();
      EXPECT_TRUE(gram->ApproxEquals(want, 1e-12));
    }
  }
  EXPECT_TRUE(FactorizedGramian(*nm, 0, n) == FactorizedGramian(*nm));
  // The full window is the unwindowed product, bit for bit.
  EXPECT_TRUE(*nm->Multiply(m, 0, n) == *nm->Multiply(m));
  const DenseMatrix u = data::GaussianMatrix(n, 2, 45);
  EXPECT_TRUE(*nm->TransposeMultiply(u, 0, n) == *nm->TransposeMultiply(u));

  EXPECT_FALSE(nm->Multiply(m, 3, 2).ok()) << "inverted window";
  EXPECT_FALSE(nm->Multiply(m, 0, n + 1).ok()) << "window past the last row";
  EXPECT_FALSE(nm->TransposeMultiply(DenseMatrix(4, 1), 0, 5).ok())
      << "operand rows must match the window";
}

TEST(NormalizedMatrixTest, ExecutorRunsWindowedTransposeProductsFactorized) {
  // t(X[b:e)) %*% R runs the windowed RMM and t(X[b:e)) %*% X[b:e) the
  // windowed cofactor Gramian, neither with a densify fallback; the Gram
  // must answer for the window, not for every row.
  auto nm = std::make_shared<const NormalizedMatrix>(SmallNormalized(46));
  const size_t b = 10, e = 35;
  const laopt::Operand x = MakeFactorizedOperand(nm).Slice(b, e);
  auto r = std::make_shared<DenseMatrix>(data::GaussianMatrix(e - b, 2, 47));
  auto xleaf = laopt::ExprNode::InputOperand(x, "X");
  auto rleaf = laopt::ExprNode::InputOperand(laopt::Operand(r), "R");
  ASSERT_TRUE(xleaf.ok() && rleaf.ok());
  auto xt = laopt::ExprNode::Transpose(*xleaf);
  ASSERT_TRUE(xt.ok());
  auto rmm = laopt::ExprNode::MatMul(*xt, *rleaf);
  auto gram = laopt::ExprNode::MatMul(*xt, *xleaf);
  ASSERT_TRUE(rmm.ok() && gram.ok());
  const DenseMatrix window = nm->Materialize().SliceRows(b, e);

  laopt::BufferedExecutor executor;
  laopt::ExecStats stats;
  auto rmm_out = executor.Run(*rmm, &stats);
  ASSERT_TRUE(rmm_out.ok()) << rmm_out.status().message();
  EXPECT_TRUE((*rmm_out)->ApproxEquals(la::Multiply(la::Transpose(window), *r), 1e-12));
  EXPECT_EQ(stats.densify_fallbacks, 0u);

  laopt::ExecStats gram_stats;
  auto gram_out = executor.Run(*gram, &gram_stats);
  ASSERT_TRUE(gram_out.ok()) << gram_out.status().message();
  EXPECT_TRUE((*gram_out)->ApproxEquals(la::Gram(window), 1e-12));
  EXPECT_EQ(gram_stats.densify_fallbacks, 0u);
  EXPECT_FALSE((*gram_out)->ApproxEquals(la::Gram(nm->Materialize()), 1e-6));
}

TEST(NormalizedMatrixTest, ShapeErrors) {
  auto nm = SmallNormalized();
  EXPECT_FALSE(nm.Multiply(DenseMatrix(nm.cols() + 1, 1)).ok());
  EXPECT_FALSE(nm.TransposeMultiply(DenseMatrix(nm.rows() + 1, 1)).ok());
}

TEST(NormalizedMatrixTest, MultipleAttributeTables) {
  data::StarSchemaOptions options;
  options.ns = 40;
  options.nr = 5;
  options.ds = 2;
  options.dr = 3;
  auto ds1 = data::MakeStarSchema(options, 4);
  options.nr = 7;
  options.dr = 4;
  auto ds2 = data::MakeStarSchema(options, 5);
  auto nm = NormalizedMatrix::Make(ds1.xs, {{ds1.xr, ds1.fk}, {ds2.xr, ds2.fk}});
  ASSERT_TRUE(nm.ok());
  EXPECT_EQ(nm->cols(), 2u + 3u + 4u);

  auto m = data::GaussianMatrix(nm->cols(), 2, 6);
  EXPECT_TRUE(nm->Multiply(m)->ApproxEquals(la::Multiply(nm->Materialize(), m), 1e-9));
  auto u = data::GaussianMatrix(nm->rows(), 2, 7);
  EXPECT_TRUE(nm->TransposeMultiply(u)->ApproxEquals(
      la::Multiply(la::Transpose(nm->Materialize()), u), 1e-9));
}

TEST(NormalizedMatrixTest, NoEntityFeatures) {
  // dS = 0: all features come through the join.
  DenseMatrix xs(5, 0);
  DenseMatrix xr{{1, 2}, {3, 4}};
  auto nm = NormalizedMatrix::Make(xs, {{xr, {0, 1, 0, 1, 1}}});
  ASSERT_TRUE(nm.ok());
  EXPECT_EQ(nm->cols(), 2u);
  auto v = DenseMatrix::ColumnVector({1.0, -1.0});
  auto y = nm->Multiply(v);
  ASSERT_TRUE(y.ok());
  EXPECT_TRUE(y->ApproxEquals(la::Gemv(nm->Materialize(), v), 1e-12));
}

TEST(NormalizedMatrixTest, RedundancyRatioGrowsWithTupleRatio) {
  data::StarSchemaOptions options;
  options.ds = 2;
  options.dr = 20;
  options.nr = 50;
  options.ns = 100;
  auto small = data::MakeStarSchema(options, 8);
  options.ns = 5000;
  auto large = data::MakeStarSchema(options, 9);
  auto nm_small = *NormalizedMatrix::Make(small.xs, {{small.xr, small.fk}});
  auto nm_large = *NormalizedMatrix::Make(large.xs, {{large.xr, large.fk}});
  EXPECT_GT(nm_large.RedundancyRatio(), nm_small.RedundancyRatio());
  EXPECT_GT(nm_large.RedundancyRatio(), 3.0);
}

// --------------------------------------------------------------------------
// Factorized GLM
// --------------------------------------------------------------------------

TEST(FactorizedGlmTest, LearnsTheRegressionTask) {
  data::StarSchemaOptions options;
  options.ns = 500;
  options.nr = 25;
  options.ds = 2;
  options.dr = 6;
  options.noise_sigma = 0.05;
  auto ds = data::MakeStarSchema(options, 11);
  auto nm = *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
  ml::GlmConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 800;
  config.tolerance = 1e-12;
  auto model = ml::TrainGlmOnOperand(MakeFactorizedOperand(nm), ds.y, config);
  ASSERT_TRUE(model.ok());
  // Predictions on the materialized matrix should be close to labels.
  auto pred = la::Gemv(nm.Materialize(), model->weights);
  for (size_t i = 0; i < pred.rows(); ++i) pred.At(i, 0) += model->intercept;
  EXPECT_GT(*ml::R2(ds.y, pred), 0.95);
}

TEST(FactorizedGlmTest, Validation) {
  const laopt::Operand x = MakeFactorizedOperand(SmallNormalized(14));
  ml::GlmConfig config;
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, DenseMatrix(3, 1), config).ok());
  config.family = ml::GlmFamily::kBinomial;
  DenseMatrix bad_labels(x.rows(), 1, 0.5);
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, bad_labels, config).ok());
  config.family = ml::GlmFamily::kGaussian;
  config.learning_rate = 0;
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, DenseMatrix(x.rows(), 1), config).ok());
}

// --------------------------------------------------------------------------
// Factorized k-means
// --------------------------------------------------------------------------

TEST(FactorizedKMeansTest, InertiaDecreases) {
  auto nm = SmallNormalized(16);
  ml::KMeansConfig config;
  config.k = 3;
  config.max_iters = 40;
  auto model = ml::TrainKMeansOnOperand(MakeFactorizedOperand(nm), config);
  ASSERT_TRUE(model.ok());
  for (size_t i = 1; i < model->inertia_history.size(); ++i) {
    EXPECT_LE(model->inertia_history[i], model->inertia_history[i - 1] + 1e-6);
  }
}

TEST(FactorizedKMeansTest, AssignmentsConsistentWithCenters) {
  auto nm = SmallNormalized(17);
  ml::KMeansConfig config;
  config.k = 3;
  auto model = ml::TrainKMeansOnOperand(MakeFactorizedOperand(nm), config);
  ASSERT_TRUE(model.ok());
  auto mat = nm.Materialize();
  // Each point's recorded label must be its argmin-distance center.
  for (size_t i = 0; i < mat.rows(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_c = -1;
    for (size_t c = 0; c < config.k; ++c) {
      double d = la::RowSquaredDistance(mat, i, model->centers, c);
      if (d < best) {
        best = d;
        best_c = static_cast<int>(c);
      }
    }
    EXPECT_EQ(model->labels[i], best_c) << "row " << i;
  }
}

TEST(FactorizedKMeansTest, InvalidK) {
  const laopt::Operand x = MakeFactorizedOperand(SmallNormalized(18));
  ml::KMeansConfig config;
  config.k = 0;
  EXPECT_FALSE(ml::TrainKMeansOnOperand(x, config).ok());
  config.k = x.rows() + 1;
  EXPECT_FALSE(ml::TrainKMeansOnOperand(x, config).ok());
}

// Property sweep: factorized operators == materialized operators across
// random star-schema shapes, including multi-table and skewed keys.
class FactorizedOpsProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t, size_t>> {};

TEST_P(FactorizedOpsProperty, OperatorsAgreeWithMaterialized) {
  auto [ns, nr, ds_, dr] = GetParam();
  data::StarSchemaOptions options;
  options.ns = ns;
  options.nr = nr;
  options.ds = ds_;
  options.dr = dr;
  options.fk_zipf_skew = (ns % 2) ? 1.1 : 0.0;
  auto ds = data::MakeStarSchema(options, ns * 31 + nr);
  auto nm = *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
  auto mat = nm.Materialize();

  auto m = data::GaussianMatrix(nm.cols(), 2, ns + 1);
  EXPECT_TRUE(nm.Multiply(m)->ApproxEquals(la::Multiply(mat, m), 1e-8));
  auto u = data::GaussianMatrix(nm.rows(), 2, ns + 2);
  EXPECT_TRUE(nm.TransposeMultiply(u)->ApproxEquals(
      la::Multiply(la::Transpose(mat), u), 1e-8));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FactorizedOpsProperty,
    ::testing::Values(std::make_tuple(50, 5, 1, 3), std::make_tuple(101, 7, 2, 9),
                      std::make_tuple(64, 64, 3, 3), std::make_tuple(200, 2, 0, 4),
                      std::make_tuple(33, 11, 5, 1)));

}  // namespace
}  // namespace dmml::factorized
