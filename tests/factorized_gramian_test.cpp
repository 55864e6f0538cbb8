// Tests for the factorized Gramian (Orion cofactor computation) and the
// closed-form normal equations over a factorized operand, which take XᵀX
// and colSums(X) from it.
#include <gtest/gtest.h>

#include "data/generators.h"
#include "factorized/factorized_gramian.h"
#include "factorized/factorized_operand.h"
#include "la/kernels.h"
#include "ml/glm.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"

namespace dmml::factorized {
namespace {

using la::DenseMatrix;

NormalizedMatrix MakeNm(size_t ns, size_t nr, size_t ds_cols, size_t dr,
                        uint64_t seed, double skew = 0.0) {
  data::StarSchemaOptions options;
  options.ns = ns;
  options.nr = nr;
  options.ds = ds_cols;
  options.dr = dr;
  options.fk_zipf_skew = skew;
  auto ds = data::MakeStarSchema(options, seed);
  return *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
}

TEST(FactorizedGramianTest, MatchesMaterializedGramian) {
  auto nm = MakeNm(120, 9, 3, 5, 1);
  DenseMatrix gram = FactorizedGramian(nm);
  auto mat = nm.Materialize();
  auto expected = la::Multiply(la::Transpose(mat), mat);
  EXPECT_TRUE(gram.ApproxEquals(expected, 1e-7));
}

TEST(FactorizedGramianTest, GramianIsSymmetric) {
  auto nm = MakeNm(80, 7, 2, 4, 2);
  DenseMatrix gram = FactorizedGramian(nm);
  for (size_t a = 0; a < gram.rows(); ++a) {
    for (size_t b = 0; b < gram.cols(); ++b) {
      EXPECT_DOUBLE_EQ(gram.At(a, b), gram.At(b, a));
    }
  }
}

TEST(FactorizedGramianTest, MultiTableCrossBlocks) {
  // Two attribute tables exercise the sparse co-occurrence path.
  data::StarSchemaOptions options;
  options.ns = 150;
  options.nr = 6;
  options.ds = 2;
  options.dr = 3;
  auto ds1 = data::MakeStarSchema(options, 3);
  options.nr = 11;
  options.dr = 4;
  auto ds2 = data::MakeStarSchema(options, 4);
  auto nm = *NormalizedMatrix::Make(ds1.xs, {{ds1.xr, ds1.fk}, {ds2.xr, ds2.fk}});

  DenseMatrix gram = FactorizedGramian(nm);
  auto mat = nm.Materialize();
  EXPECT_TRUE(gram.ApproxEquals(la::Multiply(la::Transpose(mat), mat), 1e-7));
}

TEST(FactorizedGramianTest, NoEntityFeatures) {
  DenseMatrix xs(40, 0);
  auto xr = data::GaussianMatrix(5, 3, 5);
  std::vector<uint32_t> fk(40);
  for (size_t i = 0; i < 40; ++i) fk[i] = static_cast<uint32_t>(i % 5);
  auto nm = *NormalizedMatrix::Make(xs, {{xr, fk}});
  DenseMatrix gram = FactorizedGramian(nm);
  auto mat = nm.Materialize();
  EXPECT_TRUE(gram.ApproxEquals(la::Multiply(la::Transpose(mat), mat), 1e-8));
}

TEST(FactorizedColumnSumsTest, MatchesMaterialized) {
  auto nm = MakeNm(90, 8, 2, 6, 6, /*skew=*/1.2);
  DenseMatrix sums = FactorizedColumnSums(nm);
  auto expected = la::Transpose(la::ColumnSums(nm.Materialize()));
  EXPECT_TRUE(sums.ApproxEquals(expected, 1e-8));
}

// Normal equations over the factorized binding of `nm`.
Result<ml::GlmModel> FactorizedNormalEquations(const NormalizedMatrix& nm,
                                               const DenseMatrix& y, double l2,
                                               bool fit_intercept = true) {
  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  config.l2 = l2;
  config.fit_intercept = fit_intercept;
  ml::GlmModel model;
  DMML_RETURN_IF_ERROR(ml::RunNormalEquationsOnOperand(MakeFactorizedOperand(nm), y,
                                                       config, nullptr, &model));
  return model;
}

TEST(FactorizedNormalEquationsTest, MatchesDenseNormalEquations) {
  data::StarSchemaOptions options;
  options.ns = 400;
  options.nr = 25;
  options.ds = 2;
  options.dr = 6;
  options.noise_sigma = 0.1;
  auto ds = data::MakeStarSchema(options, 7);
  auto nm = *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});

  auto fact = FactorizedNormalEquations(nm, ds.y, /*l2=*/0.0);
  ASSERT_TRUE(fact.ok());

  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  auto dense = ml::TrainGlm(nm.Materialize(), ds.y, config);
  ASSERT_TRUE(dense.ok());

  EXPECT_TRUE(fact->weights.ApproxEquals(dense->weights, 1e-6));
  EXPECT_NEAR(fact->intercept, dense->intercept, 1e-6);
}

TEST(FactorizedNormalEquationsTest, RidgeMatchesDenseRidge) {
  auto nm = MakeNm(200, 12, 2, 5, 8);
  DenseMatrix y(nm.rows(), 1);
  Rng rng(9);
  for (size_t i = 0; i < y.rows(); ++i) y.At(i, 0) = rng.Normal();

  auto fact = FactorizedNormalEquations(nm, y, /*l2=*/0.5);
  ASSERT_TRUE(fact.ok());
  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  config.l2 = 0.5;
  auto dense = ml::TrainGlm(nm.Materialize(), y, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_TRUE(fact->weights.ApproxEquals(dense->weights, 1e-6));
}

TEST(FactorizedNormalEquationsTest, WithoutIntercept) {
  auto nm = MakeNm(150, 10, 2, 4, 10);
  DenseMatrix y(nm.rows(), 1, 1.0);
  auto fact = FactorizedNormalEquations(nm, y, 0.0, /*fit_intercept=*/false);
  ASSERT_TRUE(fact.ok());
  EXPECT_EQ(fact->intercept, 0.0);
  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  config.fit_intercept = false;
  auto dense = ml::TrainGlm(nm.Materialize(), y, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_TRUE(fact->weights.ApproxEquals(dense->weights, 1e-6));
}

TEST(FactorizedNormalEquationsTest, SolvesTheRegressionTask) {
  data::StarSchemaOptions options;
  options.ns = 600;
  options.nr = 30;
  options.ds = 3;
  options.dr = 8;
  options.noise_sigma = 0.05;
  auto ds = data::MakeStarSchema(options, 11);
  auto nm = *NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
  auto model = FactorizedNormalEquations(nm, ds.y, 0.0);
  ASSERT_TRUE(model.ok());
  auto pred = la::Gemv(nm.Materialize(), model->weights);
  for (size_t i = 0; i < pred.rows(); ++i) pred.At(i, 0) += model->intercept;
  EXPECT_GT(*ml::R2(ds.y, pred), 0.99);
}

TEST(FactorizedNormalEquationsTest, Validation) {
  auto nm = MakeNm(50, 5, 1, 2, 12);
  EXPECT_FALSE(FactorizedNormalEquations(nm, DenseMatrix(3, 1), 0.0).ok());
}

// Property sweep: factorized gramian == materialized gramian across shapes.
class GramianProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t, size_t>> {};

TEST_P(GramianProperty, AgreesWithMaterialized) {
  auto [ns, nr, ds_cols, dr] = GetParam();
  auto nm = MakeNm(ns, nr, ds_cols, dr, ns * 7 + nr, (ns % 2) ? 1.3 : 0.0);
  DenseMatrix gram = FactorizedGramian(nm);
  auto mat = nm.Materialize();
  EXPECT_TRUE(gram.ApproxEquals(la::Multiply(la::Transpose(mat), mat), 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GramianProperty,
    ::testing::Values(std::make_tuple(30, 3, 1, 2), std::make_tuple(77, 11, 4, 3),
                      std::make_tuple(64, 64, 2, 2), std::make_tuple(120, 2, 0, 5),
                      std::make_tuple(45, 9, 3, 1)));

}  // namespace
}  // namespace dmml::factorized
