// Cross-module integration tests: end-to-end flows stitching the relational
// engine, the factorized learner, CLA, the LA optimizer, model selection and
// the parameter server together — the way a downstream user would.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"
#include "ps/parameter_server.h"
#include "relational/operators.h"

namespace dmml {
namespace {

using la::DenseMatrix;

// End-to-end: relational join of the star schema == matrix materialization,
// and a model trained on the join output performs like the factorized one.
TEST(IntegrationTest, RelationalJoinFeedsTraining) {
  data::StarSchemaOptions options;
  options.ns = 300;
  options.nr = 20;
  options.ds = 2;
  options.dr = 4;
  auto ds = data::MakeStarSchema(options, 1);

  // SQL-ish path: S JOIN R ON fk = rid, project features, pull the matrix.
  auto joined = relational::HashJoin(ds.s, ds.r, "fk", "rid");
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 300u);
  std::vector<std::string> feature_cols = {"xs0", "xs1", "xr0", "xr1", "xr2", "xr3"};
  auto x_rel = joined->ToMatrix(feature_cols);
  ASSERT_TRUE(x_rel.ok());
  auto y_rel = joined->ToMatrix({"y"});
  ASSERT_TRUE(y_rel.ok());

  // The join output must match the matrix-level materialization row-for-row
  // (hash join preserves left order for PK-FK joins).
  auto nm = *factorized::NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}});
  EXPECT_TRUE(x_rel->ApproxEquals(nm.Materialize(), 1e-12));

  // Training on the relational output == training on the factorized form.
  ml::GlmConfig config;
  config.max_epochs = 100;
  config.learning_rate = 0.05;
  auto from_sql = ml::TrainGlm(*x_rel, *y_rel, config);
  auto from_factorized =
      ml::TrainGlmOnOperand(factorized::MakeFactorizedOperand(nm), ds.y, config);
  ASSERT_TRUE(from_sql.ok());
  ASSERT_TRUE(from_factorized.ok());
  EXPECT_TRUE(from_sql->weights.ApproxEquals(from_factorized->weights, 1e-7));
}

// CLA path: compress the design matrix, run the gradient iteration on the
// compressed data, and match the dense-trained model.
TEST(IntegrationTest, GradientDescentOnCompressedMatrix) {
  auto x = data::LowCardinalityMatrix(400, 6, 6, false, 2);
  Rng rng(3);
  DenseMatrix w_true(6, 1);
  for (size_t j = 0; j < 6; ++j) w_true.At(j, 0) = rng.Normal();
  DenseMatrix y = la::Gemv(x, w_true);

  auto cm = cla::CompressedMatrix::Compress(x);
  ASSERT_GT(cm.CompressionRatio(), 1.0);

  // Manual batch GD using only compressed ops.
  DenseMatrix w(6, 1);
  const double lr = 0.05;
  const double inv_n = 1.0 / 400.0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    auto scores = cm.MultiplyVector(w);
    ASSERT_TRUE(scores.ok());
    DenseMatrix residual = la::Subtract(*scores, y);
    auto grad = cm.VectorMultiply(residual);
    ASSERT_TRUE(grad.ok());
    for (size_t j = 0; j < 6; ++j) w.At(j, 0) -= lr * grad->At(0, j) * inv_n;
  }
  EXPECT_TRUE(w.ApproxEquals(w_true, 1e-3));
}

// LA optimizer path: the normal-equations expression evaluated through the
// DAG (with chain reordering) equals the direct kernel computation.
TEST(IntegrationTest, OptimizerPipelineComputesGramVector) {
  auto x = data::GaussianMatrix(150, 8, 4);
  auto v = data::GaussianMatrix(150, 1, 5);
  auto ex = *laopt::ExprNode::Input(std::make_shared<DenseMatrix>(x), "X");
  auto ev = *laopt::ExprNode::Input(std::make_shared<DenseMatrix>(v), "v");
  // t(X) * X * t(t(X)) ... keep it meaningful: g = t(X) * (X * (t(X) * v)).
  auto expr = *laopt::ExprNode::MatMul(
      *laopt::ExprNode::Transpose(ex),
      *laopt::ExprNode::MatMul(
          ex, *laopt::ExprNode::MatMul(*laopt::ExprNode::Transpose(ex), ev)));
  auto optimized = laopt::Optimize(expr);
  ASSERT_TRUE(optimized.ok());
  auto result = laopt::Execute(*optimized);
  ASSERT_TRUE(result.ok());
  auto xt = la::Transpose(x);
  auto expected = la::Multiply(xt, la::Multiply(x, la::Multiply(xt, v)));
  EXPECT_TRUE(result->ApproxEquals(expected, 1e-7));
}

// Model-selection over a relationally-produced dataset, then validate the
// winner with the parameter server across all consistency modes.
TEST(IntegrationTest, GridSearchThenParameterServer) {
  auto ds = data::MakeClassification(400, 4, 0.05, 6);
  modelsel::GridSpec grid;
  grid.base.family = ml::GlmFamily::kBinomial;
  grid.base.max_epochs = 40;
  grid.base.tolerance = 0;
  grid.learning_rates = {0.01, 0.3};
  grid.l2_penalties = {0.0, 0.01};
  auto search = modelsel::GridSearchBatched(ds.x, ds.y, grid, 3, 7);
  ASSERT_TRUE(search.ok());
  const auto& best = search->scores[search->best_index].config;

  ps::PsConfig ps_config;
  ps_config.family = ml::GlmFamily::kBinomial;
  ps_config.learning_rate = best.learning_rate;
  ps_config.l2 = best.l2;
  ps_config.epochs = 30;
  ps_config.num_workers = 2;
  for (auto mode : {ps::ConsistencyMode::kBsp, ps::ConsistencyMode::kAsync,
                    ps::ConsistencyMode::kSsp}) {
    ps_config.mode = mode;
    auto result = ps::TrainGlmParameterServer(ds.x, ds.y, ps_config);
    ASSERT_TRUE(result.ok());
    auto labels = result->model.PredictLabels(ds.x);
    EXPECT_GT(*ml::Accuracy(ds.y, *labels), 0.8)
        << ps::ConsistencyModeName(mode);
  }
}

// Star schema -> relational aggregates: COUNT per rid equals FK histogram.
TEST(IntegrationTest, RelationalAggregatesMatchGeneratorStats) {
  data::StarSchemaOptions options;
  options.ns = 500;
  options.nr = 10;
  auto ds = data::MakeStarSchema(options, 8);
  auto counts = relational::GroupBy(
      ds.s, {"fk"}, {{relational::AggFunc::kCount, "", "n"}});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->num_rows(), 10u);

  std::map<int64_t, int64_t> histogram;
  for (uint32_t key : ds.fk) histogram[key]++;
  auto fk_idx = *counts->schema().FieldIndex("fk");
  auto n_idx = *counts->schema().FieldIndex("n");
  for (size_t i = 0; i < counts->num_rows(); ++i) {
    int64_t key = counts->column(fk_idx).GetInt64(i);
    EXPECT_EQ(counts->column(n_idx).GetInt64(i), histogram[key]);
  }
}

// Compressed + factorized together: compress the attribute table's features
// (low-cardinality dimension data), decompress and verify factorized ops
// still agree — a data-lake-ish flow.
TEST(IntegrationTest, CompressedDimensionTableRoundTrip) {
  data::StarSchemaOptions options;
  options.ns = 200;
  options.nr = 40;
  options.ds = 1;
  options.dr = 3;
  auto ds = data::MakeStarSchema(options, 9);
  // Quantize dimension features to create compressible data.
  DenseMatrix xr_quant(ds.xr.rows(), ds.xr.cols());
  for (size_t i = 0; i < ds.xr.size(); ++i) {
    xr_quant.data()[i] = std::round(ds.xr.data()[i] * 2) / 2.0;
  }
  auto cm = cla::CompressedMatrix::Compress(xr_quant);
  EXPECT_TRUE(cm.Decompress() == xr_quant);

  auto nm = *factorized::NormalizedMatrix::Make(ds.xs, {{cm.Decompress(), ds.fk}});
  auto v = data::GaussianMatrix(nm.cols(), 1, 10);
  EXPECT_TRUE(nm.Multiply(v)->ApproxEquals(la::Gemv(nm.Materialize(), v), 1e-9));
}

}  // namespace
}  // namespace dmml
