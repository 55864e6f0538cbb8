// Tests for the declarative pipeline front-end: one logical program, two
// physical routes. Materialized and factorized lowerings must produce
// identical models (<= 1e-9) across dense/CSR/CLA bindings; the cost-based
// chooser must flip routes as the tuple ratio crosses the crossover; invalid
// plans must be rejected with the offending pipeline stage named; and the
// est-vs-actual cardinality counters must move.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/generators.h"
#include "ml/encoding.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "relational/logical_plan.h"
#include "relational/predicate.h"
#include "storage/catalog.h"

namespace dmml::pipeline {
namespace {

using relational::CompareOp;
using relational::LogicalNode;

storage::Catalog StarCatalog(size_t ns, size_t nr, size_t ds, size_t dr,
                             uint64_t seed = 7) {
  data::StarSchemaOptions o;
  o.ns = ns;
  o.nr = nr;
  o.ds = ds;
  o.dr = dr;
  o.noise_sigma = 0.1;
  auto gen = data::MakeStarSchema(o, seed);
  storage::Catalog catalog;
  catalog.PutTable("orders", std::move(gen.s));
  catalog.PutTable("products", std::move(gen.r));
  return catalog;
}

std::vector<std::string> StarFeatures(size_t ds, size_t dr) {
  std::vector<std::string> f;
  for (size_t j = 0; j < ds; ++j) f.push_back("xs" + std::to_string(j));
  for (size_t j = 0; j < dr; ++j) f.push_back("xr" + std::to_string(j));
  return f;
}

Pipeline StarPipeline(const storage::Catalog* catalog, size_t ds, size_t dr,
                      Route route) {
  PipelineOptions opts;
  opts.route = route;
  return Pipeline::From(catalog, "orders")
      .Join("products", "fk", "rid")
      .Features(StarFeatures(ds, dr))
      .Label("y")
      .WithOptions(opts);
}

void ExpectModelsAgree(const ml::GlmModel& a, const ml::GlmModel& b,
                       double tol) {
  ASSERT_EQ(a.weights.rows(), b.weights.rows());
  for (size_t i = 0; i < a.weights.rows(); ++i) {
    EXPECT_NEAR(a.weights.At(i, 0), b.weights.At(i, 0), tol) << "weight " << i;
  }
  EXPECT_NEAR(a.intercept, b.intercept, tol);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
}

// ---------------------------------------------------------------------------
// Logical plan layer.

TEST(LogicalPlanTest, EstimatesScanFilterJoin) {
  storage::Catalog catalog = StarCatalog(500, 20, 2, 3);
  relational::StatisticsCache stats(&catalog);

  auto scan = LogicalNode::Scan("orders");
  auto scan_est = relational::EstimateCardinality(*scan, &stats);
  ASSERT_TRUE(scan_est.ok());
  EXPECT_DOUBLE_EQ(*scan_est, 500.0);

  auto filtered = LogicalNode::Filter(
      scan, relational::Compare("xs0", CompareOp::kGt, 0.0));
  auto filter_est = relational::EstimateCardinality(*filtered, &stats);
  ASSERT_TRUE(filter_est.ok());
  // Gaussian features: roughly half the rows qualify.
  EXPECT_GT(*filter_est, 100.0);
  EXPECT_LT(*filter_est, 400.0);

  auto joined = LogicalNode::Join(filtered, LogicalNode::Scan("products"),
                                  "fk", "rid");
  auto join_est = relational::EstimateCardinality(*joined, &stats);
  ASSERT_TRUE(join_est.ok());
  // PK-FK join keeps the (filtered) fact cardinality.
  EXPECT_NEAR(*join_est, *filter_est, 1.0);
}

TEST(LogicalPlanTest, ExecuteRecordsObservationsAndCounters) {
  storage::Catalog catalog = StarCatalog(300, 10, 2, 3);
  auto plan = LogicalNode::Join(
      LogicalNode::Filter(LogicalNode::Scan("orders"),
                          relational::Compare("xs0", CompareOp::kGt, -10.0)),
      LogicalNode::Scan("products"), "fk", "rid");

  auto* est_counter = obs::MetricsRegistry::Global().GetCounter(
      "relational.stats.estimated_rows");
  auto* act_counter = obs::MetricsRegistry::Global().GetCounter(
      "relational.stats.actual_rows");
  const uint64_t est_before = est_counter->Value();
  const uint64_t act_before = act_counter->Value();

  std::vector<relational::OperatorObservation> ops;
  auto out = relational::ExecutePlan(*plan, catalog, nullptr, &ops);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 300u);  // xs0 > -10 keeps everything; PK-FK join.

  ASSERT_EQ(ops.size(), 4u);  // Scan, Filter, Scan, Join.
  EXPECT_EQ(ops[0].op_name, "Scan(orders)");
  EXPECT_EQ(ops[1].op_name, "Filter(orders)");
  EXPECT_EQ(ops[3].op_name, "Join(orders.fk = products.rid)");
  EXPECT_EQ(ops[3].actual_rows, 300u);
  EXPECT_GT(ops[3].estimated_rows, 0.0);

  EXPECT_GT(est_counter->Value(), est_before);
  EXPECT_GT(act_counter->Value(), act_before);
}

TEST(LogicalPlanTest, SchemaErrorsNameTheStage) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 1);
  auto bad_filter = LogicalNode::Filter(
      LogicalNode::Scan("orders"),
      relational::Compare("nope", CompareOp::kGt, 0.0));
  auto s = relational::OutputSchema(*bad_filter, catalog);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("Filter(orders)"), std::string::npos);

  auto bad_join = LogicalNode::Join(LogicalNode::Scan("orders"),
                                    LogicalNode::Scan("products"), "xs0",
                                    "rid");
  auto j = relational::OutputSchema(*bad_join, catalog);
  ASSERT_FALSE(j.ok());
  EXPECT_NE(j.status().message().find("Join("), std::string::npos);
  EXPECT_NE(j.status().message().find("type mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Route parity: one pipeline program, identical models on every route.

TEST(PipelineParityTest, GlmMaterializedVsFactorized) {
  storage::Catalog catalog = StarCatalog(400, 16, 2, 4);
  ml::GlmConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 40;

  auto mat = StarPipeline(&catalog, 2, 4, Route::kMaterialize)
                 .TrainGlm(config);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  auto fact = StarPipeline(&catalog, 2, 4, Route::kFactorized)
                  .TrainGlm(config);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();

  EXPECT_EQ(mat->report.chosen_route, Route::kMaterialize);
  EXPECT_EQ(fact->report.chosen_route, Route::kFactorized);
  ExpectModelsAgree(mat->model, fact->model, 1e-9);
  EXPECT_EQ(mat->report.actual_rows, 400u);
  EXPECT_EQ(fact->report.actual_rows, 400u);
  EXPECT_EQ(mat->report.feature_names, fact->report.feature_names);
}

TEST(PipelineParityTest, GlmWithFilterOnBaseTable) {
  storage::Catalog catalog = StarCatalog(500, 10, 2, 3);
  ml::GlmConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 30;
  auto pred = relational::Compare("xs0", CompareOp::kGt, -0.5);

  PipelineOptions mat_opts;
  mat_opts.route = Route::kMaterialize;
  auto mat = Pipeline::From(&catalog, "orders")
                 .Filter(pred)
                 .Join("products", "fk", "rid")
                 .Features(StarFeatures(2, 3))
                 .Label("y")
                 .WithOptions(mat_opts)
                 .TrainGlm(config);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();

  PipelineOptions fact_opts;
  fact_opts.route = Route::kFactorized;
  auto fact = Pipeline::From(&catalog, "orders")
                  .Filter(pred)
                  .Join("products", "fk", "rid")
                  .Features(StarFeatures(2, 3))
                  .Label("y")
                  .WithOptions(fact_opts)
                  .TrainGlm(config);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();

  EXPECT_LT(mat->report.actual_rows, 500u);
  EXPECT_EQ(mat->report.actual_rows, fact->report.actual_rows);
  ExpectModelsAgree(mat->model, fact->model, 1e-9);
}

TEST(PipelineParityTest, GlmAcrossCsrAndClaBindings) {
  storage::Catalog catalog = StarCatalog(300, 12, 2, 3);
  ml::GlmConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 30;

  auto fact = StarPipeline(&catalog, 2, 3, Route::kFactorized)
                  .TrainGlm(config);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();

  for (Binding binding : {Binding::kDense, Binding::kCsr, Binding::kCla}) {
    PipelineOptions opts;
    opts.route = Route::kMaterialize;
    opts.binding = binding;
    auto mat = Pipeline::From(&catalog, "orders")
                   .Join("products", "fk", "rid")
                   .Features(StarFeatures(2, 3))
                   .Label("y")
                   .WithOptions(opts)
                   .TrainGlm(config);
    ASSERT_TRUE(mat.ok()) << BindingName(binding) << ": "
                          << mat.status().ToString();
    EXPECT_EQ(mat->report.chosen_binding, binding);
    ExpectModelsAgree(mat->model, fact->model, 1e-9);
  }
}

TEST(PipelineParityTest, NormalEquationsBothRoutes) {
  storage::Catalog catalog = StarCatalog(250, 10, 2, 3);
  ml::GlmConfig config;
  config.l2 = 1e-3;

  auto mat = StarPipeline(&catalog, 2, 3, Route::kMaterialize)
                 .NormalEquations(config);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  auto fact = StarPipeline(&catalog, 2, 3, Route::kFactorized)
                  .NormalEquations(config);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();
  ExpectModelsAgree(mat->model, fact->model, 1e-9);
}

TEST(PipelineParityTest, KMeansBothRoutes) {
  storage::Catalog catalog = StarCatalog(300, 12, 2, 4);
  ml::KMeansConfig config;
  config.k = 4;
  config.max_iters = 15;

  auto mat = StarPipeline(&catalog, 2, 4, Route::kMaterialize)
                 .TrainKMeans(config);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  auto fact = StarPipeline(&catalog, 2, 4, Route::kFactorized)
                  .TrainKMeans(config);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();

  ASSERT_EQ(mat->model.centers.rows(), fact->model.centers.rows());
  ASSERT_EQ(mat->model.centers.cols(), fact->model.centers.cols());
  for (size_t c = 0; c < mat->model.centers.rows(); ++c) {
    for (size_t j = 0; j < mat->model.centers.cols(); ++j) {
      EXPECT_NEAR(mat->model.centers.At(c, j), fact->model.centers.At(c, j),
                  1e-9);
    }
  }
  EXPECT_EQ(mat->model.labels, fact->model.labels);
  EXPECT_NEAR(mat->model.inertia, fact->model.inertia,
              1e-9 * std::max(1.0, mat->model.inertia));
}

// ---------------------------------------------------------------------------
// The chooser.

TEST(PipelineChooserTest, PicksFactorizedAboveCrossover) {
  // High tuple ratio (3000 facts over 10 dims) and a wide dimension table:
  // per-epoch factorized work is a fraction of the materialized GEMM.
  storage::Catalog catalog = StarCatalog(3000, 10, 1, 40);
  ml::GlmConfig config;
  config.learning_rate = 0.01;
  config.max_epochs = 60;
  auto fit = StarPipeline(&catalog, 1, 40, Route::kAuto).TrainGlm(config);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->report.chosen_route, Route::kFactorized);
  EXPECT_EQ(fit->report.route_reason, "cost");
  EXPECT_GT(fit->report.materialized_cost, fit->report.factorized_cost);
  EXPECT_GT(fit->report.est_rows, 0.0);
}

TEST(PipelineChooserTest, PicksMaterializedBelowCrossover) {
  // Tuple ratio < 1: the "dimension" table is taller than the fact table,
  // so each epoch's factorized pass touches more cells than the small
  // materialized join output — no redundancy to exploit.
  storage::Catalog catalog = StarCatalog(100, 400, 2, 3);
  ml::GlmConfig config;
  config.learning_rate = 0.05;
  config.max_epochs = 30;
  auto fit = StarPipeline(&catalog, 2, 3, Route::kAuto).TrainGlm(config);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->report.chosen_route, Route::kMaterialize);
  EXPECT_EQ(fit->report.route_reason, "cost");
  EXPECT_LT(fit->report.materialized_cost, fit->report.factorized_cost);
}

TEST(PipelineChooserTest, ExplainRendersRelationalPrefixAndRoute) {
  storage::Catalog catalog = StarCatalog(2000, 8, 1, 30);
  ml::GlmConfig config;
  config.max_epochs = 50;
  auto fit = StarPipeline(&catalog, 1, 30, Route::kAuto).TrainGlm(config);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const std::string text = fit->report.ExplainText();
  EXPECT_NE(text.find("route: factorized"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(orders)"), std::string::npos);
  EXPECT_NE(text.find("Join(orders.fk = products.rid)"), std::string::npos);
  EXPECT_NE(text.find("[factorized: join not materialized]"),
            std::string::npos);
  EXPECT_NE(text.find("laopt epoch program"), std::string::npos);
  EXPECT_NE(text.find("est"), std::string::npos);
  // The batch-GD route for the bound operand, with both of its costs.
  ASSERT_TRUE(fit->report.training_route.has_value());
  EXPECT_EQ(fit->report.training_route->route, ml::BatchGdRoute::kStatistics);
  EXPECT_NE(text.find("training: batch GD on the statistics route — cost statistics "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(" vs scan "), std::string::npos);
  // Closed-form and k-means fits run no batch-GD engine.
  ml::GlmConfig ne_config;
  ne_config.solver = ml::GlmSolver::kNormalEquations;
  ne_config.l2 = 0.1;  // 8 dimension rows leave XᵀX singular.
  auto ne = StarPipeline(&catalog, 1, 30, Route::kAuto).NormalEquations(ne_config);
  ASSERT_TRUE(ne.ok()) << ne.status().ToString();
  EXPECT_FALSE(ne->report.training_route.has_value());
  EXPECT_EQ(ne->report.ExplainText().find("training:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rejection: errors name the offending pipeline stage.

TEST(PipelineRejectionTest, UnknownFeatureColumn) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 2);
  auto fit = Pipeline::From(&catalog, "orders")
                 .Join("products", "fk", "rid")
                 .Features({"xs0", "bogus"})
                 .Label("y")
                 .TrainGlm({});
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.status().message().find("pipeline stage Features"),
            std::string::npos)
      << fit.status().ToString();
}

TEST(PipelineRejectionTest, UnknownLabelColumn) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 2);
  auto fit = Pipeline::From(&catalog, "orders")
                 .Join("products", "fk", "rid")
                 .Features({"xs0"})
                 .Label("not_y")
                 .TrainGlm({});
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.status().message().find("pipeline stage Label"),
            std::string::npos);
}

TEST(PipelineRejectionTest, TrainGlmRejectsNonBatchGdSolvers) {
  // TrainGlm runs batch gradient descent on either route; any other solver
  // must be refused by name instead of silently running batch GD.
  storage::Catalog catalog = StarCatalog(60, 6, 1, 2);
  for (Route route : {Route::kMaterialize, Route::kFactorized}) {
    for (ml::GlmSolver solver :
         {ml::GlmSolver::kSgd, ml::GlmSolver::kAdam, ml::GlmSolver::kHogwild,
          ml::GlmSolver::kNormalEquations}) {
      ml::GlmConfig config;
      config.solver = solver;
      auto fit = StarPipeline(&catalog, 1, 2, route).TrainGlm(config);
      ASSERT_FALSE(fit.ok());
      EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(fit.status().message().find("solver"), std::string::npos)
          << fit.status().ToString();
    }
  }
  ml::GlmConfig sgd_config;
  sgd_config.solver = ml::GlmSolver::kSgd;
  auto sgd = StarPipeline(&catalog, 1, 2, Route::kAuto).TrainGlm(sgd_config);
  ASSERT_FALSE(sgd.ok());
  EXPECT_NE(sgd.status().message().find("sgd"), std::string::npos)
      << sgd.status().ToString();
  EXPECT_TRUE(StarPipeline(&catalog, 1, 2, Route::kAuto).TrainGlm({}).ok());
}

TEST(PipelineRejectionTest, JoinKeyShapeMismatch) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 2);
  // xs0 is a double column: joining it against the int64 rid must be
  // rejected at plan time, naming the Join stage.
  auto fit = Pipeline::From(&catalog, "orders")
                 .Join("products", "xs0", "rid")
                 .Features({"xs0"})
                 .Label("y")
                 .TrainGlm({});
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.status().message().find("Join("), std::string::npos);
  EXPECT_NE(fit.status().message().find("type mismatch"), std::string::npos);
}

TEST(PipelineRejectionTest, FilterOverUnknownColumn) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 2);
  auto fit = Pipeline::From(&catalog, "orders")
                 .Filter(relational::Compare("ghost", CompareOp::kLt, 1.0))
                 .Join("products", "fk", "rid")
                 .Features({"xs0"})
                 .Label("y")
                 .TrainGlm({});
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.status().message().find("Filter("), std::string::npos);
}

TEST(PipelineRejectionTest, ForcedFactorizedButIneligible) {
  storage::Catalog catalog = StarCatalog(50, 5, 1, 2);
  PipelineOptions opts;
  opts.route = Route::kFactorized;
  // Filter placed after the join makes the factorized lowering ineligible.
  auto fit = Pipeline::From(&catalog, "orders")
                 .Join("products", "fk", "rid")
                 .Filter(relational::Compare("xr0", CompareOp::kGt, 0.0))
                 .Features({"xs0"})
                 .Label("y")
                 .WithOptions(opts)
                 .TrainGlm({});
  ASSERT_FALSE(fit.ok());
  EXPECT_NE(fit.status().message().find("ineligible"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CSR feature assembly (numeric + one-hot in one sparse matrix).

storage::Table CarsTable() {
  storage::Schema schema({{"y", storage::DataType::kDouble, false},
                          {"mileage", storage::DataType::kDouble, false},
                          {"color", storage::DataType::kString, true}});
  storage::Table t(schema);
  const char* colors[] = {"red", "blue", "green", "blue", "red", "green",
                          "red", "blue", "green", "red", "blue", "green"};
  for (size_t i = 0; i < 12; ++i) {
    double mileage = 1.0 + static_cast<double>(i % 5);
    double y = 2.0 * mileage + (colors[i][0] == 'r' ? 1.0 : -1.0);
    (void)t.AppendRow({y, mileage, std::string(colors[i])});
  }
  return t;
}

TEST(FeatureAssemblyTest, CsrMatchesDenseAssembly) {
  storage::Table t = CarsTable();
  auto assembled = ml::AssembleFeaturesCsr(t, {"mileage"}, {"color"});
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  // 1 numeric + 3 one-hot slots (blue, green, red — sorted dictionaries).
  EXPECT_EQ(assembled->matrix.cols(), 4u);
  EXPECT_EQ(assembled->feature_names.size(), 4u);
  EXPECT_EQ(assembled->feature_names[0], "mileage");
  EXPECT_EQ(assembled->feature_names[1], "color=blue");

  la::DenseMatrix dense = assembled->matrix.ToDense();
  auto mileage = *t.ColumnToVector("mileage");
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(dense.At(i, 0), mileage.At(i, 0));
    double onehot_sum = 0;
    for (size_t j = 1; j < 4; ++j) onehot_sum += dense.At(i, j);
    EXPECT_DOUBLE_EQ(onehot_sum, 1.0);  // Exactly one indicator per row.
  }
}

TEST(FeatureAssemblyTest, PipelineWithCategoricalsUsesCsrBinding) {
  storage::Catalog catalog;
  catalog.PutTable("cars", CarsTable());
  ml::GlmConfig config;
  config.l2 = 1e-6;
  auto fit = Pipeline::From(&catalog, "cars")
                 .Features({"mileage"})
                 .CategoricalFeatures({"color"})
                 .Label("y")
                 .NormalEquations(config);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->report.chosen_route, Route::kMaterialize);
  EXPECT_EQ(fit->report.chosen_binding, Binding::kCsr);
  EXPECT_EQ(fit->report.feature_cols, 4u);
  ASSERT_EQ(fit->report.feature_names.size(), 4u);
  EXPECT_EQ(fit->report.feature_names[2], "color=green");
  // The ridge fit should recover the mileage effect almost exactly.
  EXPECT_NEAR(fit->model.weights.At(0, 0), 2.0, 0.05);
}

// ---------------------------------------------------------------------------
// Fallback: duplicate dimension keys cannot be factorized.

TEST(PipelineFallbackTest, DuplicateDimensionKeysMaterialize) {
  storage::Schema orders_schema({{"fk", storage::DataType::kInt64, false},
                                 {"y", storage::DataType::kDouble, false},
                                 {"xs0", storage::DataType::kDouble, false}});
  storage::Table orders(orders_schema);
  for (int i = 0; i < 20; ++i) {
    (void)orders.AppendRow(
        {static_cast<int64_t>(i % 3), 0.5 * i, static_cast<double>(i)});
  }
  storage::Schema dims_schema({{"rid", storage::DataType::kInt64, false},
                               {"xr0", storage::DataType::kDouble, false}});
  storage::Table dims(dims_schema);
  for (int i = 0; i < 4; ++i) {
    // rid 0 appears twice: not a PK side.
    (void)dims.AppendRow({static_cast<int64_t>(i % 3), 1.0 * i});
  }
  storage::Catalog catalog;
  catalog.PutTable("orders", std::move(orders));
  catalog.PutTable("dims", std::move(dims));

  PipelineOptions opts;
  opts.route = Route::kFactorized;
  ml::GlmConfig config;
  config.max_epochs = 5;
  auto fit = Pipeline::From(&catalog, "orders")
                 .Join("dims", "fk", "rid")
                 .Features({"xs0", "xr0"})
                 .Label("y")
                 .WithOptions(opts)
                 .TrainGlm(config);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->report.chosen_route, Route::kMaterialize);
  EXPECT_NE(fit->report.route_reason.find("duplicate"), std::string::npos);
  // The duplicated rid fans out: more output rows than fact rows.
  EXPECT_GT(fit->report.actual_rows, 20u);
}

}  // namespace
}  // namespace dmml::pipeline
