// Tests for model selection: grid expansion, k-fold splits, cross-validation
// scoring, batched multi-config training equivalence with sequential
// training, and grid-search agreement between both strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "data/generators.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"

namespace dmml::modelsel {
namespace {

using la::DenseMatrix;
using ml::GlmConfig;
using ml::GlmFamily;

TEST(GridSpecTest, ExpandIsCartesianProduct) {
  GridSpec grid;
  grid.learning_rates = {0.1, 0.2, 0.3};
  grid.l2_penalties = {0.0, 1.0};
  auto configs = grid.Expand();
  ASSERT_EQ(configs.size(), 6u);
  std::set<std::pair<double, double>> seen;
  for (const auto& c : configs) seen.insert({c.learning_rate, c.l2});
  EXPECT_EQ(seen.size(), 6u);
}

TEST(GridSpecTest, BasePropagates) {
  GridSpec grid;
  grid.base.family = GlmFamily::kBinomial;
  grid.base.max_epochs = 17;
  grid.learning_rates = {0.5};
  grid.l2_penalties = {0.1};
  auto configs = grid.Expand();
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].family, GlmFamily::kBinomial);
  EXPECT_EQ(configs[0].max_epochs, 17u);
  EXPECT_DOUBLE_EQ(configs[0].learning_rate, 0.5);
}

TEST(KFoldTest, PartitionsAllIndicesExactlyOnce) {
  auto kf = KFold::Make(103, 5, 1);
  ASSERT_TRUE(kf.ok());
  std::set<size_t> seen;
  size_t total = 0;
  for (size_t f = 0; f < kf->num_folds(); ++f) {
    for (size_t i : kf->ValidationIndices(f)) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
      ++total;
    }
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(*seen.rbegin(), 102u);
}

TEST(KFoldTest, TrainingIsComplementOfValidation) {
  auto kf = KFold::Make(20, 4, 2);
  ASSERT_TRUE(kf.ok());
  for (size_t f = 0; f < 4; ++f) {
    auto train = kf->TrainingIndices(f);
    auto val = kf->ValidationIndices(f);
    EXPECT_EQ(train.size() + val.size(), 20u);
    std::set<size_t> train_set(train.begin(), train.end());
    for (size_t i : val) EXPECT_FALSE(train_set.count(i));
  }
}

TEST(KFoldTest, Validation) {
  EXPECT_FALSE(KFold::Make(10, 1, 3).ok());
  EXPECT_FALSE(KFold::Make(3, 4, 3).ok());
  EXPECT_TRUE(KFold::Make(3, 3, 3).ok());
}

TEST(GatherRowsTest, SelectsRows) {
  DenseMatrix m{{1, 2}, {3, 4}, {5, 6}};
  auto g = GatherRows(m, {2, 0});
  EXPECT_TRUE(g == (DenseMatrix{{5, 6}, {1, 2}}));
}

TEST(CrossValidateTest, GoodModelScoresWell) {
  auto ds = data::MakeClassification(300, 4, 0.05, 4);
  GlmConfig config;
  config.family = GlmFamily::kBinomial;
  config.learning_rate = 0.5;
  config.max_epochs = 120;
  auto score = CrossValidate(ds.x, ds.y, config, 5, 7);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->fold_scores.size(), 5u);
  EXPECT_GT(score->mean_score, 0.75);
  EXPECT_GE(score->std_score, 0.0);
}

TEST(CrossValidateTest, GaussianUsesNegatedRmse) {
  auto ds = data::MakeRegression(200, 3, 0.1, 5);
  GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  auto score = CrossValidate(ds.x, ds.y, config, 4, 8);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(score->mean_score, 0.0);   // Negated RMSE.
  EXPECT_GT(score->mean_score, -0.5);  // Low noise -> small RMSE.
}

TEST(BatchedTrainTest, MatchesSequentialBatchGdExactly) {
  auto ds = data::MakeRegression(250, 5, 0.1, 6);
  GridSpec grid;
  grid.base.max_epochs = 40;
  grid.base.tolerance = 0;  // Disable early stop so epochs align.
  grid.learning_rates = {0.02, 0.05, 0.1};
  grid.l2_penalties = {0.0, 0.5};
  auto configs = grid.Expand();

  auto batched = BatchedTrainGlm(ds.x, ds.y, configs);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    GlmConfig config = configs[c];
    config.tolerance = 0;
    auto solo = ml::TrainGlmOnOperand(ml::BorrowOperand(ds.x), ds.y, config);
    ASSERT_TRUE(solo.ok());
    EXPECT_TRUE((*batched)[c].weights.ApproxEquals(solo->weights, 1e-8))
        << "config " << c;
    EXPECT_NEAR((*batched)[c].intercept, solo->intercept, 1e-8);
  }
}

TEST(BatchedTrainTest, LogisticFamilyAgrees) {
  auto ds = data::MakeClassification(200, 3, 0.1, 7);
  GlmConfig base;
  base.family = GlmFamily::kBinomial;
  base.max_epochs = 30;
  base.tolerance = 0;
  std::vector<GlmConfig> configs(2, base);
  configs[0].learning_rate = 0.2;
  configs[1].learning_rate = 0.6;
  auto batched = BatchedTrainGlm(ds.x, ds.y, configs);
  ASSERT_TRUE(batched.ok());
  for (size_t c = 0; c < 2; ++c) {
    GlmConfig config = configs[c];
    auto solo = ml::TrainGlmOnOperand(ml::BorrowOperand(ds.x), ds.y, config);
    ASSERT_TRUE(solo.ok());
    EXPECT_TRUE((*batched)[c].weights.ApproxEquals(solo->weights, 1e-8));
  }
}

TEST(BatchedTrainTest, RejectsHeterogeneousConfigs) {
  auto ds = data::MakeRegression(50, 2, 0.1, 8);
  GlmConfig a, b;
  b.family = GlmFamily::kBinomial;
  EXPECT_FALSE(BatchedTrainGlm(ds.x, ds.y, {a, b}).ok());
  GlmConfig c = a;
  c.max_epochs = a.max_epochs + 1;
  EXPECT_FALSE(BatchedTrainGlm(ds.x, ds.y, {a, c}).ok());
  EXPECT_FALSE(BatchedTrainGlm(ds.x, ds.y, {}).ok());
}

TEST(BatchedTrainTest, RejectsBadData) {
  GlmConfig config;
  EXPECT_FALSE(BatchedTrainGlm(DenseMatrix(0, 2), DenseMatrix(0, 1), {config}).ok());
  EXPECT_FALSE(BatchedTrainGlm(DenseMatrix(5, 2), DenseMatrix(4, 1), {config}).ok());
}

TEST(BatchedTrainTest, RejectsSolversOtherThanBatchGd) {
  // The rung engine runs batch GD only; it must refuse another solver by
  // name instead of silently substituting batch GD (GridSearchSequential
  // honours the solver, so the two strategies would disagree).
  auto ds = data::MakeRegression(60, 3, 0.1, 13);
  GlmConfig config;
  config.max_epochs = 5;
  for (ml::GlmSolver solver : {ml::GlmSolver::kSgd, ml::GlmSolver::kAdam,
                               ml::GlmSolver::kNormalEquations}) {
    GlmConfig other = config;
    other.solver = solver;
    auto batched = BatchedTrainGlm(ds.x, ds.y, {config, other});
    ASSERT_FALSE(batched.ok());
    EXPECT_EQ(batched.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(batched.status().message().find("got solver"), std::string::npos)
        << batched.status().message();

    GridSpec grid;
    grid.base = other;
    grid.learning_rates = {0.05};
    grid.l2_penalties = {0.0};
    auto search = GridSearchBatched(ds.x, ds.y, grid, 3, 14);
    ASSERT_FALSE(search.ok());
    EXPECT_EQ(search.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(search.status().message().find("got solver"), std::string::npos)
        << search.status().message();
  }
  GlmConfig sgd = config;
  sgd.solver = ml::GlmSolver::kSgd;
  auto sgd_only = BatchedTrainGlm(ds.x, ds.y, {sgd});
  ASSERT_FALSE(sgd_only.ok());
  EXPECT_NE(sgd_only.status().message().find("sgd"), std::string::npos)
      << sgd_only.status().message();
}

TEST(GridSearchTest, SequentialAndBatchedPickReasonableConfigs) {
  auto ds = data::MakeClassification(240, 4, 0.1, 9);
  GridSpec grid;
  grid.base.family = GlmFamily::kBinomial;
  grid.base.max_epochs = 60;
  grid.base.tolerance = 0;
  grid.learning_rates = {0.001, 0.3};  // Tiny lr barely learns.
  grid.l2_penalties = {0.0};

  auto seq = GridSearchSequential(ds.x, ds.y, grid, 4, 10);
  auto bat = GridSearchBatched(ds.x, ds.y, grid, 4, 10);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(bat.ok());
  ASSERT_EQ(seq->scores.size(), 2u);
  ASSERT_EQ(bat->scores.size(), 2u);
  // Both must prefer the workable learning rate.
  EXPECT_DOUBLE_EQ(seq->scores[seq->best_index].config.learning_rate, 0.3);
  EXPECT_DOUBLE_EQ(bat->scores[bat->best_index].config.learning_rate, 0.3);
  // And their per-config scores should agree closely (same algorithm, same
  // folds; batched differs only in data-access pattern).
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(seq->scores[c].mean_score, bat->scores[c].mean_score, 1e-6);
  }
}

TEST(GridSearchTest, EmptyGridRejected) {
  auto ds = data::MakeRegression(50, 2, 0.1, 11);
  GridSpec grid;
  EXPECT_FALSE(GridSearchSequential(ds.x, ds.y, grid, 3, 1).ok());
  EXPECT_FALSE(GridSearchBatched(ds.x, ds.y, grid, 3, 1).ok());
}

// Property sweep: batched == sequential across grid sizes and families.
class BatchedEquivalenceProperty
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BatchedEquivalenceProperty, BatchedMatchesSolo) {
  auto [num_configs, binomial] = GetParam();
  auto reg = data::MakeRegression(120, 3, 0.2, 12);
  auto cls = data::MakeClassification(120, 3, 0.1, 12);
  const DenseMatrix& x = binomial ? cls.x : reg.x;
  const DenseMatrix& y = binomial ? cls.y : reg.y;

  GlmConfig base;
  base.family = binomial ? GlmFamily::kBinomial : GlmFamily::kGaussian;
  base.max_epochs = 15;
  base.tolerance = 0;
  std::vector<GlmConfig> configs;
  for (int c = 0; c < num_configs; ++c) {
    GlmConfig cfg = base;
    cfg.learning_rate = 0.05 * (c + 1);
    cfg.l2 = 0.1 * c;
    configs.push_back(cfg);
  }
  auto batched = BatchedTrainGlm(x, y, configs);
  ASSERT_TRUE(batched.ok());
  for (int c = 0; c < num_configs; ++c) {
    auto solo = ml::TrainGlmOnOperand(ml::BorrowOperand(x), y, configs[c]);
    ASSERT_TRUE(solo.ok());
    EXPECT_TRUE((*batched)[c].weights.ApproxEquals(solo->weights, 1e-8));
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, BatchedEquivalenceProperty,
                         ::testing::Combine(::testing::Values(1, 4, 9),
                                            ::testing::Bool()));

}  // namespace
}  // namespace dmml::modelsel
