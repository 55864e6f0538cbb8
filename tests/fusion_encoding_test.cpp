// Tests for fused elementwise execution and categorical encoding.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "data/generators.h"
#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "ml/encoding.h"
#include "ml/glm.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"

namespace dmml {
namespace {

using la::DenseMatrix;
using laopt::ExprNode;
using laopt::ExprPtr;

ExprPtr Leaf(const DenseMatrix& m, const char* name = "M") {
  return *ExprNode::Input(std::make_shared<DenseMatrix>(m), name);
}

// --------------------------------------------------------------------------
// Fusion
// --------------------------------------------------------------------------

TEST(FusionTest, OptimizeFusesChainsOfTwoOrMoreOps) {
  auto a = Leaf(DenseMatrix(3, 3), "A");
  auto b = Leaf(DenseMatrix(3, 3), "B");
  // Single op: not worth fusing.
  EXPECT_EQ((*laopt::Optimize(*ExprNode::Add(a, b)))->kind(),
            laopt::OpKind::kAdd);
  // Two chained elementwise ops: one fused node.
  auto chain = *ExprNode::Add(*ExprNode::ScalarMul(2.0, a), b);
  auto fused_chain = *laopt::Optimize(chain);
  EXPECT_EQ(fused_chain->kind(), laopt::OpKind::kFused);
  EXPECT_EQ(fused_chain->NumFusedOps(), 2u);
  // MatMul roots and leaves are never fused.
  auto mm = *ExprNode::MatMul(a, b);
  EXPECT_EQ((*laopt::Optimize(mm))->kind(), laopt::OpKind::kMatMul);
  EXPECT_EQ((*laopt::Optimize(a))->kind(), laopt::OpKind::kInput);
}

TEST(FusionTest, FusedResultMatchesUnfused) {
  auto a = Leaf(data::GaussianMatrix(20, 10, 1), "A");
  auto b = Leaf(data::GaussianMatrix(20, 10, 2), "B");
  auto c = Leaf(data::GaussianMatrix(20, 10, 3), "C");
  // 2*A + B .* C - 0.5*B
  auto expr = *ExprNode::Subtract(
      *ExprNode::Add(*ExprNode::ScalarMul(2.0, a), *ExprNode::ElemMul(b, c)),
      *ExprNode::ScalarMul(0.5, b));
  laopt::OptimizerReport report;
  auto plan = laopt::Optimize(expr, {}, &report);
  ASSERT_TRUE(plan.ok());
  auto fused = laopt::Execute(*plan);
  auto plain = laopt::Execute(expr);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(*fused == *plain);
  EXPECT_EQ(report.regions_fused, 1u);
  EXPECT_GE(report.ops_fused, 4u);
}

TEST(FusionTest, FusesAroundMatMulBoundaries) {
  auto x = Leaf(data::GaussianMatrix(30, 8, 4), "X");
  auto v = Leaf(data::GaussianMatrix(8, 1, 5), "v");
  auto y = Leaf(data::GaussianMatrix(30, 1, 6), "y");
  // (X*v - y) .* (X*v - y), each residual built on its own over one shared
  // matmul: the fused region sits on top of it.
  auto mv = *ExprNode::MatMul(x, v);
  auto squared =
      *ExprNode::ElemMul(*ExprNode::Subtract(mv, y), *ExprNode::Subtract(mv, y));
  laopt::OptimizerReport report;
  auto plan = laopt::Optimize(squared, {}, &report);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(report.regions_fused, 1u);
  ASSERT_EQ((*plan)->kind(), laopt::OpKind::kFused);
  EXPECT_EQ((*plan)->NumFusedOps(), 3u);
  // The matmul stays one node, read by two loads.
  ASSERT_EQ((*plan)->children().size(), 2u);
  EXPECT_EQ((*plan)->children()[0]->kind(), laopt::OpKind::kMatMul);
  laopt::ExecStats stats;
  auto fused = laopt::Execute(*plan, nullptr, &stats);
  auto plain = laopt::Execute(squared);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(stats.ops_executed, 2u);  // The matmul and the fused node.
  EXPECT_TRUE(*fused == *plain);
}

TEST(FusionTest, AggregatesAndTransposesStillWork) {
  auto a = Leaf(data::GaussianMatrix(7, 5, 7), "A");
  auto expr = *ExprNode::Sum(
      *ExprNode::Add(*ExprNode::ScalarMul(3.0, a), *ExprNode::ElemMul(a, a)));
  auto plan = laopt::Optimize(expr);
  ASSERT_TRUE(plan.ok());
  // The region feeds the aggregate.
  EXPECT_EQ((*plan)->kind(), laopt::OpKind::kSum);
  EXPECT_EQ((*plan)->children()[0]->kind(), laopt::OpKind::kFused);
  auto fused = laopt::Execute(*plan);
  auto plain = laopt::Execute(expr);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(*fused == *plain);
}

TEST(FusionTest, DuplicateLeafLoadsOnce) {
  auto am = std::make_shared<DenseMatrix>(data::GaussianMatrix(5, 5, 8));
  auto a = *ExprNode::Input(am, "A");
  // a + a + a: one distinct input, three loads of the same slot.
  auto expr = *ExprNode::Add(*ExprNode::Add(a, a), a);
  auto plan = laopt::Optimize(expr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->children().size(), 1u);
  auto fused = laopt::Execute(*plan);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(fused->ApproxEquals(la::Scale(*am, 3.0), 1e-12));
}

TEST(FusionTest, NullRejected) { EXPECT_FALSE(laopt::Optimize(nullptr).ok()); }

// --------------------------------------------------------------------------
// One-hot encoding
// --------------------------------------------------------------------------

storage::Table CityTable() {
  storage::Table t(storage::Schema({{"city", storage::DataType::kString, true},
                                    {"tier", storage::DataType::kString, true}}));
  auto add = [&](const char* city, const char* tier) {
    EXPECT_TRUE(t.AppendRow({std::string(city), std::string(tier)}).ok());
  };
  add("lyon", "b");
  add("paris", "a");
  add("lyon", "a");
  add("nice", "b");
  return t;
}

TEST(OneHotTest, EncodesSortedDictionaries) {
  ml::OneHotEncoder encoder;
  auto encoded = encoder.FitTransform(CityTable(), {"city", "tier"});
  ASSERT_TRUE(encoded.ok());
  // city dict: {lyon, nice, paris}; tier dict: {a, b} -> width 5.
  EXPECT_EQ(encoder.TotalWidth(), 5u);
  EXPECT_EQ(encoded->rows(), 4u);
  EXPECT_EQ(encoded->cols(), 5u);
  auto names = encoder.FeatureNames();
  EXPECT_EQ(names[0], "city=lyon");
  EXPECT_EQ(names[2], "city=paris");
  EXPECT_EQ(names[3], "tier=a");
  // Row 1 = paris/a: indicators at city=paris (2) and tier=a (3).
  EXPECT_DOUBLE_EQ(encoded->At(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(encoded->At(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(encoded->At(1, 0), 0.0);
  // Exactly one indicator per block per row.
  for (size_t i = 0; i < 4; ++i) {
    double city_block = encoded->At(i, 0) + encoded->At(i, 1) + encoded->At(i, 2);
    EXPECT_DOUBLE_EQ(city_block, 1.0);
  }
}

TEST(OneHotTest, UnseenValuesAndNullsEncodeAsZero) {
  ml::OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(CityTable(), {"city"}).ok());
  storage::Table fresh(
      storage::Schema({{"city", storage::DataType::kString, true}}));
  ASSERT_TRUE(fresh.AppendRow({std::string("tokyo")}).ok());  // Unseen.
  ASSERT_TRUE(fresh.AppendRow({std::monostate{}}).ok());      // NULL.
  ASSERT_TRUE(fresh.AppendRow({std::string("lyon")}).ok());
  auto encoded = encoder.Transform(fresh);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->nnz(), 1u);  // Only the lyon row.
  EXPECT_DOUBLE_EQ(encoded->At(2, 0), 1.0);
}

TEST(OneHotTest, TrainableEndToEnd) {
  // Category determines the label; one-hot + sparse logistic nails it.
  storage::Table t(storage::Schema({{"cat", storage::DataType::kString, false}}));
  Rng rng(9);
  DenseMatrix y(400, 1);
  const char* values[] = {"red", "green", "blue", "cyan"};
  for (size_t i = 0; i < 400; ++i) {
    size_t v = rng.UniformInt(uint64_t{4});
    ASSERT_TRUE(t.AppendRow({std::string(values[v])}).ok());
    y.At(i, 0) = (v < 2) ? 1.0 : 0.0;
  }
  ml::OneHotEncoder encoder;
  auto x = encoder.FitTransform(t, {"cat"});
  ASSERT_TRUE(x.ok());
  ml::GlmConfig config;
  config.family = ml::GlmFamily::kBinomial;
  config.learning_rate = 1.0;
  config.max_epochs = 200;
  auto model = ml::TrainGlmOnOperand(
      laopt::Operand(std::make_shared<const la::SparseMatrix>(*x)), y, config);
  ASSERT_TRUE(model.ok());
  auto labels = model->PredictLabels(x->ToDense());
  EXPECT_DOUBLE_EQ(*ml::Accuracy(y, *labels), 1.0);
}

TEST(OneHotTest, Validation) {
  ml::OneHotEncoder encoder;
  EXPECT_FALSE(encoder.Fit(CityTable(), {}).ok());
  EXPECT_FALSE(encoder.Fit(CityTable(), {"ghost"}).ok());
  EXPECT_FALSE(encoder.Transform(CityTable()).ok());  // Unfitted.
  storage::Table numeric(
      storage::Schema({{"n", storage::DataType::kInt64, false}}));
  EXPECT_FALSE(encoder.Fit(numeric, {"n"}).ok());
}

// --------------------------------------------------------------------------
// Hash encoding
// --------------------------------------------------------------------------

TEST(HashEncodeTest, OneEntryPerNonNullCell) {
  auto encoded = ml::HashEncode(CityTable(), {"city", "tier"}, 32);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->rows(), 4u);
  EXPECT_EQ(encoded->cols(), 32u);
  // 8 cells, all non-NULL; collisions within a row could merge entries but
  // with 32 buckets and 2 columns that's unlikely for this fixed data.
  EXPECT_EQ(encoded->nnz(), 8u);
}

TEST(HashEncodeTest, DeterministicAndSeedSensitive) {
  auto a = ml::HashEncode(CityTable(), {"city"}, 16, 1);
  auto b = ml::HashEncode(CityTable(), {"city"}, 16, 1);
  auto c = ml::HashEncode(CityTable(), {"city"}, 16, 2);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(*a == *b);
  EXPECT_FALSE(*a == *c);  // Different seed relocates features (w.h.p.).
}

TEST(HashEncodeTest, SameValueDifferentColumnsHashApart) {
  storage::Table t(storage::Schema({{"c1", storage::DataType::kString, false},
                                    {"c2", storage::DataType::kString, false}}));
  ASSERT_TRUE(t.AppendRow({std::string("x"), std::string("x")}).ok());
  auto encoded = ml::HashEncode(t, {"c1", "c2"}, 1024);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->nnz(), 2u);  // Column namespacing separates them.
}

TEST(HashEncodeTest, Validation) {
  EXPECT_FALSE(ml::HashEncode(CityTable(), {"city"}, 0).ok());
  EXPECT_FALSE(ml::HashEncode(CityTable(), {}, 8).ok());
  EXPECT_FALSE(ml::HashEncode(CityTable(), {"ghost"}, 8).ok());
}

}  // namespace
}  // namespace dmml
