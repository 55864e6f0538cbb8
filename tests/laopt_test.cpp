// Tests for the LA expression DAG, the rewrite optimizer (transpose
// elimination, scalar folding, matrix-chain reordering) and the executor.
#include <gtest/gtest.h>

#include <memory>

#include "data/generators.h"
#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/optimizer.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;

ExprPtr Leaf(const DenseMatrix& m, std::string name = "") {
  return *ExprNode::Input(std::make_shared<DenseMatrix>(m), std::move(name));
}

TEST(ExprTest, ShapeInference) {
  auto a = Leaf(DenseMatrix(3, 4));
  auto b = Leaf(DenseMatrix(4, 2));
  auto mm = ExprNode::MatMul(a, b);
  ASSERT_TRUE(mm.ok());
  EXPECT_EQ((*mm)->rows(), 3u);
  EXPECT_EQ((*mm)->cols(), 2u);
  auto t = ExprNode::Transpose(a);
  EXPECT_EQ((*t)->rows(), 4u);
  EXPECT_EQ((*t)->cols(), 3u);
}

TEST(ExprTest, ShapeErrors) {
  auto a = Leaf(DenseMatrix(3, 4));
  auto b = Leaf(DenseMatrix(3, 4));
  EXPECT_FALSE(ExprNode::MatMul(a, b).ok());
  EXPECT_TRUE(ExprNode::Add(a, b).ok());
  EXPECT_FALSE(ExprNode::Add(a, Leaf(DenseMatrix(4, 3))).ok());
  EXPECT_FALSE(ExprNode::ElemMul(a, Leaf(DenseMatrix(3, 5))).ok());
  EXPECT_FALSE(ExprNode::Input(nullptr).ok());
}

TEST(ExprTest, ToStringRendersStructure) {
  auto x = Leaf(DenseMatrix(3, 2), "X");
  auto expr = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  EXPECT_EQ(expr->ToString(), "(t(X[3x2]) * X[3x2])");
}

TEST(ExprTest, NumNodesCountsSharedOnce) {
  auto x = Leaf(DenseMatrix(3, 3), "X");
  auto xx = *ExprNode::MatMul(x, x);        // Shares the same leaf.
  EXPECT_EQ(xx->NumNodes(), 2u);            // mm + shared leaf.
  auto sum = *ExprNode::Add(xx, xx);        // Shares the same matmul.
  EXPECT_EQ(sum->NumNodes(), 3u);
}

TEST(ExecutorTest, EvaluatesArithmetic) {
  DenseMatrix a{{1, 2}, {3, 4}};
  DenseMatrix b{{5, 6}, {7, 8}};
  auto expr = *ExprNode::Add(*ExprNode::MatMul(Leaf(a), Leaf(b)),
                             *ExprNode::ScalarMul(2.0, Leaf(a)));
  auto result = Execute(expr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == la::Add(la::Multiply(a, b), la::Scale(a, 2.0)));
}

TEST(ExecutorTest, EvaluatesAllOps) {
  DenseMatrix a{{1, 2}, {3, 4}};
  auto ea = Leaf(a);
  EXPECT_TRUE(*Execute(*ExprNode::Transpose(ea)) == la::Transpose(a));
  EXPECT_TRUE(*Execute(*ExprNode::Subtract(ea, ea)) == DenseMatrix(2, 2));
  EXPECT_TRUE(*Execute(*ExprNode::ElemMul(ea, ea)) ==
              la::ElementwiseMultiply(a, a));
  EXPECT_TRUE(*Execute(ea) == a);
}

TEST(ExecutorTest, MemoizesSharedSubDags) {
  auto x = Leaf(data::GaussianMatrix(20, 20, 1), "X");
  auto xx = *ExprNode::MatMul(x, x);
  auto expr = *ExprNode::Add(xx, xx);  // Same matmul twice.
  ExecStats stats;
  auto result = Execute(expr, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.ops_executed, 2u);  // One matmul + one add.
  EXPECT_GE(stats.memo_hits, 1u);
}

TEST(OptimizerTest, EliminatesDoubleTranspose) {
  auto x = Leaf(data::GaussianMatrix(4, 6, 2), "X");
  auto expr = *ExprNode::Transpose(*ExprNode::Transpose(x));
  OptimizerReport report;
  auto optimized = Optimize(expr, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.transposes_eliminated, 1u);
  EXPECT_EQ((*optimized)->kind(), OpKind::kInput);
  EXPECT_TRUE(*Execute(*optimized) == *Execute(expr));
}

TEST(OptimizerTest, FoldsNestedScalars) {
  auto x = Leaf(data::GaussianMatrix(3, 3, 3), "X");
  auto expr = *ExprNode::ScalarMul(2.0, *ExprNode::ScalarMul(3.0, x));
  OptimizerReport report;
  auto optimized = Optimize(expr, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.scalars_folded, 1u);
  EXPECT_EQ((*optimized)->kind(), OpKind::kScalarMul);
  EXPECT_DOUBLE_EQ((*optimized)->scalar(), 6.0);
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(expr), 1e-12));
}

TEST(OptimizerTest, HoistsScalarOutOfMatMul) {
  auto x = Leaf(data::GaussianMatrix(3, 3, 4), "X");
  auto y = Leaf(data::GaussianMatrix(3, 3, 5), "Y");
  auto expr = *ExprNode::MatMul(*ExprNode::ScalarMul(2.0, x),
                                *ExprNode::ScalarMul(5.0, y));
  auto optimized = Optimize(expr);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ((*optimized)->kind(), OpKind::kScalarMul);
  EXPECT_DOUBLE_EQ((*optimized)->scalar(), 10.0);
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(expr), 1e-9));
}

TEST(OptimizerTest, ReordersSkewedChain) {
  // t(X) * (X * v): already optimal. Force the bad order (t(X)*X)*v and
  // check the optimizer recovers the cheap one.
  auto x = Leaf(data::GaussianMatrix(200, 30, 6), "X");
  auto v = Leaf(data::GaussianMatrix(200, 1, 7), "v");
  auto xt = *ExprNode::Transpose(x);
  auto bad = *ExprNode::MatMul(*ExprNode::MatMul(xt, x), *ExprNode::MatMul(xt, v));
  OptimizerReport report;
  auto optimized = Optimize(bad, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_LT(report.flops_after, report.flops_before);
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(bad), 1e-7));
}

TEST(OptimizerTest, ChainReorderingPreservesValue) {
  // A(2x50) B(50x3) C(3x40): left-to-right is poor; optimal splits at B.
  auto a = Leaf(data::GaussianMatrix(2, 50, 8), "A");
  auto b = Leaf(data::GaussianMatrix(50, 3, 9), "B");
  auto c = Leaf(data::GaussianMatrix(3, 40, 10), "C");
  auto expr = *ExprNode::MatMul(*ExprNode::MatMul(a, b), c);
  OptimizerReport report;
  auto optimized = Optimize(expr, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(expr), 1e-9));
}

TEST(OptimizerTest, OptimalChainCostDp) {
  // Classic example: shapes 10x30, 30x5, 5x60.
  // (A(BC)): 2*(30*5*60 + 10*30*60) = 54000; ((AB)C): 2*(10*30*5 + 10*5*60)=9000.
  double cost = OptimalChainCost({{10, 30}, {30, 5}, {5, 60}});
  EXPECT_DOUBLE_EQ(cost, 9000.0);
  EXPECT_DOUBLE_EQ(OptimalChainCost({{3, 4}}), 0.0);
  EXPECT_DOUBLE_EQ(OptimalChainCost({{2, 3}, {3, 4}}), 2.0 * 2 * 3 * 4);
}

TEST(OptimizerTest, PassesCanBeDisabled) {
  auto x = Leaf(data::GaussianMatrix(4, 4, 11), "X");
  auto expr = *ExprNode::Transpose(*ExprNode::Transpose(x));
  OptimizerOptions options;
  options.eliminate_transposes = false;
  OptimizerReport report;
  auto optimized = Optimize(expr, options, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.transposes_eliminated, 0u);
  EXPECT_EQ((*optimized)->kind(), OpKind::kTranspose);
}

TEST(OptimizerTest, OptimizeThenExecute) {
  auto x = Leaf(data::GaussianMatrix(10, 3, 12), "X");
  auto v = Leaf(data::GaussianMatrix(10, 1, 13), "v");
  auto expr =
      *ExprNode::MatMul(*ExprNode::Transpose(x), v);  // t(X)*v : 3x1 result.
  auto optimized = Optimize(expr);
  ASSERT_TRUE(optimized.ok());
  auto result = Execute(*optimized);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 3u);
}

TEST(EstimateFlopsTest, CountsMultiplyCost) {
  auto a = Leaf(DenseMatrix(10, 20));
  auto b = Leaf(DenseMatrix(20, 5));
  auto mm = *ExprNode::MatMul(a, b);
  EXPECT_DOUBLE_EQ(EstimateFlops(mm), 2.0 * 10 * 20 * 5);
}

// Property sweep: optimizer output always matches unoptimized output on
// random DAGs assembled from a fixed grammar.
class OptimizerEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalenceProperty, RandomDagsPreserveSemantics) {
  const int seed = GetParam();
  Rng rng(seed);
  // Random conforming chain of 4 matrices with random inner dims, plus
  // transposes and scalars sprinkled in.
  std::vector<size_t> dims(5);
  for (auto& d : dims) d = 1 + rng.UniformInt(uint64_t{30});
  ExprPtr chain =
      Leaf(data::GaussianMatrix(dims[0], dims[1], seed * 10), "M0");
  for (int i = 1; i < 4; ++i) {
    ExprPtr next = Leaf(
        data::GaussianMatrix(dims[i], dims[i + 1], seed * 10 + i), "M");
    if (rng.Bernoulli(0.3)) {
      next = *ExprNode::Transpose(*ExprNode::Transpose(next));
    }
    if (rng.Bernoulli(0.3)) next = *ExprNode::ScalarMul(1.5, next);
    chain = *ExprNode::MatMul(chain, next);
  }
  auto optimized = Optimize(chain);
  ASSERT_TRUE(optimized.ok());
  auto expected = Execute(chain);
  auto actual = Execute(*optimized);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  double scale = std::max(1.0, la::FrobeniusNorm(*expected));
  EXPECT_TRUE(actual->ApproxEquals(*expected, 1e-7 * scale))
      << chain->ToString() << " vs " << (*optimized)->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceProperty,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace dmml::laopt
