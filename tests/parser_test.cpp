// Tests for the declarative expression language (DML-style parser).
#include <gtest/gtest.h>

#include <memory>

#include "data/generators.h"
#include "la/kernels.h"
#include "la/sparse_matrix.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = std::make_shared<DenseMatrix>(data::GaussianMatrix(10, 4, 1));
    v_ = std::make_shared<DenseMatrix>(data::GaussianMatrix(10, 1, 2));
    w_ = std::make_shared<DenseMatrix>(data::GaussianMatrix(4, 1, 3));
    env_ = {{"X", x_}, {"v", v_}, {"w", w_}};
  }

  std::shared_ptr<DenseMatrix> x_, v_, w_;
  Environment env_;
};

TEST_F(ParserTest, SingleIdentifier) {
  auto result = EvalExpression("X", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == *x_);
}

TEST_F(ParserTest, MatMulAndTranspose) {
  auto result = EvalExpression("t(X) %*% v", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(la::Multiply(la::Transpose(*x_), *v_), 1e-12));
}

TEST_F(ParserTest, GramVectorPattern) {
  auto result = EvalExpression("t(X) %*% (X %*% w)", env_);
  ASSERT_TRUE(result.ok());
  auto expected = la::Multiply(la::Transpose(*x_), la::Multiply(*x_, *w_));
  EXPECT_TRUE(result->ApproxEquals(expected, 1e-10));
}

TEST_F(ParserTest, AdditionSubtractionElementwise) {
  auto result = EvalExpression("v + v - v * v", env_);
  ASSERT_TRUE(result.ok());
  auto expected = la::Subtract(la::Add(*v_, *v_), la::ElementwiseMultiply(*v_, *v_));
  EXPECT_TRUE(result->ApproxEquals(expected, 1e-12));
}

TEST_F(ParserTest, ScalarMultiplicationBothSides) {
  auto left = EvalExpression("2.5 * v", env_);
  auto right = EvalExpression("v * 2.5", env_);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(left->ApproxEquals(la::Scale(*v_, 2.5), 1e-12));
  EXPECT_TRUE(right->ApproxEquals(*left, 1e-12));
}

TEST_F(ParserTest, ScalarArithmeticFolds) {
  auto result = EvalExpression("(2 * 3 + 4) * v", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(la::Scale(*v_, 10.0), 1e-12));
}

TEST_F(ParserTest, UnaryMinus) {
  auto result = EvalExpression("-v + v", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(DenseMatrix(10, 1), 1e-12));
  auto scaled = EvalExpression("-2 * v", env_);
  ASSERT_TRUE(scaled.ok());
  EXPECT_TRUE(scaled->ApproxEquals(la::Scale(*v_, -2.0), 1e-12));
}

TEST_F(ParserTest, PrecedenceMulBeforeAdd) {
  // v + 2*v = 3v, not (v+2)*v.
  auto result = EvalExpression("v + 2 * v", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(la::Scale(*v_, 3.0), 1e-12));
}

TEST_F(ParserTest, ScientificNumbers) {
  auto result = EvalExpression("1.5e2 * v", env_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(la::Scale(*v_, 150.0), 1e-12));
}

TEST_F(ParserTest, ParseProducesOptimizableDag) {
  auto expr = ParseExpression("t(t(X)) %*% w", env_);
  ASSERT_TRUE(expr.ok());
  // The double transpose survives parsing and is removed by the optimizer.
  OptimizerReport report;
  auto optimized = Optimize(*expr, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.transposes_eliminated, 1u);
}

TEST_F(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseExpression("", env_).ok());
  EXPECT_FALSE(ParseExpression("X +", env_).ok());
  EXPECT_FALSE(ParseExpression("(X", env_).ok());
  EXPECT_FALSE(ParseExpression("X)", env_).ok());
  EXPECT_FALSE(ParseExpression("X %% v", env_).ok());
  EXPECT_FALSE(ParseExpression("X ? v", env_).ok());
  EXPECT_FALSE(ParseExpression("X v", env_).ok());  // Trailing input.
}

TEST_F(ParserTest, SemanticErrors) {
  // Unknown identifier (with position info).
  auto unknown = ParseExpression("X %*% missing", env_);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("missing"), std::string::npos);
  // Shape mismatch caught at parse time.
  EXPECT_FALSE(ParseExpression("X %*% v", env_).ok());  // 10x4 times 10x1.
  // Scalar misuse.
  EXPECT_FALSE(ParseExpression("2 %*% v", env_).ok());
  EXPECT_FALSE(ParseExpression("t(2)", env_).ok());
  EXPECT_FALSE(ParseExpression("v + 1", env_).ok());
  EXPECT_FALSE(ParseExpression("3 + 4", env_).ok());  // Pure scalar result.
}

TEST_F(ParserTest, IdentifierNamedTWorksWhenNotCall) {
  Environment env = env_;
  env["t"] = v_;  // A matrix named "t" is legal as long as it's not t(...).
  auto result = EvalExpression("t + v", env);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(la::Scale(*v_, 2.0), 1e-12));
}

TEST_F(ParserTest, RidgeGradientExpression) {
  // A realistic full formula: gradient of ridge loss at w.
  auto result =
      EvalExpression("t(X) %*% (X %*% w - v) + 0.1 * w", env_);
  ASSERT_TRUE(result.ok());
  auto residual = la::Subtract(la::Multiply(*x_, *w_), *v_);
  auto expected =
      la::Add(la::Multiply(la::Transpose(*x_), residual), la::Scale(*w_, 0.1));
  EXPECT_TRUE(result->ApproxEquals(expected, 1e-10));
}

TEST_F(ParserTest, EveryOccurrenceOfANameIsOneLeaf) {
  auto parsed = ParseExpression("t(X) %*% X + t(X) %*% X", env_);
  ASSERT_TRUE(parsed.ok());
  const ExprPtr& lhs = (*parsed)->children()[0];
  const ExprPtr& rhs = (*parsed)->children()[1];
  ASSERT_NE(lhs.get(), rhs.get());
  EXPECT_EQ(lhs->children()[1].get(), rhs->children()[1].get());
  EXPECT_EQ(lhs->children()[0]->children()[0].get(), lhs->children()[1].get())
      << "t(X) %*% X must read one X leaf, the Gram pattern";
}

TEST_F(ParserTest, NonDenseNameDensifiesOncePerRun) {
  // Three occurrences of a CSR X in elementwise positions are one leaf,
  // densified once per run whether or not the region is fused.
  auto sparse = std::make_shared<const la::SparseMatrix>(
      la::SparseMatrix::FromDense(*x_, 0.0));
  const Environment env = {{"X", Operand(sparse)}};
  auto parsed = ParseExpression("2 * X + X * X", env);
  ASSERT_TRUE(parsed.ok());
  auto optimized = Optimize(*parsed);
  ASSERT_TRUE(optimized.ok());
  const DenseMatrix want =
      la::Add(la::Scale(*x_, 2.0), la::ElementwiseMultiply(*x_, *x_));
  for (const ExprPtr& plan : {*parsed, *optimized}) {
    ExecStats stats;
    auto out = Execute(plan, nullptr, &stats);
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(stats.densify_fallbacks, 1u);
    EXPECT_TRUE(out->ApproxEquals(want, 1e-12));
  }
}

}  // namespace
}  // namespace dmml::laopt
