// Tests for the full compilation pipeline (rewrites and fusion -> CSE),
// including a differential property suite: the compiled plan must produce
// the same result as naive execution for randomly assembled DAGs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/generators.h"
#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/parser.h"
#include "laopt/compile.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;

ExprPtr Leaf(std::shared_ptr<DenseMatrix> m, const char* name) {
  return *ExprNode::Input(std::move(m), name);
}

// CompilePlan, then the one executor.
Result<DenseMatrix> CompileAndRun(const ExprPtr& expr,
                                  const PipelineOptions& options,
                                  PlanReport* report) {
  DMML_ASSIGN_OR_RETURN(ExprPtr plan, CompilePlan(expr, options, report));
  return Execute(plan);
}

TEST(PipelineTest, AllPassesReportAndAgree) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(60, 10, 1));
  auto vm = std::make_shared<DenseMatrix>(data::GaussianMatrix(60, 1, 2));
  // Two independently built copies of t(X)%*%v, double transpose, nested
  // scalars, and an elementwise tail: every pass has something to do.
  auto build_proj = [&] {
    auto x = Leaf(xm, "X");
    auto v = Leaf(vm, "v");
    return *ExprNode::MatMul(*ExprNode::Transpose(*ExprNode::Transpose(
                                 *ExprNode::Transpose(x))),
                             v);
  };
  auto proj1 = build_proj();
  auto proj2 = build_proj();
  auto expr = *ExprNode::Add(
      *ExprNode::ScalarMul(2.0, *ExprNode::ScalarMul(3.0, proj1)),
      *ExprNode::ElemMul(proj2, proj2));

  PlanReport report;
  auto result = CompileAndRun(expr, {}, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(report.rewriter.transposes_eliminated, 2u);
  EXPECT_GE(report.rewriter.scalars_folded, 1u);
  EXPECT_GT(report.cse.merges, 0u);
  EXPECT_GE(report.rewriter.regions_fused, 1u);

  auto naive = Execute(expr);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(result->ApproxEquals(*naive, 1e-9));
}

TEST(PipelineTest, PassesCanBeDisabled) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(5, 5, 3));
  auto x1 = Leaf(xm, "X");
  auto x2 = Leaf(xm, "X");
  auto expr = *ExprNode::Add(*ExprNode::Transpose(x1), *ExprNode::Transpose(x2));
  PipelineOptions options;
  options.run_cse = false;
  PlanReport report;
  auto result = CompileAndRun(expr, options, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.cse.merges, 0u);
  EXPECT_EQ(report.rewriter.regions_fused, 0u);  // One add: nothing to fuse.
}

TEST(PipelineTest, WorksOnParsedExpressions) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(40, 6, 4));
  auto vm = std::make_shared<DenseMatrix>(data::GaussianMatrix(6, 1, 5));
  Environment env = {{"X", xm}, {"v", vm}};
  auto parsed = ParseExpression("sum((X %*% v) .* (X %*% v))", env);
  // '.*' is not in the grammar; use '*' for elementwise.
  ASSERT_FALSE(parsed.ok());
  parsed = ParseExpression("sum((X %*% v) * (X %*% v))", env);
  ASSERT_TRUE(parsed.ok());
  PlanReport report;
  auto result = CompileAndRun(*parsed, {}, &report);
  ASSERT_TRUE(result.ok());
  auto mv = la::Multiply(*xm, *vm);
  double expected = 0;
  for (size_t i = 0; i < mv.rows(); ++i) expected += mv.At(i, 0) * mv.At(i, 0);
  EXPECT_NEAR(result->At(0, 0), expected, 1e-7 * std::max(1.0, std::fabs(expected)));
  // CSE shares the two (X %*% v) occurrences.
  EXPECT_GT(report.cse.merges, 0u);
}

TEST(PipelineTest, NullRejected) {
  EXPECT_FALSE(CompilePlan(nullptr).ok());
}

// Differential property: compiled == naive on random DAGs mixing matmuls,
// transposes, scalars, elementwise ops and aggregates.
class PipelineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PipelineDifferential, CompiledMatchesNaive) {
  const int seed = GetParam();
  Rng rng(seed);
  const size_t n = 5 + rng.UniformInt(uint64_t{20});
  const size_t d = 2 + rng.UniformInt(uint64_t{10});

  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(n, d, seed * 3 + 1));
  auto ym = std::make_shared<DenseMatrix>(data::GaussianMatrix(n, d, seed * 3 + 2));
  auto vm = std::make_shared<DenseMatrix>(data::GaussianMatrix(d, 1, seed * 3 + 3));

  // Random expression over a fixed grammar; always shape-valid.
  auto x = Leaf(xm, "X");
  auto y = Leaf(ym, "Y");
  auto v = Leaf(vm, "v");
  ExprPtr e = x;
  for (int step = 0; step < 6; ++step) {
    switch (rng.UniformInt(uint64_t{5})) {
      case 0:
        e = *ExprNode::Add(e, y);
        break;
      case 1:
        e = *ExprNode::ElemMul(e, x);
        break;
      case 2:
        e = *ExprNode::ScalarMul(rng.Uniform(-2, 2), e);
        break;
      case 3:
        e = *ExprNode::Subtract(e, *ExprNode::ScalarMul(0.5, y));
        break;
      case 4:
        e = *ExprNode::Transpose(*ExprNode::Transpose(e));
        break;
    }
  }
  // Finish with a reduction mixing matmul and aggregates.
  ExprPtr final_expr;
  if (seed % 2) {
    final_expr = *ExprNode::Sum(*ExprNode::MatMul(e, v));
  } else {
    final_expr = *ExprNode::ColSums(e);
  }

  auto naive = Execute(final_expr);
  PlanReport report;
  auto compiled = CompileAndRun(final_expr, {}, &report);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(compiled.ok());
  double scale = std::max(1.0, la::FrobeniusNorm(*naive));
  EXPECT_TRUE(compiled->ApproxEquals(*naive, 1e-8 * scale))
      << final_expr->ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDifferential, ::testing::Range(0, 16));

}  // namespace
}  // namespace dmml::laopt
