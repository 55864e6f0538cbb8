// Tests for structural common-subexpression elimination on LA DAGs.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "data/generators.h"
#include "la/kernels.h"
#include "laopt/compile.h"
#include "laopt/cse.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;

ExprPtr Leaf(std::shared_ptr<DenseMatrix> m, const char* name) {
  return *ExprNode::Input(std::move(m), name);
}

bool BitEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CseTest, MergesStructurallyEqualSubtrees) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(20, 20, 1));
  // Build t(X)*X twice, independently (distinct nodes, same structure).
  auto x1 = Leaf(xm, "X");
  auto x2 = Leaf(xm, "X");
  auto gram1 = *ExprNode::MatMul(*ExprNode::Transpose(x1), x1);
  auto gram2 = *ExprNode::MatMul(*ExprNode::Transpose(x2), x2);
  auto sum = *ExprNode::Add(gram1, gram2);

  CseReport report;
  auto optimized = EliminateCommonSubexpressions(sum, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_GT(report.merges, 0u);
  EXPECT_LT(report.nodes_after, report.nodes_before);

  // Executor now computes the gram matrix once.
  ExecStats before_stats, after_stats;
  auto expected = Execute(sum, nullptr, &before_stats);
  auto actual = Execute(*optimized, nullptr, &after_stats);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_TRUE(actual->ApproxEquals(*expected, 1e-10));
  EXPECT_LT(after_stats.ops_executed, before_stats.ops_executed);
}

TEST(CseTest, DifferentLeavesDoNotMerge) {
  auto a = Leaf(std::make_shared<DenseMatrix>(data::GaussianMatrix(4, 4, 2)), "A");
  auto b = Leaf(std::make_shared<DenseMatrix>(data::GaussianMatrix(4, 4, 3)), "B");
  auto expr = *ExprNode::Add(*ExprNode::Transpose(a), *ExprNode::Transpose(b));
  CseReport report;
  auto optimized = EliminateCommonSubexpressions(expr, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.merges, 0u);
  EXPECT_EQ(report.nodes_after, report.nodes_before);
}

TEST(CseTest, ScalarValueDistinguishesNodes) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(3, 3, 4));
  auto x = Leaf(xm, "X");
  auto expr = *ExprNode::Add(*ExprNode::ScalarMul(2.0, x), *ExprNode::ScalarMul(3.0, x));
  CseReport report;
  auto optimized = EliminateCommonSubexpressions(expr, &report);
  ASSERT_TRUE(optimized.ok());
  // The two ScalarMuls must stay distinct.
  EXPECT_EQ((*optimized)->children()[0]->scalar(), 2.0);
  EXPECT_EQ((*optimized)->children()[1]->scalar(), 3.0);
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(expr), 1e-12));
}

// Scalars that agree to six significant digits are still different scalars:
// the structural key CSE and the verifier share carries a scalar's bits.
TEST(CseTest, NearlyEqualScalarsStayDistinct) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(4, 4, 8));
  auto ym = std::make_shared<DenseMatrix>(data::GaussianMatrix(4, 4, 9));
  auto x = Leaf(xm, "X");
  auto expr = *ExprNode::Add(*ExprNode::ScalarMul(0.1234567, x),
                             *ExprNode::ScalarMul(0.1234568, x));
  auto raw = Execute(expr);
  ASSERT_TRUE(raw.ok());

  CseReport report;
  auto deduped = EliminateCommonSubexpressions(expr, &report);
  ASSERT_TRUE(deduped.ok()) << deduped.status().message();
  EXPECT_EQ(report.merges, 0u);
  EXPECT_EQ((*deduped)->children()[0]->scalar(), 0.1234567);
  EXPECT_EQ((*deduped)->children()[1]->scalar(), 0.1234568);
  EXPECT_TRUE(BitEqual(*Execute(*deduped), *raw));

  // The whole pipeline: fusion folds both scalars into one program, CSE runs
  // after it, and the verifier checks CSE's value classes.
  auto plan = CompilePlan(expr);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_TRUE(BitEqual(*Execute(*plan), *raw));

  // Two fused regions that differ only in that scalar stay two nodes.
  auto y = Leaf(ym, "Y");
  auto product = *ExprNode::MatMul(
      *ExprNode::Add(*ExprNode::ScalarMul(0.1234567, x), y),
      *ExprNode::Transpose(*ExprNode::Add(*ExprNode::ScalarMul(0.1234568, x), y)));
  PlanReport plan_report;
  auto fused_plan = CompilePlan(product, {}, &plan_report);
  ASSERT_TRUE(fused_plan.ok()) << fused_plan.status().message();
  EXPECT_EQ(plan_report.rewriter.regions_fused, 2u);
  EXPECT_EQ(plan_report.cse.merges, 0u);
  EXPECT_EQ(plan_report.cse.nodes_after, plan_report.cse.nodes_before);
  EXPECT_TRUE(BitEqual(*Execute(*fused_plan), *Execute(product)));
}

TEST(CseTest, IdempotentOnAlreadySharedDag) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(5, 5, 5));
  auto x = Leaf(xm, "X");
  auto shared = *ExprNode::MatMul(x, x);
  auto expr = *ExprNode::Add(shared, shared);  // Already pointer-shared.
  CseReport report;
  auto optimized = EliminateCommonSubexpressions(expr, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.nodes_after, report.nodes_before);
}

TEST(CseTest, ComposesWithRewriteOptimizer) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(30, 6, 6));
  auto vm = std::make_shared<DenseMatrix>(data::GaussianMatrix(30, 1, 7));
  auto x1 = Leaf(xm, "X");
  auto x2 = Leaf(xm, "X");
  auto v = Leaf(vm, "v");
  // (t(X)*v) .* (t(X)*v), built twice; optimize then CSE.
  auto proj1 = *ExprNode::MatMul(*ExprNode::Transpose(x1), v);
  auto proj2 = *ExprNode::MatMul(*ExprNode::Transpose(x2), v);
  auto expr = *ExprNode::ElemMul(proj1, proj2);

  auto rewritten = Optimize(expr);
  ASSERT_TRUE(rewritten.ok());
  CseReport report;
  auto optimized = EliminateCommonSubexpressions(*rewritten, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_GT(report.merges, 0u);
  EXPECT_TRUE((*Execute(*optimized)).ApproxEquals(*Execute(expr), 1e-9));
}

TEST(CseTest, NullExpressionRejected) {
  EXPECT_FALSE(EliminateCommonSubexpressions(nullptr).ok());
}

}  // namespace
}  // namespace dmml::laopt
