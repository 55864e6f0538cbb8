// Tests for the laopt static analyzer: shape/sparsity/memory inference,
// plan-time rejection of shape-mismatched programs, unknown-dimension
// propagation, overflow-safe footprint math, and the in-tree consumers
// (matrix-chain costing, CompilePlan's analysis report) observed through obs
// counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "laopt/analysis.h"
#include "laopt/compile.h"
#include "laopt/cse.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;

ExprPtr Leaf(std::shared_ptr<DenseMatrix> m, const char* name) {
  return *ExprNode::Input(std::move(m), name);
}

ExprPtr DenseLeaf(size_t rows, size_t cols, const char* name, double fill = 1.0) {
  return Leaf(std::make_shared<DenseMatrix>(rows, cols, fill), name);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

TEST(AnalysisTest, InfersShapeSparsityAndFootprint) {
  auto x = DenseLeaf(100, 10, "X");
  auto v = DenseLeaf(10, 1, "v");
  auto expr = *ExprNode::MatMul(x, v);

  auto analysis = AnalyzeDag(expr);
  ASSERT_TRUE(analysis.ok());
  const NodeAnalysis* out = analysis->Find(expr.get());
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->shape.FullyKnown());
  EXPECT_EQ(out->shape.rows.value, 100u);
  EXPECT_EQ(out->shape.cols.value, 1u);
  EXPECT_DOUBLE_EQ(out->sparsity, 1.0);  // Dense inputs stay dense.
  EXPECT_TRUE(out->bytes_known);
  EXPECT_EQ(out->dense_bytes, 100u * 1u * sizeof(double));
  EXPECT_EQ(analysis->NumAnalyzed(), 3u);
}

TEST(AnalysisTest, ExactInputNnzAndSparsityFormulas) {
  // 10x10 with exactly 10 nonzeros -> sparsity 0.1.
  auto m = std::make_shared<DenseMatrix>(10, 10);
  for (size_t i = 0; i < 10; ++i) m->At(i, i) = 2.0;
  auto a = Leaf(m, "A");

  DagAnalysis analysis;
  auto a_info = analysis.Ensure(a);
  ASSERT_TRUE(a_info.ok());
  EXPECT_DOUBLE_EQ(a_info->sparsity, 0.1);

  // Elementwise product: sa * sb.
  auto prod = *ExprNode::ElemMul(a, a);
  auto prod_info = analysis.Ensure(prod);
  ASSERT_TRUE(prod_info.ok());
  EXPECT_DOUBLE_EQ(prod_info->sparsity, 0.01);

  // Add: sa + sb - sa*sb.
  auto sum = *ExprNode::Add(a, a);
  auto sum_info = analysis.Ensure(sum);
  ASSERT_TRUE(sum_info.ok());
  EXPECT_DOUBLE_EQ(sum_info->sparsity, 0.1 + 0.1 - 0.01);

  // MatMul: 1 - (1 - sa*sb)^k with k = 10.
  auto mm = *ExprNode::MatMul(a, a);
  auto mm_info = analysis.Ensure(mm);
  ASSERT_TRUE(mm_info.ok());
  EXPECT_DOUBLE_EQ(mm_info->sparsity, MatMulSparsityEstimate(0.1, 0.1, 10));
  EXPECT_NEAR(mm_info->sparsity, 1.0 - std::pow(0.99, 10.0), 1e-12);

  // Scaling by zero annihilates.
  auto zero = *ExprNode::ScalarMul(0.0, a);
  auto zero_info = analysis.Ensure(zero);
  ASSERT_TRUE(zero_info.ok());
  EXPECT_DOUBLE_EQ(zero_info->sparsity, 0.0);

  // A sparse matrix is estimated cheaper than dense in CSR-ish storage.
  EXPECT_LT(a_info->est_bytes, a_info->dense_bytes);
}

// A dense binding's nonzeros are counted once, on its first analysis, into a
// cell every copy of the Operand shares — parser leaves copy the
// Environment's entry, so recompiling one script never rescans its inputs.
TEST(AnalysisTest, DenseBindingCountedOncePerBinding) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(200, 10, 5));
  for (size_t i = 0; i < xm->rows(); i += 3) xm->At(i, 0) = 0.0;
  Environment env;
  env["X"] = xm;
  // A four-factor chain: the optimizer analyzes every X leaf to cost it.
  const char* script = "t(X) %*% X %*% t(X) %*% X";
  const uint64_t before = CounterValue("laopt.analysis.dense_nnz_scans");
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(EvalExpression(script, env).ok());
  EXPECT_EQ(CounterValue("laopt.analysis.dense_nnz_scans") - before, 1u);
}

TEST(AnalysisTest, CopiesAndSlicesShareOneCount) {
  auto m = std::make_shared<DenseMatrix>(10, 10);
  for (size_t i = 0; i < 10; ++i) m->At(i, i) = 2.0;
  const Operand bound(m);
  const Operand copy = bound;
  const Operand slice = copy.Slice(2, 5);

  const uint64_t before = CounterValue("laopt.analysis.dense_nnz_scans");
  // A row window reads its whole payload's count.
  EXPECT_DOUBLE_EQ(slice.Sparsity(), 0.1);
  EXPECT_DOUBLE_EQ(bound.Sparsity(), 0.1);
  EXPECT_DOUBLE_EQ(copy.Sparsity(), 0.1);
  EXPECT_DOUBLE_EQ(bound.Slice(0, 1).Sparsity(), 0.1);
  EXPECT_EQ(CounterValue("laopt.analysis.dense_nnz_scans") - before, 1u);

  // The first count wins: mutating the matrix in place leaves the binding's
  // count alone, and a fresh Operand over the same matrix counts again.
  m->At(0, 1) = 3.0;
  EXPECT_DOUBLE_EQ(copy.Sparsity(), 0.1);
  const Operand rebound(m);
  EXPECT_DOUBLE_EQ(rebound.Sparsity(), 0.11);
  EXPECT_EQ(CounterValue("laopt.analysis.dense_nnz_scans") - before, 2u);
}

TEST(AnalysisTest, ConcurrentFirstCountsAgree) {
  auto m = std::make_shared<DenseMatrix>(data::GaussianMatrix(300, 40, 11));
  for (size_t i = 0; i < m->size(); i += 4) m->data()[i] = 0.0;
  const Operand bound(m);

  ThreadPool pool(4);
  constexpr size_t kTasks = 16;
  std::vector<double> seen(kTasks, -1.0);
  std::vector<std::future<void>> done;
  for (size_t t = 0; t < kTasks; ++t) {
    const Operand view = t % 2 == 0 ? bound : bound.Slice(t, t + 10);
    done.push_back(pool.Submit([view, &seen, t] { seen[t] = view.Sparsity(); }));
  }
  for (auto& f : done) f.get();
  for (const double s : seen) EXPECT_EQ(s, 0.75);
}

// One ridge-GD step of dmbench's script_gd workload, left-associated as a
// DML user types it.
constexpr const char* kRidgeStep =
    "w - 0.00025 * (t(X) %*% X %*% w - t(X) %*% y) - 0.001 * w";

// The optimizer analyzes the (t(X)·X)·w chain, replaces it with
// t(X)·(X·w) and drops it; fusion and CSE then allocate fresh nodes. The
// analysis holds every node it memoizes, so no fresh node can land on a
// dropped node's address and inherit its 10x10 shape.
TEST(AnalysisTest, CompileSurvivesDroppedRewriteTemporaries) {
  Environment env;
  env["X"] = std::make_shared<DenseMatrix>(data::GaussianMatrix(2000, 10, 7));
  env["y"] = std::make_shared<DenseMatrix>(data::GaussianMatrix(2000, 1, 8));
  env["w"] = std::make_shared<DenseMatrix>(data::GaussianMatrix(10, 1, 9));
  auto expr = ParseExpression(kRidgeStep, env);
  ASSERT_TRUE(expr.ok()) << expr.status().message();
  auto reference = EvalExpression(kRidgeStep, env);
  ASSERT_TRUE(reference.ok()) << reference.status().message();

  const PipelineOptions options;
  auto plan = CompilePlan(*expr, options);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  auto planned = Execute(*plan);
  ASSERT_TRUE(planned.ok()) << planned.status().message();
  EXPECT_TRUE(planned->ApproxEquals(*reference, 1e-12));
}

TEST(AnalysisTest, RejectsMismatchedInnerDimensionsAtPlanTime) {
  // X(100x10) %*% Y(20x5): constructible only with deferred checks; the
  // analyzer must name the node and both operand shapes.
  Environment env;
  env["X"] = std::make_shared<DenseMatrix>(100, 10, 1.0);
  env["Y"] = std::make_shared<DenseMatrix>(20, 5, 1.0);
  ParseOptions parse_options;
  parse_options.defer_shape_checks = true;
  auto expr = ParseExpression("X %*% Y", env, parse_options);
  ASSERT_TRUE(expr.ok());  // Parse succeeds; the error is a plan-time error.

  const uint64_t rejects_before = CounterValue("laopt.analysis.shape_rejects");
  PlanReport report;
  auto plan = CompilePlan(*expr, {}, &report);
  ASSERT_FALSE(plan.ok());
  const std::string& message = plan.status().message();
  EXPECT_NE(message.find("plan-time shape error"), std::string::npos) << message;
  EXPECT_NE(message.find("X[100x10]"), std::string::npos) << message;
  EXPECT_NE(message.find("Y[20x5]"), std::string::npos) << message;
  EXPECT_NE(message.find("100x10"), std::string::npos) << message;
  EXPECT_NE(message.find("20x5"), std::string::npos) << message;
  EXPECT_EQ(CounterValue("laopt.analysis.shape_rejects"), rejects_before + 1);
}

TEST(AnalysisTest, RejectsMismatchedElementwiseShapes) {
  auto a = *ExprNode::Placeholder(3, 4, "A");
  auto b = *ExprNode::Placeholder(3, 5, "B");
  auto bad = *ExprNode::MakeUnchecked(OpKind::kAdd, {a, b});
  auto analysis = AnalyzeDag(bad);
  ASSERT_FALSE(analysis.ok());
  EXPECT_NE(analysis.status().message().find("3x4"), std::string::npos);
  EXPECT_NE(analysis.status().message().find("3x5"), std::string::npos);
}

TEST(AnalysisTest, CheckedFactoriesStillRejectEagerly) {
  auto x = DenseLeaf(100, 10, "X");
  auto y = DenseLeaf(20, 5, "Y");
  EXPECT_FALSE(ExprNode::MatMul(x, y).ok());
  EXPECT_FALSE(ExprNode::Add(x, y).ok());
}

TEST(AnalysisTest, ChainedTransposes) {
  auto x = DenseLeaf(7, 3, "X");
  ExprPtr e = x;
  for (int i = 0; i < 9; ++i) e = *ExprNode::Transpose(e);
  auto analysis = AnalyzeDag(e);
  ASSERT_TRUE(analysis.ok());
  const NodeAnalysis* info = analysis->Find(e.get());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->shape.rows.value, 3u);  // Odd number of transposes.
  EXPECT_EQ(info->shape.cols.value, 7u);
  EXPECT_EQ(info->dense_bytes, 7u * 3u * sizeof(double));
}

TEST(AnalysisTest, ZeroRowAndZeroColMatrices) {
  auto a = DenseLeaf(0, 5, "A");
  auto b = DenseLeaf(5, 0, "B");
  auto mm = *ExprNode::MatMul(a, b);  // 0x0 result.
  auto analysis = AnalyzeDag(mm);
  ASSERT_TRUE(analysis.ok());
  const NodeAnalysis* info = analysis->Find(mm.get());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->shape.rows.value, 0u);
  EXPECT_EQ(info->shape.cols.value, 0u);
  EXPECT_TRUE(info->bytes_known);
  EXPECT_EQ(info->dense_bytes, 0u);
  EXPECT_EQ(info->est_bytes, 0u);
  // Empty inputs have no nonzeros and a well-defined sparsity of 0.
  EXPECT_DOUBLE_EQ(analysis->Find(a.get())->sparsity, 0.0);
}

TEST(AnalysisTest, UnknownDimensionPropagation) {
  // t(P(?x10)) %*% P(?x10) has a known 10x10 shape: the unknown row count
  // cancels through the inner dimension.
  auto p = *ExprNode::Placeholder(ExprNode::kUnknownDim, 10, "P");
  auto gram = *ExprNode::MatMul(*ExprNode::Transpose(p), p);
  DagAnalysis analysis;
  auto gram_info = analysis.Ensure(gram);
  ASSERT_TRUE(gram_info.ok());
  EXPECT_TRUE(gram_info->shape.FullyKnown());
  EXPECT_EQ(gram_info->shape.rows.value, 10u);
  EXPECT_EQ(gram_info->shape.cols.value, 10u);

  // P itself: rows unknown -> no footprint estimate.
  auto p_info = analysis.Ensure(p);
  ASSERT_TRUE(p_info.ok());
  EXPECT_FALSE(p_info->shape.FullyKnown());
  EXPECT_FALSE(p_info->bytes_known);
  EXPECT_EQ(p_info->shape.ToString(), "?x10");

  // Known dim wins when adding known to unknown.
  auto q = *ExprNode::Placeholder(ExprNode::kUnknownDim, ExprNode::kUnknownDim, "Q");
  auto known = *ExprNode::Placeholder(4, 6, "K");
  auto mixed = *ExprNode::Add(q, known);
  auto mixed_info = analysis.Ensure(mixed);
  ASSERT_TRUE(mixed_info.ok());
  EXPECT_EQ(mixed_info->shape.ToString(), "4x6");
}

TEST(AnalysisTest, UnknownDimsThroughCsedSubtrees) {
  // Two structurally identical subtrees over the same placeholder must merge
  // under CSE and stay analyzable; distinct placeholders must NOT merge.
  auto p = *ExprNode::Placeholder(ExprNode::kUnknownDim, 8, "P");
  auto gram1 = *ExprNode::MatMul(*ExprNode::Transpose(p), p);
  auto gram2 = *ExprNode::MatMul(*ExprNode::Transpose(p), p);
  auto both = *ExprNode::Add(gram1, gram2);

  CseReport cse_report;
  auto merged = EliminateCommonSubexpressions(both, &cse_report);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(cse_report.merges, 0u);
  EXPECT_EQ((*merged)->children()[0].get(), (*merged)->children()[1].get());

  auto analysis = AnalyzeDag(*merged);
  ASSERT_TRUE(analysis.ok());
  const NodeAnalysis* info = analysis->Find(merged->get());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->shape.ToString(), "8x8");

  // Distinct placeholders: same declared shape, but different future data.
  auto p2 = *ExprNode::Placeholder(ExprNode::kUnknownDim, 8, "P2");
  auto cross = *ExprNode::Add(p, p2);
  CseReport cross_report;
  auto cross_merged = EliminateCommonSubexpressions(cross, &cross_report);
  ASSERT_TRUE(cross_merged.ok());
  EXPECT_NE((*cross_merged)->children()[0].get(),
            (*cross_merged)->children()[1].get());
}

TEST(AnalysisTest, FootprintOverflowSaturatesInsteadOfWrapping) {
  bool saturated = false;
  EXPECT_EQ(DenseFootprintBytes(8, 8, &saturated), 512u);
  EXPECT_FALSE(saturated);

  // (2^62) x 16 cells x 8 bytes overflows uint64 twice over.
  DenseFootprintBytes(uint64_t{1} << 62, 16, &saturated);
  EXPECT_TRUE(saturated);
  EXPECT_EQ(DenseFootprintBytes(uint64_t{1} << 62, 16, &saturated), UINT64_MAX);

  // End to end: a placeholder-declared giant matrix saturates and says so.
  auto giant = *ExprNode::Placeholder(uint64_t{1} << 40, uint64_t{1} << 40, "G");
  auto analysis = AnalyzeDag(giant);
  ASSERT_TRUE(analysis.ok());
  const NodeAnalysis* info = analysis->Find(giant.get());
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->bytes_known);
  EXPECT_TRUE(info->bytes_saturated);
  EXPECT_EQ(info->dense_bytes, UINT64_MAX);
}

TEST(AnalysisTest, MmChainCostingConsumesAnalyzerEstimates) {
  // 3-factor chain -> the optimizer must run the analyzer-backed DP.
  auto a = DenseLeaf(10, 30, "A");
  auto b = DenseLeaf(30, 5, "B");
  auto c = DenseLeaf(5, 60, "C");
  auto chain = *ExprNode::MatMul(*ExprNode::MatMul(a, b), c);

  const uint64_t costed_before = CounterValue("laopt.optimize.chains_costed");
  OptimizerReport report;
  auto optimized = Optimize(chain, {}, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.chains_costed, 1u);
  EXPECT_GT(CounterValue("laopt.optimize.chains_costed"), costed_before);

  // A chain with unknown-dimension factors is left alone (no sizes to cost).
  auto p = *ExprNode::Placeholder(ExprNode::kUnknownDim, 30, "P");
  auto unknown_chain = *ExprNode::MatMul(*ExprNode::MatMul(p, b), c);
  OptimizerReport unknown_report;
  auto unknown_optimized = Optimize(unknown_chain, {}, &unknown_report);
  ASSERT_TRUE(unknown_optimized.ok());
  EXPECT_EQ(unknown_report.chains_costed, 0u);
  EXPECT_EQ(unknown_report.chains_reordered, 0u);
}

TEST(AnalysisTest, SparsityAwareChainCostPrefersSparseSide) {
  // Dense costing of {A 20x20, B 20x20, C 20x1} prefers right-to-left
  // (through the skinny C). Sparsity must discount the left operand.
  std::vector<ChainFactor> dense = {{20, 20, 1.0}, {20, 20, 1.0}, {20, 1, 1.0}};
  std::vector<ChainFactor> sparse_left = {{20, 20, 0.01}, {20, 20, 1.0}, {20, 1, 1.0}};
  EXPECT_LT(OptimalSparseChainCost(sparse_left), OptimalSparseChainCost(dense));
  // Dense overload matches the original all-dense DP.
  EXPECT_DOUBLE_EQ(OptimalChainCost({{10, 30}, {30, 5}, {5, 60}}), 4500.0 * 2.0);
}

TEST(AnalysisTest, PipelineReportsAnalysisOfTheFusedPlan) {
  auto xm = std::make_shared<DenseMatrix>(data::GaussianMatrix(50, 40, 3));
  auto x1 = Leaf(xm, "X");
  auto x2 = Leaf(xm, "X");
  auto expr = *ExprNode::Add(*ExprNode::ElemMul(x1, x2), x1);

  PlanReport report;
  auto plan = CompilePlan(expr, {}, &report);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(report.rewriter.regions_fused, 1u);
  EXPECT_EQ((*plan)->kind(), OpKind::kFused);
  EXPECT_GT(report.analysis_nodes, 0u);
  EXPECT_TRUE(report.output_bytes_known);
  EXPECT_EQ(report.output_est_bytes, 50u * 40u * sizeof(double));

  auto result = Execute(*plan);
  ASSERT_TRUE(result.ok());
  auto naive = Execute(expr);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(result->ApproxEquals(*naive, 1e-12));
}

TEST(AnalysisTest, ExplainDumpListsNodesShapesAndPlaceholders) {
  auto p = *ExprNode::Placeholder(ExprNode::kUnknownDim, 10, "P");
  auto x = DenseLeaf(10, 10, "X");
  auto expr = *ExprNode::MatMul(p, x);

  DagAnalysis analysis;
  std::string dump = analysis.Explain(expr);
  EXPECT_NE(dump.find("EXPLAIN plan: 3 nodes"), std::string::npos) << dump;
  EXPECT_NE(dump.find("(placeholder)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("?x10"), std::string::npos) << dump;
  EXPECT_NE(dump.find("matmul"), std::string::npos) << dump;
  EXPECT_NE(dump.find("10x10"), std::string::npos) << dump;

  PipelineOptions options;
  options.capture_explain = true;
  PlanReport report;
  auto plan = CompilePlan(*ExprNode::MatMul(x, x), options, &report);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(report.explain.find("EXPLAIN plan"), std::string::npos);
}

TEST(AnalysisTest, UnboundPlaceholderFailsExecutionGracefully) {
  auto p = *ExprNode::Placeholder(4, 4, "theta");
  auto expr = *ExprNode::Add(p, p);
  auto direct = Execute(expr);
  ASSERT_FALSE(direct.ok());
  EXPECT_NE(direct.status().message().find("theta"), std::string::npos);
  // Fused into one node, the placeholder still fails by name.
  auto fused = Optimize(*ExprNode::ScalarMul(2.0, expr));
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ((*fused)->kind(), OpKind::kFused);
  auto fused_run = Execute(*fused);
  ASSERT_FALSE(fused_run.ok());
  EXPECT_NE(fused_run.status().message().find("theta"), std::string::npos);
}

}  // namespace
}  // namespace dmml::laopt
