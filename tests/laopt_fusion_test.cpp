// Fused elementwise regions as ordinary plan nodes.
//
//  * Optimize ends by replacing each maximal elementwise region of two or
//    more ops with one kFused node; BufferedExecutor runs it with one cell
//    program pass. The fused plan must equal the unfused plan bit for bit on
//    dense, CSR, CLA, factorized and row-windowed leaves, serially and with
//    inter-node scheduling, at pool sizes 1 and 4, with the same densify
//    fallback count.
//  * The consumer rule: a node another consumer reads stays its own node
//    and runs once.
//  * A malformed kFused node is refused by the verifier, naming the node.
//
// This suite rides the sanitizer gates (thread, address+undefined), plain
// and with DMML_INTER_NODE=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "la/kernels.h"
#include "laopt/analysis.h"
#include "laopt/compile.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"
#include "laopt/profile.h"
#include "laopt/verify.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dmml::laopt {

// Test-only corruption hook (befriended by ExprNode): manufactures the
// ill-formed fused nodes ExprNode::Fused refuses to build.
struct ExprNodeTestAccess {
  static la::CellProgram& Program(const ExprPtr& n) {
    return const_cast<ExprNode*>(n.get())->program_;
  }
  static void SetRows(const ExprPtr& n, size_t rows) {
    const_cast<ExprNode*>(n.get())->rows_ = rows;
  }
};

namespace {

using cla::CompressedMatrix;
using la::CellOp;
using la::DenseMatrix;
using la::SparseMatrix;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

bool BitEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every kFused node under `root`.
std::vector<ExprPtr> FusedNodes(const ExprPtr& root) {
  std::vector<ExprPtr> out;
  std::vector<ExprPtr> stack{root};
  std::vector<const ExprNode*> seen;
  while (!stack.empty()) {
    ExprPtr n = stack.back();
    stack.pop_back();
    if (std::find(seen.begin(), seen.end(), n.get()) != seen.end()) continue;
    seen.push_back(n.get());
    if (n->kind() == OpKind::kFused) out.push_back(n);
    for (const auto& c : n->children()) stack.push_back(c);
  }
  return out;
}

ExprPtr Leaf(const DenseMatrix& m, const char* name) {
  return *ExprNode::Input(std::make_shared<const DenseMatrix>(m), name);
}

// ---------------------------------------------------------------------------
// Bit-equality across bindings, scheduling modes and pool sizes.
// ---------------------------------------------------------------------------

enum class Binding { kDense, kCsr, kCompressed, kFactorized, kWindowed };

std::string BindingName(const ::testing::TestParamInfo<Binding>& info) {
  switch (info.param) {
    case Binding::kDense: return "Dense";
    case Binding::kCsr: return "Csr";
    case Binding::kCompressed: return "Compressed";
    case Binding::kFactorized: return "Factorized";
    case Binding::kWindowed: return "Windowed";
  }
  return "Unknown";
}

// A star join T = [XS | XR[fk]]: about half of its cells are zero (the CSR
// view is sparse) and the attribute columns compress.
std::shared_ptr<const factorized::NormalizedMatrix> MakeStarJoin() {
  const size_t ns = 240, nr = 12, ds = 3, dr = 5;
  Rng rng(81);
  DenseMatrix xs(ns, ds);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs.data()[i] = rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : rng.Normal();
  }
  DenseMatrix xr = data::LowCardinalityMatrix(nr, dr, 3, /*run_sorted=*/false, 82);
  for (size_t i = 0; i < xr.size(); ++i) {
    xr.data()[i] = rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : xr.data()[i] / 100.0;
  }
  std::vector<uint32_t> fk(ns);
  for (auto& key : fk) key = static_cast<uint32_t>(rng.UniformInt(uint64_t{nr}));
  auto nm = factorized::NormalizedMatrix::Make(std::move(xs), {{std::move(xr), fk}});
  EXPECT_TRUE(nm.ok());
  return std::make_shared<const factorized::NormalizedMatrix>(
      std::move(nm).ValueOrDie());
}

Operand Bind(const std::shared_ptr<const factorized::NormalizedMatrix>& join,
             Binding binding) {
  auto dense = std::make_shared<const DenseMatrix>(join->Materialize());
  switch (binding) {
    case Binding::kDense:
      return Operand(dense);
    case Binding::kCsr:
      return Operand(std::make_shared<const SparseMatrix>(
          SparseMatrix::FromDense(*dense)));
    case Binding::kCompressed:
      return Operand(std::make_shared<const CompressedMatrix>(
          CompressedMatrix::Compress(*dense)));
    case Binding::kFactorized:
      return factorized::MakeFactorizedOperand(join);
    case Binding::kWindowed:
      return Operand(dense).Slice(17, 201);
  }
  return Operand();
}

// A9's elementwise chain, the squared residual of a matrix-vector product,
// and one ridge-GD step of dmbench's script_gd in its optimized order (so
// Optimize's only change is fusion).
const char* const kPrograms[] = {
    "2 * X + B * C - 0.5 * B + X * X",
    "(X %*% v - y) * (X %*% v - y)",
    "w - 0.000005 * (t(X) %*% (X %*% w) - t(X) %*% y) - 0.001 * w",
};

class FusedBitEquality : public ::testing::TestWithParam<Binding> {};

TEST_P(FusedBitEquality, FusedPlanEqualsUnfusedPlan) {
  const auto join = MakeStarJoin();
  const Operand x = Bind(join, GetParam());
  const size_t n = x.rows();
  const size_t d = x.cols();
  Environment env;
  env["X"] = x;
  env["B"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(n, d, 83));
  env["C"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(n, d, 84));
  env["v"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(d, 1, 85));
  env["w"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(d, 1, 86));
  env["y"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(n, 1, 87));

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const char* program : kPrograms) {
    auto raw = ParseExpression(program, env);
    ASSERT_TRUE(raw.ok()) << program << ": " << raw.status().message();
    OptimizerReport report;
    auto fused = Optimize(*raw, {}, &report);
    ASSERT_TRUE(fused.ok()) << program << ": " << fused.status().message();
    ASSERT_EQ(report.regions_fused, 1u) << program;
    ASSERT_EQ(FusedNodes(*fused).size(), 1u) << program;
    for (ThreadPool* pool : {&pool1, &pool4}) {
      for (const bool inter_node : {false, true}) {
        SCOPED_TRACE(std::string(program) + " pool " +
                     std::to_string(pool->num_threads()) +
                     (inter_node ? " inter-node" : " serial"));
        BufferedExecutor raw_exec(pool);
        BufferedExecutor fused_exec(pool);
        raw_exec.set_inter_node(inter_node);
        fused_exec.set_inter_node(inter_node);
        ExecStats raw_stats;
        ExecStats fused_stats;
        auto want = raw_exec.Run(*raw, &raw_stats);
        auto got = fused_exec.Run(*fused, &fused_stats);
        ASSERT_TRUE(want.ok()) << want.status().message();
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_TRUE(BitEqual(**got, **want));
        EXPECT_EQ(fused_stats.densify_fallbacks, raw_stats.densify_fallbacks);
        EXPECT_EQ(fused_stats.ops_executed + report.ops_fused - 1,
                  raw_stats.ops_executed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bindings, FusedBitEquality,
                         ::testing::Values(Binding::kDense, Binding::kCsr,
                                           Binding::kCompressed,
                                           Binding::kFactorized,
                                           Binding::kWindowed),
                         BindingName);

// The kernel splits cells across the pool; the split must not move a bit.
// 300 x 250 cells make four chunks at pool size 4 and leave a partial block.
TEST(CellProgramTest, ChunkedKernelEqualsUnfusedKernels) {
  const DenseMatrix a = data::GaussianMatrix(300, 250, 91);
  const DenseMatrix b = data::GaussianMatrix(300, 250, 92);
  const DenseMatrix c = data::GaussianMatrix(300, 250, 93);
  // 2A + B.*C - 0.5B + A.*A
  const la::CellProgram program = {
      {CellOp::kLoad, 0}, {CellOp::kScale, 0, 2.0}, {CellOp::kLoad, 1},
      {CellOp::kLoad, 2}, {CellOp::kMul},           {CellOp::kAdd},
      {CellOp::kLoad, 1}, {CellOp::kScale, 0, 0.5}, {CellOp::kSub},
      {CellOp::kLoad, 0}, {CellOp::kLoad, 0},       {CellOp::kMul},
      {CellOp::kAdd}};
  EXPECT_EQ(la::CellProgramDepth(program), 3u);
  DenseMatrix t1, t2, t3, t4, t5, t6, want;
  la::ScaleInto(a, 2.0, &t1);
  la::ElementwiseMultiplyInto(b, c, &t2);
  la::AddInto(t1, t2, &t3);
  la::ScaleInto(b, 0.5, &t4);
  la::SubtractInto(t3, t4, &t5);
  la::ElementwiseMultiplyInto(a, a, &t6);
  la::AddInto(t5, t6, &want);

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    DenseMatrix got;
    la::CellProgramInto(program, {&a, &b, &c}, &got, p);
    EXPECT_TRUE(BitEqual(got, want));
  }
  // A lone load copies its input.
  DenseMatrix copy;
  la::CellProgramInto({{CellOp::kLoad, 0}}, {&a}, &copy, &pool);
  EXPECT_TRUE(BitEqual(copy, a));
}

// ---------------------------------------------------------------------------
// What the fusion step fuses.
// ---------------------------------------------------------------------------

TEST(FusionPassTest, ReportsRegionsAndCounters) {
  const auto a = Leaf(data::GaussianMatrix(6, 4, 1), "A");
  const auto b = Leaf(data::GaussianMatrix(6, 4, 2), "B");
  // One op: nothing to fuse.
  OptimizerReport single;
  auto one = Optimize(*ExprNode::Add(a, b), {}, &single);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)->kind(), OpKind::kAdd);
  EXPECT_EQ(single.regions_fused, 0u);

  // 3 * (A + B) - B: three ops, two distinct inputs.
  const uint64_t regions_before = CounterValue("laopt.fusion.regions_fused");
  const uint64_t ops_before = CounterValue("laopt.fusion.ops_fused");
  auto expr = *ExprNode::Subtract(*ExprNode::ScalarMul(3.0, *ExprNode::Add(a, b)), b);
  OptimizerReport report;
  auto fused = Optimize(expr, {}, &report);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ((*fused)->kind(), OpKind::kFused);
  EXPECT_EQ((*fused)->NumFusedOps(), 3u);
  EXPECT_EQ((*fused)->children().size(), 2u);
  EXPECT_EQ((*fused)->Label(), "fused[3 ops]");
  EXPECT_EQ(report.regions_fused, 1u);
  EXPECT_EQ(report.ops_fused, 3u);
  EXPECT_EQ(CounterValue("laopt.fusion.regions_fused") - regions_before, 1u);
  EXPECT_EQ(CounterValue("laopt.fusion.ops_fused") - ops_before, 3u);
  // Fusion moves no flops: ops times cells, as the unfused ops count them.
  EXPECT_DOUBLE_EQ(report.flops_after, report.flops_before);
  EXPECT_TRUE(BitEqual(*Execute(*fused), *Execute(expr)));

  // Optimizing a fused plan again leaves it alone.
  OptimizerReport again;
  auto twice = Optimize(*fused, {}, &again);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(again.regions_fused, 0u);
  EXPECT_TRUE(BitEqual(*Execute(*twice), *Execute(expr)));
}

TEST(FusionPassTest, SharedNodeStaysItsOwnNodeAndRunsOnce) {
  const auto a = Leaf(data::GaussianMatrix(20, 4, 11), "A");
  const auto b = Leaf(data::GaussianMatrix(20, 4, 12), "B");
  const auto c = Leaf(data::GaussianMatrix(20, 4, 13), "C");
  const auto d = Leaf(data::GaussianMatrix(20, 4, 14), "D");
  // s = A + B is read by t(s) outside the region and by (s - C) .* D.
  const auto s = *ExprNode::Add(a, b);
  const auto root = *ExprNode::MatMul(
      *ExprNode::Transpose(s), *ExprNode::ElemMul(*ExprNode::Subtract(s, c), d));
  auto fused = Optimize(root);
  ASSERT_TRUE(fused.ok());
  const ExprPtr& region = (*fused)->children()[1];
  ASSERT_EQ(region->kind(), OpKind::kFused);
  EXPECT_EQ(region->NumFusedOps(), 2u);
  const ExprPtr& shared = (*fused)->children()[0]->children()[0];
  EXPECT_EQ(shared->kind(), OpKind::kAdd);
  EXPECT_EQ(region->children()[0].get(), shared.get());

  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  auto got = executor.Run(*fused);
  ASSERT_TRUE(got.ok());
  const NodeProfile* shared_profile = profile.Find(shared.get());
  ASSERT_NE(shared_profile, nullptr);
  EXPECT_EQ(shared_profile->invocations, 1u);
  EXPECT_GE(shared_profile->memo_hits, 1u);
  EXPECT_NE(profile.ExplainAnalyzeText().find("fused[2 ops]"), std::string::npos)
      << profile.ExplainAnalyzeText();
  EXPECT_TRUE(BitEqual(**got, *Execute(root)));

  // r .* r: both edges of the shared r come from one consumer; r is still
  // computed once, so neither it nor the product is fused.
  const auto r = *ExprNode::Subtract(a, b);
  OptimizerReport report;
  auto squared = Optimize(*ExprNode::ElemMul(r, r), {}, &report);
  ASSERT_TRUE(squared.ok());
  EXPECT_EQ(report.regions_fused, 0u);
  EXPECT_EQ((*squared)->kind(), OpKind::kElemMul);
}

TEST(FusionPassTest, UnknownShapesStayUnfused) {
  const auto p = *ExprNode::Placeholder(ExprNode::kUnknownDim, 4, "P");
  const auto q = *ExprNode::Placeholder(ExprNode::kUnknownDim, 4, "Q");
  OptimizerReport report;
  auto plan = Optimize(*ExprNode::ScalarMul(2.0, *ExprNode::Add(p, q)), {}, &report);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(report.regions_fused, 0u);
  EXPECT_EQ((*plan)->kind(), OpKind::kScalarMul);
}

// dmbench's script_gd step: three matmuls plus five elementwise ops over
// 50 x 1 become three matmuls plus one fused node.
TEST(FusionPassTest, ScriptGdStepRunsFourOps) {
  Environment env;
  env["X"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(400, 50, 21));
  env["y"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(400, 1, 22));
  env["w"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(50, 1, 23));
  const char* script = "w - 5e-06 * (t(X) %*% X %*% w - t(X) %*% y) - 0.001000 * w";
  auto raw = ParseExpression(script, env);
  ASSERT_TRUE(raw.ok()) << raw.status().message();
  auto plan = Optimize(*raw);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ((*plan)->kind(), OpKind::kFused);
  EXPECT_EQ((*plan)->NumFusedOps(), 5u);

  ExecStats raw_stats;
  ExecStats fused_stats;
  auto want = Execute(*raw, nullptr, &raw_stats);
  const uint64_t grams = CounterValue("la.gram.calls");
  auto got = Execute(*plan, nullptr, &fused_stats);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(raw_stats.ops_executed, 8u);
  EXPECT_EQ(fused_stats.ops_executed, 4u);
  EXPECT_TRUE(got->ApproxEquals(*want, 1e-9));

  // Under the dataflow scheduler each op is one task.
  ThreadPool pool(4);
  BufferedExecutor executor(&pool);
  executor.set_inter_node(true);
  const uint64_t launched = CounterValue("laopt.sched.nodes_launched");
  ASSERT_TRUE(executor.Run(*plan).ok());
  EXPECT_EQ(CounterValue("laopt.sched.nodes_launched") - launched, 4u);
  // The reordered step is t(X) %*% (X %*% w): no Gram runs, although the
  // parser gives both X occurrences of t(X) %*% X one leaf.
  EXPECT_EQ(CounterValue("la.gram.calls"), grams);
}

// CSE runs after fusion in CompilePlan: the parser gives both y occurrences
// one leaf, which the fused node reads once, and merging the two X %*% v
// products leaves it with a repeated child.
TEST(FusionPassTest, CompilePlanCsesFusedChildren) {
  Environment env;
  env["X"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(40, 6, 31));
  env["v"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(6, 1, 32));
  env["y"] = std::make_shared<const DenseMatrix>(data::GaussianMatrix(40, 1, 33));
  auto raw = ParseExpression("(X %*% v - y) * (X %*% v - y)", env);
  ASSERT_TRUE(raw.ok());
  PlanReport report;
  auto plan = CompilePlan(*raw, {}, &report);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(report.rewriter.regions_fused, 1u);
  EXPECT_GT(report.cse.merges, 0u);
  ASSERT_EQ((*plan)->kind(), OpKind::kFused);
  const auto& kids = (*plan)->children();
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0].get(), kids[2].get());
  EXPECT_EQ(kids[1]->kind(), OpKind::kInput);
  EXPECT_TRUE(VerifyPlan(*plan).empty());
  EXPECT_TRUE(BitEqual(*Execute(*plan), *Execute(*raw)));
}

// ---------------------------------------------------------------------------
// Analysis, lint and EXPLAIN treat the fused node like the ops it replaces.
// ---------------------------------------------------------------------------

TEST(FusedAnalysisTest, SparsityFlopsLintAndExplainCarryOver) {
  DenseMatrix sparse_dense = data::GaussianMatrix(30, 10, 41);
  for (size_t i = 0; i < sparse_dense.size(); i += 3) sparse_dense.data()[i] = 0.0;
  auto s = *ExprNode::InputOperand(
      Operand(std::make_shared<const SparseMatrix>(SparseMatrix::FromDense(sparse_dense))),
      "S");
  const auto m = Leaf(data::GaussianMatrix(30, 10, 42), "M");
  const auto raw = *ExprNode::Add(*ExprNode::ElemMul(s, m), *ExprNode::ScalarMul(0.5, s));
  auto fused = Optimize(raw);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ((*fused)->kind(), OpKind::kFused);

  DagAnalysis raw_analysis;
  DagAnalysis fused_analysis;
  auto raw_info = raw_analysis.Ensure(raw);
  auto fused_info = fused_analysis.Ensure(*fused);
  ASSERT_TRUE(raw_info.ok());
  ASSERT_TRUE(fused_info.ok());
  EXPECT_LT(fused_info->sparsity, 1.0);
  EXPECT_DOUBLE_EQ(fused_info->sparsity, raw_info->sparsity);
  EXPECT_DOUBLE_EQ(EstimateFlops(*fused), EstimateFlops(raw));
  EXPECT_NE(fused_analysis.Explain(*fused).find("fused[3 ops]"), std::string::npos)
      << fused_analysis.Explain(*fused);

  // The CSR leaf is densified by the fused node, as by the ops it replaces.
  bool densify_named = false;
  for (const Diagnostic& d : LintPlan(*fused)) {
    densify_named |= d.rule == "lint.densify_bound" &&
                     d.node.find("fused[3 ops]") != std::string::npos;
  }
  EXPECT_TRUE(densify_named) << RenderDiagnostics(LintPlan(*fused));
}

// ---------------------------------------------------------------------------
// The factory and the verifier refuse malformed fused nodes.
// ---------------------------------------------------------------------------

bool HasRuleNaming(const std::vector<Diagnostic>& diags, const std::string& text) {
  for (const Diagnostic& d : diags) {
    if (d.rule == "verify.fused_program" &&
        d.node.find("fused[") != std::string::npos &&
        d.message.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

class MalformedFusedTest : public ::testing::Test {
 protected:
  // fused[1 ops](A, B) = A + B over 3 x 3 leaves.
  ExprPtr Fresh() {
    auto node = ExprNode::Fused(
        {Leaf(DenseMatrix(3, 3, 1.0), "A"), Leaf(DenseMatrix(3, 3, 2.0), "B")},
        {{CellOp::kLoad, 0}, {CellOp::kLoad, 1}, {CellOp::kAdd}});
    EXPECT_TRUE(node.ok()) << node.status().message();
    EXPECT_TRUE(VerifyPlan(*node).empty());
    return *node;
  }
};

TEST_F(MalformedFusedTest, BadLoadIndex) {
  ExprPtr node = Fresh();
  ExprNodeTestAccess::Program(node)[1].input = 5;
  const auto diags = VerifyPlan(node);
  EXPECT_TRUE(HasRuleNaming(diags, "loads input 5")) << RenderDiagnostics(diags);
}

TEST_F(MalformedFusedTest, StackUnderflow) {
  ExprPtr node = Fresh();
  ExprNodeTestAccess::Program(node) = {
      {CellOp::kLoad, 0}, {CellOp::kAdd}, {CellOp::kLoad, 1}};
  const auto diags = VerifyPlan(node);
  EXPECT_TRUE(HasRuleNaming(diags, "underflows")) << RenderDiagnostics(diags);
}

TEST_F(MalformedFusedTest, LeftoverStack) {
  ExprPtr node = Fresh();
  ExprNodeTestAccess::Program(node).pop_back();
  const auto diags = VerifyPlan(node);
  EXPECT_TRUE(HasRuleNaming(diags, "2 values")) << RenderDiagnostics(diags);
}

TEST_F(MalformedFusedTest, ShapeMismatch) {
  ExprPtr node = Fresh();
  ExprNodeTestAccess::SetRows(node, 7);
  const auto diags = VerifyPlan(node);
  EXPECT_TRUE(HasRuleNaming(diags, "the node is 7x3")) << RenderDiagnostics(diags);
}

TEST_F(MalformedFusedTest, UnloadedChildAndExecutorGate) {
  ExprPtr node = Fresh();
  ExprNodeTestAccess::Program(node) = {
      {CellOp::kLoad, 0}, {CellOp::kScale, 0, 2.0}};
  const auto diags = VerifyPlan(node);
  EXPECT_TRUE(HasRuleNaming(diags, "never loads child 1")) << RenderDiagnostics(diags);
  // The executor's first-run verification refuses the plan too.
  if (VerifyEnabled()) {
    BufferedExecutor executor;
    auto run = executor.Run(node);
    ASSERT_FALSE(run.ok());
    EXPECT_NE(run.status().message().find("verify.fused_program"), std::string::npos)
        << run.status().message();
  }
}

TEST(FusedFactoryTest, RefusesWhatTheVerifierRefuses) {
  const auto a = Leaf(DenseMatrix(3, 3, 1.0), "A");
  const auto wide = Leaf(DenseMatrix(3, 4, 1.0), "W");
  EXPECT_FALSE(ExprNode::Fused({}, {{CellOp::kLoad, 0}}).ok());
  EXPECT_FALSE(ExprNode::Fused({a}, {{CellOp::kLoad, 1}}).ok());
  EXPECT_FALSE(ExprNode::Fused({a}, {{CellOp::kLoad, 0}, {CellOp::kMul}}).ok());
  EXPECT_FALSE(ExprNode::Fused({a}, {{CellOp::kLoad, 0},
                                     {static_cast<CellOp::Code>(9)}})
                   .ok());
  EXPECT_FALSE(ExprNode::Fused({a, wide}, {{CellOp::kLoad, 0}, {CellOp::kLoad, 1},
                                           {CellOp::kAdd}})
                   .ok());
  EXPECT_FALSE(ExprNode::MakeUnchecked(OpKind::kFused, {a}).ok());
  // Repeated children are legal (CSE can merge two leaves over one payload).
  EXPECT_TRUE(ExprNode::Fused({a, a}, {{CellOp::kLoad, 0}, {CellOp::kLoad, 1},
                                       {CellOp::kMul}})
                  .ok());
}

}  // namespace
}  // namespace dmml::laopt
