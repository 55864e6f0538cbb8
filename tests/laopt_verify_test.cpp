// Plan verifier, lint diagnostics, and static schedule/liveness analysis.
//
//  * Corrupted DAGs — cycles, wrong arity, null children, stale cached
//    shapes — must be rejected with a diagnostic naming the rule and node,
//    and a verifying pass failure must name the pass.
//  * VerifyRewrite catches passes that invent leaves, change the root shape,
//    or (for CSE) lose or duplicate structural value classes.
//  * Every lint rule demonstrated failing, then clean on the fixed plan.
//  * ComputeSchedule: wavefront levels, interference, concurrency, max_live.
//  * Liveness-driven buffer sharing in BufferedExecutor: fewer buffers than
//    dedicated mode (counter-asserted) with bit-identical results.
//
// This suite rides the sanitizer gates (thread, address+undefined): the
// cyclic-plan tests explicitly break their reference cycles so LeakSanitizer
// stays quiet.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "la/kernels.h"
#include "laopt/analysis.h"
#include "laopt/compile.h"
#include "laopt/cse.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"
#include "laopt/verify.h"
#include "ml/unified_trainers.h"
#include "obs/metrics.h"

namespace dmml::laopt {

// Test-only corruption hook (befriended by ExprNode): manufactures the
// ill-formed DAGs the public factories correctly refuse to build.
struct ExprNodeTestAccess {
  static void SetRows(const ExprPtr& n, size_t rows) {
    const_cast<ExprNode*>(n.get())->rows_ = rows;
  }
  static void SetCols(const ExprPtr& n, size_t cols) {
    const_cast<ExprNode*>(n.get())->cols_ = cols;
  }
  static std::vector<ExprPtr>& Children(const ExprPtr& n) {
    return const_cast<ExprNode*>(n.get())->children_;
  }
};

namespace {

using cla::CompressedMatrix;
using la::DenseMatrix;
using la::SparseMatrix;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// Scoped environment override; restores the previous value on destruction.
// Only used from single-threaded test bodies (setenv is not thread-safe).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv(name, value, 1);  // NOLINT(concurrency-mt-unsafe)
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);  // NOLINT(concurrency-mt-unsafe)
    } else {
      unsetenv(name_);  // NOLINT(concurrency-mt-unsafe)
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

bool HasRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return true;
  }
  return false;
}

size_t ErrorCount(const std::vector<Diagnostic>& diags) {
  size_t n = 0;
  for (const Diagnostic& d : diags) n += d.severity == Severity::kError ? 1 : 0;
  return n;
}

std::shared_ptr<DenseMatrix> Gaussian(size_t rows, size_t cols, uint64_t seed) {
  return std::make_shared<DenseMatrix>(data::GaussianMatrix(rows, cols, seed));
}

SparseMatrix ToCsr(const DenseMatrix& x) {
  std::vector<la::Triplet> triplets;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      if (x.At(r, c) != 0.0) triplets.push_back({r, c, x.At(r, c)});
    }
  }
  return SparseMatrix::FromTriplets(x.rows(), x.cols(), triplets);
}

// ---------------------------------------------------------------------------
// Verifier: corrupted DAGs are rejected, rule and node named.
// ---------------------------------------------------------------------------

TEST(VerifyPlanTest, CleanPlanHasNoDiagnostics) {
  auto x = *ExprNode::Input(Gaussian(40, 6, 1), "X");
  auto w = *ExprNode::Input(Gaussian(6, 1, 2), "w");
  auto plan = *ExprNode::MatMul(*ExprNode::Transpose(x), *ExprNode::MatMul(x, w));
  const uint64_t runs_before = CounterValue("laopt.verify.runs");
  EXPECT_TRUE(VerifyPlan(plan).empty());
  EXPECT_EQ(CounterValue("laopt.verify.runs"), runs_before + 1);
}

TEST(VerifyPlanTest, RejectsCycle) {
  auto x = *ExprNode::Input(Gaussian(5, 5, 3), "X");
  auto a = *ExprNode::Transpose(x);
  auto b = *ExprNode::Transpose(a);
  // Corrupt a's child edge to point back at b: a -> b -> a.
  ExprNodeTestAccess::Children(a)[0] = b;
  std::vector<Diagnostic> diags = VerifyPlan(b);
  EXPECT_TRUE(HasRule(diags, "verify.cycle")) << RenderDiagnostics(diags);
  EXPECT_GE(ErrorCount(diags), 1u);
  // A cyclic plan must also be rejected by the scheduler, not crash it.
  EXPECT_FALSE(ComputeSchedule(b).ok());
  // Break the shared_ptr cycle so LeakSanitizer stays quiet.
  ExprNodeTestAccess::Children(a).clear();
}

TEST(VerifyPlanTest, RejectsWrongArity) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 4), "X");
  auto y = *ExprNode::Input(Gaussian(4, 3, 5), "Y");
  auto add = *ExprNode::Add(x, y);
  ExprNodeTestAccess::Children(add).pop_back();  // kAdd with one child.
  std::vector<Diagnostic> diags = VerifyPlan(add);
  EXPECT_TRUE(HasRule(diags, "verify.arity")) << RenderDiagnostics(diags);
}

TEST(VerifyPlanTest, RejectsNullChild) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 6), "X");
  auto t = *ExprNode::Transpose(x);
  ExprNodeTestAccess::Children(t)[0] = nullptr;
  std::vector<Diagnostic> diags = VerifyPlan(t);
  EXPECT_TRUE(HasRule(diags, "verify.null_child")) << RenderDiagnostics(diags);
}

TEST(VerifyPlanTest, RejectsStaleDerivedShape) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 7), "X");
  auto t = *ExprNode::Transpose(x);  // Correctly 3x4.
  ExprNodeTestAccess::SetRows(t, 7);
  std::vector<Diagnostic> diags = VerifyPlan(t);
  ASSERT_TRUE(HasRule(diags, "verify.stale_shape")) << RenderDiagnostics(diags);
  // The diagnostic names the offending node.
  for (const Diagnostic& d : diags) {
    if (d.rule == "verify.stale_shape") {
      EXPECT_FALSE(d.node.empty());
    }
  }
}

TEST(VerifyPlanTest, RejectsStaleBoundLeafShape) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 8), "X");
  ExprNodeTestAccess::SetCols(x, 9);  // Leaf no longer matches its operand.
  std::vector<Diagnostic> diags = VerifyPlan(x);
  EXPECT_TRUE(HasRule(diags, "verify.stale_shape")) << RenderDiagnostics(diags);
}

TEST(VerifyRewriteTest, OptimizerAndCseOutputsVerifyClean) {
  auto x = *ExprNode::Input(Gaussian(50, 4, 9), "X");
  auto w = *ExprNode::Input(Gaussian(4, 1, 10), "w");
  // Doubly-transposed chain with a shared Gram: exercises transpose
  // elimination, chain reordering, and CSE merging.
  auto gram1 = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  auto gram2 = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  auto before = *ExprNode::MatMul(*ExprNode::Add(gram1, gram2), w);

  auto optimized = Optimize(before);
  ASSERT_TRUE(optimized.ok()) << optimized.status().message();
  EXPECT_EQ(ErrorCount(VerifyRewrite("optimizer", before, *optimized)), 0u);

  auto consed = EliminateCommonSubexpressions(*optimized);
  ASSERT_TRUE(consed.ok()) << consed.status().message();
  EXPECT_EQ(ErrorCount(VerifyRewrite("cse", *optimized, *consed,
                                     /*expect_hash_consed=*/true)),
            0u);
}

TEST(VerifyRewriteTest, FlagsForeignLeaf) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 11), "X");
  auto z = *ExprNode::Input(Gaussian(4, 3, 12), "Z");
  std::vector<Diagnostic> diags =
      VerifyRewrite("optimizer", *ExprNode::Transpose(x), *ExprNode::Transpose(z));
  EXPECT_TRUE(HasRule(diags, "verify.foreign_leaf")) << RenderDiagnostics(diags);
}

TEST(VerifyRewriteTest, FlagsRootShapeChange) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 13), "X");
  std::vector<Diagnostic> diags =
      VerifyRewrite("optimizer", *ExprNode::Transpose(x), x);  // 3x4 -> 4x3.
  EXPECT_TRUE(HasRule(diags, "verify.root_shape")) << RenderDiagnostics(diags);
}

TEST(VerifyRewriteTest, HashConsingChecksValueCoverage) {
  auto x = *ExprNode::Input(Gaussian(30, 4, 14), "X");
  auto gram1 = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  auto gram2 = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  auto before = *ExprNode::Add(gram1, gram2);

  // A "CSE output" that still contains two nodes of the same value class.
  std::vector<Diagnostic> dup =
      VerifyRewrite("cse", before, before, /*expect_hash_consed=*/true);
  EXPECT_TRUE(HasRule(dup, "verify.duplicate_value")) << RenderDiagnostics(dup);

  // A "CSE output" that dropped the Add value class entirely (the root shape
  // happens to match, so only the coverage check can catch this).
  std::vector<Diagnostic> lost =
      VerifyRewrite("cse", before, gram1, /*expect_hash_consed=*/true);
  EXPECT_TRUE(HasRule(lost, "verify.value_lost")) << RenderDiagnostics(lost);
}

// ---------------------------------------------------------------------------
// Verifier surfacing: pass and node are named; DMML_VERIFY toggles.
// ---------------------------------------------------------------------------

TEST(VerifyGateTest, ExecutorRejectsCorruptPlanNamingPass) {
  ScopedEnv verify_on("DMML_VERIFY", "1");
  auto x = *ExprNode::Input(Gaussian(4, 3, 15), "X");
  auto t = *ExprNode::Transpose(x);
  ExprNodeTestAccess::SetRows(t, 7);
  BufferedExecutor executor;
  auto result = executor.Run(t);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("executor"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("verify.stale_shape"),
            std::string::npos)
      << result.status().message();
}

TEST(VerifyGateTest, PipelineRejectsCorruptPlanNamingPass) {
  ScopedEnv verify_on("DMML_VERIFY", "1");
  auto x = *ExprNode::Input(Gaussian(4, 3, 16), "X");
  auto t = *ExprNode::Transpose(x);
  ExprNodeTestAccess::SetRows(t, 7);
  PipelineOptions options;
  options.run_analysis = false;  // Isolate the verifier as the rejector.
  auto result = CompilePlan(t, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("input"), std::string::npos)
      << result.status().message();
}

TEST(VerifyGateTest, DisabledVerifierSkipsTheGate) {
  ScopedEnv verify_off("DMML_VERIFY", "0");
  EXPECT_FALSE(VerifyEnabled());
  auto x = *ExprNode::Input(Gaussian(4, 3, 17), "X");
  auto t = *ExprNode::Transpose(x);
  ExprNodeTestAccess::SetRows(t, 7);
  PipelineOptions options;
  options.run_analysis = false;
  // Compile-only: the optimizer rebuilds nodes through the checked factories,
  // so the stale cached shape is simply recomputed away.
  EXPECT_TRUE(CompilePlan(t, options).ok());
}

TEST(VerifyGateTest, ExplainCarriesDiagnosticsLine) {
  ScopedEnv verify_on("DMML_VERIFY", "1");
  auto x = *ExprNode::Input(Gaussian(20, 4, 18), "X");
  auto plan = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
  PipelineOptions options;
  options.capture_explain = true;
  PlanReport report;
  ASSERT_TRUE(CompilePlan(plan, options, &report).ok());
  EXPECT_NE(report.explain.find("diagnostics"), std::string::npos)
      << report.explain;
}

// ---------------------------------------------------------------------------
// Lint rules: each failing, then clean.
// ---------------------------------------------------------------------------

TEST(LintPlanTest, DeadZeroScalar) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 20), "X");
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::ScalarMul(0.0, x)),
                      "lint.dead_zero_scalar"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::ScalarMul(2.0, x)),
                       "lint.dead_zero_scalar"));
}

TEST(LintPlanTest, NonfiniteScalar) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 21), "X");
  auto inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::ScalarMul(inf, x)),
                      "lint.nonfinite_scalar"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::ScalarMul(-2.5, x)),
                       "lint.nonfinite_scalar"));
}

TEST(LintPlanTest, RedundantTranspose) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 22), "X");
  auto tt = *ExprNode::Transpose(*ExprNode::Transpose(x));
  EXPECT_TRUE(HasRule(LintPlan(tt), "lint.redundant_transpose"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::Transpose(x)),
                       "lint.redundant_transpose"));
}

TEST(LintPlanTest, SelfSubtract) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 23), "X");
  auto y = *ExprNode::Input(Gaussian(4, 3, 24), "Y");
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::Subtract(x, x)), "lint.self_subtract"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::Subtract(x, y)), "lint.self_subtract"));
}

TEST(LintPlanTest, StaticallyZeroOperand) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 25), "X");
  auto zero = *ExprNode::Input(std::make_shared<DenseMatrix>(4, 3), "Z");
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::ElemMul(x, zero)), "lint.zero_operand"));
  auto y = *ExprNode::Input(Gaussian(4, 3, 26), "Y");
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::ElemMul(x, y)), "lint.zero_operand"));
}

TEST(LintPlanTest, DensifyBoundReprChoices) {
  auto dense = Gaussian(4, 3, 27);
  DenseMatrix holey = *dense;
  for (size_t i = 0; i < holey.size(); i += 2) holey.data()[i] = 0.0;
  auto sparse = std::make_shared<SparseMatrix>(ToCsr(holey));
  auto xd = *ExprNode::Input(dense, "Xd");
  auto xs = *ExprNode::InputOperand(Operand(sparse), "Xs");

  // Elementwise over a sparse operand densifies on every run.
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::Add(xs, xd)), "lint.densify_bound"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::Add(xd, xd)), "lint.densify_bound"));

  // The generic matmul path densifies its right operand.
  auto y = *ExprNode::Input(Gaussian(2, 4, 28), "Y");
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::MatMul(y, xs)), "lint.densify_bound"));
  EXPECT_FALSE(HasRule(LintPlan(*ExprNode::MatMul(y, xd)), "lint.densify_bound"));

  // Standalone transpose of a compressed operand densifies; the same
  // transpose consumed as a matmul's left factor is fused and native.
  auto compressed =
      std::make_shared<CompressedMatrix>(CompressedMatrix::Compress(holey));
  auto xc = *ExprNode::InputOperand(Operand(compressed), "Xc");
  auto d34 = *ExprNode::Input(Gaussian(3, 4, 29), "D");
  EXPECT_TRUE(HasRule(LintPlan(*ExprNode::Add(*ExprNode::Transpose(xc), d34)),
                      "lint.densify_bound"));
  auto v = *ExprNode::Input(Gaussian(4, 1, 30), "v");
  EXPECT_FALSE(
      HasRule(LintPlan(*ExprNode::MatMul(*ExprNode::Transpose(xc), v)),
              "lint.densify_bound"));
}

TEST(LintPlanTest, UnusedBinding) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 31), "X");
  auto plan = *ExprNode::Transpose(x);
  EXPECT_TRUE(HasRule(LintPlan(plan, {"X", "unused"}), "lint.unused_binding"));
  EXPECT_FALSE(HasRule(LintPlan(plan, {"X"}), "lint.unused_binding"));
}

TEST(LintPlanTest, CleanTrainerPlansAreLintQuiet) {
  // Representative trainer plans over dense and natively-supported sparse
  // operands must produce zero findings: lint noise on healthy programs
  // would train users to ignore it.
  auto dense = Gaussian(60, 5, 32);
  DenseMatrix holey = *dense;
  for (size_t i = 0; i < holey.size(); i += 3) holey.data()[i] = 0.0;
  auto sparse = std::make_shared<SparseMatrix>(ToCsr(holey));
  auto xd = *ExprNode::Input(dense, "X");
  auto xs = *ExprNode::InputOperand(Operand(sparse), "S");
  auto w = *ExprNode::Input(Gaussian(5, 1, 33), "w");
  auto v = *ExprNode::Input(Gaussian(60, 1, 34), "v");

  // GLM gradient core: t(X) %*% (X %*% w).
  auto glm = *ExprNode::MatMul(*ExprNode::Transpose(xd), *ExprNode::MatMul(xd, w));
  EXPECT_TRUE(LintPlan(glm).empty()) << RenderDiagnostics(LintPlan(glm));
  // Sparse gevm: t(S) %*% v — fused, never densifies.
  auto gevm = *ExprNode::MatMul(*ExprNode::Transpose(xs), v);
  EXPECT_TRUE(LintPlan(gevm).empty()) << RenderDiagnostics(LintPlan(gevm));
  // Normal equations Gram over dense.
  auto gram = *ExprNode::MatMul(*ExprNode::Transpose(xd), xd);
  EXPECT_TRUE(LintPlan(gram).empty()) << RenderDiagnostics(LintPlan(gram));
}

TEST(LintPlanTest, LintFindingsCounterAdvances) {
  auto x = *ExprNode::Input(Gaussian(4, 3, 35), "X");
  const uint64_t before = CounterValue("laopt.verify.lint_findings");
  (void)LintPlan(*ExprNode::ScalarMul(0.0, x));
  EXPECT_GT(CounterValue("laopt.verify.lint_findings"), before);
}

TEST(LintPlanTest, ParserSurfacesUnusedBindingsUnderLintEnv) {
  ScopedEnv lint_on("DMML_LINT", "1");
  EXPECT_TRUE(LintEnabled());
  Environment env = {{"X", Gaussian(8, 3, 36)}, {"unused", Gaussian(2, 2, 37)}};
  // Must parse fine; the finding is advisory (logged, never fatal).
  EXPECT_TRUE(ParseExpression("t(X) %*% X", env).ok());
  ScopedEnv lint_off("DMML_LINT", "0");
  EXPECT_FALSE(LintEnabled());
}

// ---------------------------------------------------------------------------
// Static schedule: wavefront levels, liveness, interference, concurrency.
// ---------------------------------------------------------------------------

TEST(ComputeScheduleTest, LevelsAndLiveness) {
  auto x = *ExprNode::Input(Gaussian(40, 6, 40), "X");
  auto w = *ExprNode::Input(Gaussian(6, 1, 41), "w");
  auto xw = *ExprNode::MatMul(x, w);
  auto tx = *ExprNode::Transpose(x);
  auto root = *ExprNode::MatMul(tx, xw);

  auto schedule = ComputeSchedule(root);
  ASSERT_TRUE(schedule.ok()) << schedule.status().message();
  EXPECT_EQ(schedule->num_levels(), 3u);  // leaves, {Xw, t(X)}, root.

  const ScheduleEntry* leaf = schedule->Find(x.get());
  const ScheduleEntry* product = schedule->Find(xw.get());
  const ScheduleEntry* top = schedule->Find(root.get());
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(product, nullptr);
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(leaf->level, 0u);
  EXPECT_EQ(product->level, 1u);
  EXPECT_EQ(top->level, 2u);
  EXPECT_EQ(top->last_use, std::numeric_limits<size_t>::max())
      << "the root's buffer survives until the next Run";
  EXPECT_GE(product->last_use, top->def - 1)
      << "X*w is read when the root completes";

  // Independent siblings may run concurrently; root and child may not.
  EXPECT_TRUE(schedule->MayRunConcurrently(xw.get(), tx.get()));
  EXPECT_FALSE(schedule->MayRunConcurrently(root.get(), xw.get()));
  EXPECT_TRUE(schedule->Interferes(xw.get(), tx.get()))
      << "both values are live when the root consumes them";
}

TEST(ComputeScheduleTest, ChainHasBoundedMaxLive) {
  // a3 = ((X+X)+X)+X: at any moment at most two non-leaf values are live.
  auto x = *ExprNode::Input(Gaussian(8, 4, 42), "X");
  auto a1 = *ExprNode::Add(x, x);
  auto a2 = *ExprNode::Add(a1, x);
  auto a3 = *ExprNode::Add(a2, x);
  auto schedule = ComputeSchedule(a3);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->max_live(), 2u);
  EXPECT_FALSE(schedule->Interferes(a1.get(), a3.get()))
      << "a1 dies when a2 completes; a3 can reuse its buffer";
  const uint64_t schedules = CounterValue("laopt.analysis.schedules");
  (void)ComputeSchedule(a3);
  EXPECT_GT(CounterValue("laopt.analysis.schedules"), schedules);
}

TEST(ComputeScheduleTest, OperandReadsSeesThroughFusedTranspose) {
  auto x = *ExprNode::Input(Gaussian(12, 3, 43), "X");
  auto v = *ExprNode::Input(Gaussian(12, 1, 44), "v");
  auto tx = *ExprNode::Transpose(x);
  auto root = *ExprNode::MatMul(tx, v);
  std::vector<const ExprNode*> reads = OperandReads(root.get());
  bool sees_grandchild = false;
  for (const ExprNode* n : reads) sees_grandchild |= n == x.get();
  EXPECT_TRUE(sees_grandchild)
      << "t(X)*v reads X directly through the fused kernel";
}

// ---------------------------------------------------------------------------
// Liveness-driven buffer sharing in the executor.
// ---------------------------------------------------------------------------

// Wide DAG: a balanced add-tree over eight independent X*w_i products. Many
// short-lived intermediates = plenty of slot-sharing opportunity.
ExprPtr WideDag(const std::shared_ptr<DenseMatrix>& x,
                std::vector<std::shared_ptr<DenseMatrix>>* keep_alive) {
  std::vector<ExprPtr> layer;
  auto xleaf = *ExprNode::Input(x, "X");
  for (int i = 0; i < 8; ++i) {
    auto w = Gaussian(x->cols(), 1, 100 + i);
    keep_alive->push_back(w);
    layer.push_back(*ExprNode::MatMul(xleaf, *ExprNode::Input(w, "w")));
  }
  while (layer.size() > 1) {
    std::vector<ExprPtr> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(*ExprNode::Add(layer[i], layer[i + 1]));
    }
    layer = std::move(next);
  }
  return layer[0];
}

TEST(BufferSharingTest, FewerBuffersBitIdenticalResults) {
  auto x = Gaussian(64, 6, 50);
  std::vector<std::shared_ptr<DenseMatrix>> keep_alive;
  ExprPtr plan = WideDag(x, &keep_alive);

  BufferedExecutor dedicated;
  dedicated.set_buffer_sharing(false);
  auto baseline = dedicated.Run(plan);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();
  DenseMatrix expected = **baseline;  // Copy out of the executor's buffers.

  const uint64_t shared_before = CounterValue("laopt.executor.buffers_shared");
  BufferedExecutor sharing;  // Sharing is the default.
  ASSERT_TRUE(sharing.buffer_sharing());
  auto shared = sharing.Run(plan);
  ASSERT_TRUE(shared.ok()) << shared.status().message();

  // Bit-identical: sharing must not change evaluation order or kernels.
  ASSERT_EQ((*shared)->rows(), expected.rows());
  ASSERT_EQ((*shared)->cols(), expected.cols());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*shared)->data()[i], expected.data()[i]) << "element " << i;
  }

  // 15 non-leaf nodes; liveness packs them into far fewer buffers.
  EXPECT_EQ(dedicated.num_buffers(), 15u);
  EXPECT_LT(sharing.num_buffers(), dedicated.num_buffers());
  EXPECT_GT(CounterValue("laopt.executor.buffers_shared"), shared_before);

  auto schedule = ComputeSchedule(plan);
  ASSERT_TRUE(schedule.ok());
  // max_live excludes the root-held buffer's special lifetime by at most one.
  EXPECT_LE(sharing.num_buffers(), schedule->max_live() + 1);

  // Stability: repeated runs on the shared executor keep producing the
  // identical result (no stale aliased buffers).
  for (int run = 0; run < 3; ++run) {
    auto again = sharing.Run(plan);
    ASSERT_TRUE(again.ok());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ((*again)->data()[i], expected.data()[i]);
    }
  }
}

TEST(BufferSharingTest, SharedNodesAcrossRootsDoNotCollide) {
  // Two roots that share a subexpression: the memoized value of the shared
  // node must never be clobbered by the second root's buffer assignment.
  auto x = Gaussian(32, 4, 60);
  auto xleaf = *ExprNode::Input(x, "X");
  auto gram = *ExprNode::MatMul(*ExprNode::Transpose(xleaf), xleaf);
  auto w = *ExprNode::Input(Gaussian(4, 1, 61), "w");
  auto root_a = *ExprNode::MatMul(gram, w);
  auto root_b = *ExprNode::Add(gram, gram);

  BufferedExecutor executor;
  auto a = executor.Run(root_a);
  ASSERT_TRUE(a.ok());
  DenseMatrix a_copy = **a;
  auto b = executor.Run(root_b);
  ASSERT_TRUE(b.ok());

  BufferedExecutor fresh;
  fresh.set_buffer_sharing(false);
  auto a_ref = fresh.Run(root_a);
  ASSERT_TRUE(a_ref.ok());
  for (size_t i = 0; i < a_copy.size(); ++i) {
    ASSERT_EQ(a_copy.data()[i], (*a_ref)->data()[i]);
  }
  auto b_ref = fresh.Run(root_b);
  ASSERT_TRUE(b_ref.ok());
  for (size_t i = 0; i < (*b_ref)->size(); ++i) {
    ASSERT_EQ((*b)->data()[i], (*b_ref)->data()[i]);
  }
}

TEST(BufferSharingTest, TrainerParityUnderSharing) {
  // End-to-end: the GLM normal-equations path (which runs through laopt
  // plans internally) agrees with itself regardless of executor reuse, and
  // lints quiet — the "verifier is zero-diagnostic on healthy programs"
  // acceptance gate in miniature.
  auto x = Gaussian(80, 5, 70);
  auto y = Gaussian(80, 1, 71);
  ml::GlmConfig config;
  config.solver = ml::GlmSolver::kNormalEquations;
  config.l2 = 0.1;
  auto m1 = ml::TrainGlm(*x, *y, config);
  auto m2 = ml::TrainGlm(*x, *y, config);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  for (size_t i = 0; i < m1->weights.size(); ++i) {
    EXPECT_EQ(m1->weights.data()[i], m2->weights.data()[i]);
  }
}

}  // namespace
}  // namespace dmml::laopt
