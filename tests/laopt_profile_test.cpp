// Tests for the laopt runtime plan profiler: per-node coverage, cross-run
// accumulation, estimate-vs-actual calibration rendering, the ExecStats
// fold, and the profiling-off zero-cost guarantee.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/parser.h"
#include "laopt/profile.h"
#include "ml/unified_trainers.h"
#include "obs/metrics.h"
#include "obs/profile_registry.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;
using la::SparseMatrix;

// Minimal recursive-descent JSON validator (same shape as the one in
// obs_test.cpp): asserts well-formedness without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (Literal("true") || Literal("false") || Literal("null")) return true;
    return Number();
  }
  bool Object() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    do {
      SkipWs();
      if (!String()) return false;
      if (!Consume(':')) return false;
      if (!Value()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    do {
      if (!Value()) return false;
    } while (Consume(','));
    return Consume(']');
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::shared_ptr<DenseMatrix> MakeDense(size_t rows, size_t cols, double base) {
  auto m = std::make_shared<DenseMatrix>(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m->At(r, c) = base + static_cast<double>(r * cols + c) * 0.25;
    }
  }
  return m;
}

// A small program with a matmul, an elementwise op, and a reduction:
// colSums((X %*% W) + (X %*% W) ⊙ (X %*% W)) exercising memoization too.
struct TestProgram {
  ExprPtr x, w, mm, em, add, root;
};

TestProgram BuildProgram() {
  TestProgram p;
  auto xm = MakeDense(6, 4, 1.0);
  auto wm = MakeDense(4, 3, -0.5);
  p.x = *ExprNode::Input(xm, "X");
  p.w = *ExprNode::Input(wm, "W");
  p.mm = *ExprNode::MatMul(p.x, p.w);
  p.em = *ExprNode::ElemMul(p.mm, p.mm);
  p.add = *ExprNode::Add(p.mm, p.em);
  p.root = *ExprNode::ColSums(p.add);
  return p;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

TEST(PlanProfileTest, CoversEveryNonLeafNode) {
  TestProgram p = BuildProgram();
  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(p.root).ok());

  EXPECT_EQ(profile.runs(), 1u);
  for (const ExprPtr& node : {p.mm, p.em, p.add, p.root}) {
    const NodeProfile* np = profile.Find(node.get());
    ASSERT_NE(np, nullptr) << OpKindName(node->kind());
    EXPECT_EQ(np->invocations, 1u);
    EXPECT_EQ(np->kind, node->kind());
    EXPECT_EQ(np->last_dispatch, Repr::kDense);
    EXPECT_EQ(np->out_repr, Repr::kDense);
    EXPECT_GT(np->out_rows * np->out_cols, 0u);
    // total time includes children; self never exceeds it.
    EXPECT_LE(np->self_us, np->total_us);
  }
  // Leaves are not executed ops; they get no sample rows.
  EXPECT_EQ(profile.Find(p.x.get()), nullptr);

  // Output shapes and nnz reflect the materialized values.
  const NodeProfile* mm = profile.Find(p.mm.get());
  EXPECT_EQ(mm->out_rows, 6u);
  EXPECT_EQ(mm->out_cols, 3u);
  EXPECT_LE(mm->out_nnz, 18u);
  EXPECT_GE(mm->ActualSparsity(), 0.0);
  EXPECT_LE(mm->ActualSparsity(), 1.0);

  // The shared X%*%W is reused twice in-run (em uses it twice, add once more).
  EXPECT_GE(mm->memo_hits, 2u);
}

TEST(PlanProfileTest, AccumulatesAcrossRuns) {
  TestProgram p = BuildProgram();
  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ExecStats stats;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(executor.Run(p.root, &stats).ok());

  EXPECT_EQ(profile.runs(), 3u);
  for (const ExprPtr& node : {p.mm, p.em, p.add, p.root}) {
    EXPECT_EQ(profile.Find(node.get())->invocations, 3u)
        << OpKindName(node->kind());
  }

  // ExecStats is a projection of the same per-run tally the profile folds
  // in — the two must agree exactly.
  ExecStats totals = profile.TotalStats();
  EXPECT_EQ(totals.ops_executed, stats.ops_executed);
  EXPECT_EQ(totals.memo_hits, stats.memo_hits);
  EXPECT_EQ(totals.densify_fallbacks, stats.densify_fallbacks);
  EXPECT_EQ(totals.ops_executed, 3u * 4u);
}

TEST(PlanProfileTest, ExplainAnalyzeTextHasCalibrationColumns) {
  TestProgram p = BuildProgram();
  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(p.root).ok());

  std::string text = profile.ExplainAnalyzeText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("runs=1"), std::string::npos);
  for (const char* column :
       {"actual ", "sparsity est=", "actual=", "err=", "bytes est=",
        "time_share=", "cost_share=", "repr=dense", "Input 'X'"}) {
    EXPECT_NE(text.find(column), std::string::npos) << column << "\n" << text;
  }
  for (const char* op : {"matmul", "elem_mul", "add", "col_sums"}) {
    EXPECT_NE(text.find(op), std::string::npos) << op << "\n" << text;
  }
}

TEST(PlanProfileTest, ExplainAnalyzeJsonIsValidAndCarriesFields) {
  TestProgram p = BuildProgram();
  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(p.root).ok());
  ASSERT_TRUE(executor.Run(p.root).ok());

  std::string json = profile.ExplainAnalyzeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* field :
       {"\"runs\":2", "\"totals\":", "\"roots\":", "\"est\":", "\"actual\":",
        "\"sparsity\":", "\"invocations\":2", "\"time_share\":",
        "\"cost_share\":", "\"dispatch\":\"dense\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
}

TEST(PlanProfileTest, ChargesDensifyFallbacksToTheOperandOwner) {
  // sparse + dense add: the sparse leaf must densify (fallback path).
  std::vector<la::Triplet> trips{{0, 0, 1.0}, {2, 3, 2.0}};
  auto sm = std::make_shared<SparseMatrix>(
      SparseMatrix::FromTriplets(4, 4, trips));
  auto dm = MakeDense(4, 4, 0.5);
  ExprPtr s = *ExprNode::InputOperand(Operand(sm), "S");
  ExprPtr d = *ExprNode::Input(dm, "D");
  ExprPtr root = *ExprNode::Add(s, d);

  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(root).ok());

  const NodeProfile* leaf = profile.Find(s.get());
  ASSERT_NE(leaf, nullptr);
  EXPECT_GE(leaf->densify_fallbacks, 1u);
  EXPECT_EQ(profile.TotalStats().densify_fallbacks, 1u);
}

TEST(PlanProfileTest, ProfilingOffMakesZeroProfileAllocations) {
  TestProgram p = BuildProgram();
  BufferedExecutor executor;  // no profile attached
  const uint64_t runs0 = CounterValue("laopt.profile.runs");
  const uint64_t nodes0 = CounterValue("laopt.profile.nodes_tracked");
  const uint64_t samples0 = CounterValue("laopt.profile.samples");
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(executor.Run(p.root).ok());
  EXPECT_EQ(CounterValue("laopt.profile.runs"), runs0);
  EXPECT_EQ(CounterValue("laopt.profile.nodes_tracked"), nodes0);
  EXPECT_EQ(CounterValue("laopt.profile.samples"), samples0);

  // With a profile attached, node entries are created exactly once; steady-
  // state runs only update existing rows (no new insertions).
  PlanProfile profile;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(p.root).ok());
  const uint64_t nodes_after_first = CounterValue("laopt.profile.nodes_tracked");
  const size_t tracked = profile.NumNodes();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(executor.Run(p.root).ok());
  EXPECT_EQ(CounterValue("laopt.profile.nodes_tracked"), nodes_after_first);
  EXPECT_EQ(profile.NumNodes(), tracked);
}

TEST(PlanProfileTest, GlmTrainingProducesFullCalibrationReport) {
  // 16 columns: the route rule gives this shape the scan route (statistics
  // cost 32·16·17 + 4·2·16² = 10752 > scan cost 4·4·32·16 = 8192).
  auto x = MakeDense(32, 16, 0.1);
  DenseMatrix y(32, 1);
  for (size_t i = 0; i < 32; ++i) y.At(i, 0) = static_cast<double>(i % 3);
  ml::GlmConfig config;
  config.max_epochs = 4;
  config.learning_rate = 0.001;
  ASSERT_EQ(ml::ChooseBatchGdRoute(Operand(x), {{32, 32}}, {config}).route,
            ml::BatchGdRoute::kScan);

  PlanProfile profile;
  auto model = ml::TrainGlmOnOperand(Operand(x), y, config, nullptr, &profile);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Two programs per epoch (scores, gradient), every epoch profiled.
  EXPECT_EQ(profile.runs(), 2u * model->epochs_run);

  // The report shows per-node actual time, chosen repr, and est-vs-actual
  // sparsity for every non-leaf node of both programs.
  std::string text = profile.ExplainAnalyzeText();
  EXPECT_NE(text.find("plan 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("plan 1:"), std::string::npos) << text;
  EXPECT_NE(text.find("matmul"), std::string::npos);
  EXPECT_NE(text.find("transpose"), std::string::npos);
  EXPECT_NE(text.find("repr=dense"), std::string::npos);
  EXPECT_NE(text.find("sparsity est="), std::string::npos);
  // The gradient's t(X) is absorbed by the fused t(X)·r kernel — reported
  // as fused, not as a node the profiler lost track of.
  EXPECT_NE(text.find("fused into consumer"), std::string::npos) << text;
  EXPECT_EQ(text.find("(never executed)"), std::string::npos)
      << "all non-leaf nodes must carry actuals:\n" << text;
  EXPECT_TRUE(JsonChecker(profile.ExplainAnalyzeJson()).Valid());
}

TEST(PlanProfileTest, StatisticsRouteProfilesOneGramProductPerEpoch) {
  // Five columns: the statistics route (32·5·6 + 4·2·5² = 1160 ≤ 2560).
  auto x = MakeDense(32, 5, 0.1);
  DenseMatrix y(32, 1);
  for (size_t i = 0; i < 32; ++i) y.At(i, 0) = static_cast<double>(i % 3);
  ml::GlmConfig config;
  config.max_epochs = 4;
  config.learning_rate = 0.001;
  ASSERT_EQ(ml::ChooseBatchGdRoute(Operand(x), {{32, 32}}, {config}).route,
            ml::BatchGdRoute::kStatistics);

  PlanProfile profile;
  auto model = ml::TrainGlmOnOperand(Operand(x), y, config, nullptr, &profile);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // One G·W program per epoch, every epoch profiled; the statistics pass is
  // a multi-root run, which the profiler does not record.
  EXPECT_EQ(profile.runs(), model->epochs_run);
  std::string text = profile.ExplainAnalyzeText();
  EXPECT_NE(text.find("plan 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("matmul"), std::string::npos) << text;
  EXPECT_NE(text.find("Input 'G0' 5x5"), std::string::npos) << text;
  EXPECT_EQ(text.find("(never executed)"), std::string::npos) << text;
  EXPECT_TRUE(JsonChecker(profile.ExplainAnalyzeJson()).Valid());
}

TEST(PlanProfileTest, ParserEvalExpressionThreadsTheProfile) {
  Environment env;
  env["X"] = Operand(MakeDense(8, 3, 1.0));
  env["v"] = Operand(MakeDense(3, 1, 2.0));
  PlanProfile profile;
  auto out = EvalExpression("t(X) %*% (X %*% v)", env, nullptr, &profile);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->rows(), 3u);
  EXPECT_EQ(profile.runs(), 1u);
  EXPECT_GT(profile.NumNodes(), 0u);
  EXPECT_NE(profile.ExplainAnalyzeText().find("matmul"), std::string::npos);
}

TEST(PlanProfileTest, RegisterProfilePublishesJsonOnTheRegistry) {
  auto profile = std::make_shared<PlanProfile>();
  TestProgram p = BuildProgram();
  BufferedExecutor executor;
  executor.set_profile(profile.get());
  ASSERT_TRUE(executor.Run(p.root).ok());

  {
    obs::ScopedProfileRegistration reg =
        RegisterProfile("test.plan_profile", profile);
    std::string snapshot = obs::ProfileRegistry::Global().JsonSnapshot();
    EXPECT_TRUE(JsonChecker(snapshot).Valid()) << snapshot;
    EXPECT_NE(snapshot.find("\"test.plan_profile\""), std::string::npos);
    EXPECT_NE(snapshot.find("\"roots\""), std::string::npos);
  }
  EXPECT_EQ(obs::ProfileRegistry::Global().JsonSnapshot().find("test.plan_profile"),
            std::string::npos);
}

TEST(PlanProfileTest, ResetDropsSamplesAndRoots) {
  TestProgram p = BuildProgram();
  PlanProfile profile;
  BufferedExecutor executor;
  executor.set_profile(&profile);
  ASSERT_TRUE(executor.Run(p.root).ok());
  ASSERT_GT(profile.NumNodes(), 0u);
  profile.Reset();
  EXPECT_EQ(profile.runs(), 0u);
  EXPECT_EQ(profile.NumNodes(), 0u);
  EXPECT_NE(profile.ExplainAnalyzeText().find("(no profiled runs)"),
            std::string::npos);
}

}  // namespace
}  // namespace dmml::laopt
