// Tests for the inter-node dataflow scheduler: bit-identical results versus
// the serial executor across wide, diamond, and fused-kernel plans; the
// runtime no-concurrent-writer check on shared pool buffers; cooperative
// waiting under nested submission on a one-thread pool; two executors
// sharing GlobalThreadPool(); and exact profile/ExecStats parity.
//
// This suite rides the sanitizer gates in scripts/static_checks.sh (TSan and
// ASan+UBSan) — any data race between concurrently-launched node tasks shows
// up here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cla/compressed_matrix.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "laopt/analysis.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/profile.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dmml::laopt {
namespace {

using la::DenseMatrix;
using la::SparseMatrix;

std::shared_ptr<DenseMatrix> MakeDense(size_t rows, size_t cols, double base) {
  auto m = std::make_shared<DenseMatrix>(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m->At(r, c) = base + static_cast<double>(r * cols + c) * 0.37 -
                    static_cast<double>((r * 7 + c * 3) % 5);
    }
  }
  return m;
}

std::shared_ptr<SparseMatrix> MakeSparse(size_t rows, size_t cols) {
  std::vector<la::Triplet> t;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = r % 3; c < cols; c += 3) {
      t.push_back({r, c, 1.0 + static_cast<double>(r * cols + c) * 0.5});
    }
  }
  return std::make_shared<SparseMatrix>(
      SparseMatrix::FromTriplets(rows, cols, std::move(t)));
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// A wide plan: `width` independent Gram-style subtrees colSums(t(Xi) %*% Xi)
// joined by a balanced add-tree. Nothing below the add-tree shares a node,
// so a dataflow scheduler can run all subtrees concurrently.
ExprPtr BuildWidePlan(size_t width, size_t rows, size_t cols) {
  std::vector<ExprPtr> parts;
  for (size_t i = 0; i < width; ++i) {
    ExprPtr x = *ExprNode::Input(MakeDense(rows, cols, 0.1 * (i + 1)),
                                 "X" + std::to_string(i));
    ExprPtr gram = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
    parts.push_back(*ExprNode::ColSums(gram));
  }
  while (parts.size() > 1) {
    std::vector<ExprPtr> next;
    for (size_t i = 0; i + 1 < parts.size(); i += 2) {
      next.push_back(*ExprNode::Add(parts[i], parts[i + 1]));
    }
    if (parts.size() % 2 == 1) next.push_back(parts.back());
    parts = std::move(next);
  }
  return parts[0];
}

// A diamond: mm = X %*% W feeds two branches that rejoin. The shared node is
// evaluated once; every other consumer must observe the memoized value.
ExprPtr BuildDiamondPlan() {
  ExprPtr x = *ExprNode::Input(MakeDense(12, 6, 1.0), "X");
  ExprPtr w = *ExprNode::Input(MakeDense(6, 4, -0.5), "W");
  ExprPtr mm = *ExprNode::MatMul(x, w);
  ExprPtr em = *ExprNode::ElemMul(mm, mm);
  ExprPtr left = *ExprNode::ColSums(*ExprNode::Add(mm, em));
  ExprPtr right = *ExprNode::ColSums(*ExprNode::ScalarMul(2.0, mm));
  return *ExprNode::Add(left, right);
}

// Fused-kernel coverage: t(U)%*%V and U%*%t(V) (transpose absorbed into the
// multiply), a Gram t(U)%*%U, rowSums(S⊙S) on a sparse leaf (fused squared
// norms), and a sparse transpose that materializes CSR. The absorbable
// nodes get no dataflow task; consumers inline-evaluate on demand.
ExprPtr BuildFusedPlan() {
  ExprPtr u = *ExprNode::Input(MakeDense(10, 5, 0.3), "U");
  ExprPtr v = *ExprNode::Input(MakeDense(10, 5, -1.2), "V");
  ExprPtr s = *ExprNode::InputOperand(Operand(MakeSparse(10, 5)), "S");

  ExprPtr tuv = *ExprNode::MatMul(*ExprNode::Transpose(u), v);       // 5x5
  ExprPtr gram = *ExprNode::MatMul(*ExprNode::Transpose(u), u);      // 5x5
  ExprPtr uvt = *ExprNode::MatMul(u, *ExprNode::Transpose(v));       // 10x10
  ExprPtr norms = *ExprNode::RowSums(*ExprNode::ElemMul(s, s));      // 10x1
  ExprPtr st = *ExprNode::Transpose(s);                              // 5x10

  ExprPtr a = *ExprNode::ColSums(*ExprNode::Add(tuv, gram));         // 1x5
  ExprPtr b = *ExprNode::ColSums(*ExprNode::MatMul(st, uvt));        // 1x10
  ExprPtr c = *ExprNode::ColSums(*ExprNode::Transpose(norms));       // 1x10
  return *ExprNode::Sum(*ExprNode::Add(
      b, *ExprNode::Add(*ExprNode::ElemMul(b, c), *ExprNode::MatMul(a, st))));
}

void ExpectBitIdentical(const DenseMatrix& serial, const DenseMatrix& par,
                        const std::string& label) {
  ASSERT_EQ(serial.rows(), par.rows()) << label;
  ASSERT_EQ(serial.cols(), par.cols()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    // EXPECT_EQ on doubles is exact — the scheduler reorders tasks, never
    // the floating-point reductions inside a kernel.
    ASSERT_EQ(serial.data()[i], par.data()[i]) << label << " flat index " << i;
  }
}

// Runs `root` serially and inter-node on the same pool and asserts
// bit-identical output. The pool is shared because kernel chunking (and so
// floating-point reduction order) depends on pool size — a morsel property
// independent of the scheduler. For a fixed pool, turning inter-node
// scheduling on must not change one bit.
void CheckPlanParity(const ExprPtr& root, const std::string& label,
                     size_t threads = 4) {
  ThreadPool pool(threads);
  BufferedExecutor serial(&pool);
  serial.set_inter_node(false);
  const auto s = serial.Run(root);
  ASSERT_TRUE(s.ok()) << label << ": " << s.status().message();
  const DenseMatrix serial_out = **s;  // Copy out of executor storage.

  BufferedExecutor par_exec(&pool);
  par_exec.set_inter_node(true);
  const auto p = par_exec.Run(root);
  ASSERT_TRUE(p.ok()) << label << ": " << p.status().message();
  ExpectBitIdentical(serial_out, **p, label);
}

TEST(LaoptSchedTest, WidePlanBitIdentical) {
  const uint64_t launched_before = CounterValue("laopt.sched.nodes_launched");
  CheckPlanParity(BuildWidePlan(8, 16, 6), "wide");
  EXPECT_GT(CounterValue("laopt.sched.nodes_launched"), launched_before);
}

TEST(LaoptSchedTest, DiamondPlanBitIdentical) {
  CheckPlanParity(BuildDiamondPlan(), "diamond");
}

TEST(LaoptSchedTest, FusedKernelPlanBitIdentical) {
  CheckPlanParity(BuildFusedPlan(), "fused");
}

TEST(LaoptSchedTest, SharedAbsorbedTransposeBitIdentical) {
  // One t(X) node absorbed by two different matmuls (the Gram and the
  // GLM-gradient patterns sharing a transpose): the bench's wide-DAG shape.
  std::vector<ExprPtr> parts;
  for (int i = 0; i < 4; ++i) {
    // Large enough that the dense kernels split into parallel chunks, so
    // inter-node tasks and intra-node morsels coexist on the pool.
    ExprPtr x = *ExprNode::Input(MakeDense(384, 24, 0.3 * (i + 1)),
                                 "X" + std::to_string(i));
    ExprPtr w = *ExprNode::Input(MakeDense(24, 1, -0.4 * (i + 1)),
                                 "w" + std::to_string(i));
    ExprPtr xt = *ExprNode::Transpose(x);
    ExprPtr gram = *ExprNode::MatMul(xt, x);
    ExprPtr grad = *ExprNode::MatMul(xt, *ExprNode::MatMul(x, w));
    parts.push_back(*ExprNode::Add(*ExprNode::ColSums(gram),
                                   *ExprNode::Transpose(grad)));
  }
  const ExprPtr root = *ExprNode::Add(*ExprNode::Add(parts[0], parts[1]),
                                      *ExprNode::Add(parts[2], parts[3]));
  for (int run = 0; run < 20; ++run) CheckPlanParity(root, "shared-transpose");
}

TEST(LaoptSchedTest, RepeatedRunsStayIdentical) {
  // Re-running the same prepared plan reuses buffers and the dependency
  // counters; every run must still match the serial result exactly.
  const ExprPtr root = BuildWidePlan(6, 12, 5);
  ThreadPool pool(3);
  BufferedExecutor serial(&pool);
  serial.set_inter_node(false);
  const DenseMatrix expect = **serial.Run(root);

  BufferedExecutor par_exec(&pool);
  par_exec.set_inter_node(true);
  for (int run = 0; run < 5; ++run) {
    const auto p = par_exec.Run(root);
    ASSERT_TRUE(p.ok()) << p.status().message();
    ExpectBitIdentical(expect, **p, "run " + std::to_string(run));
  }
}

TEST(LaoptSchedTest, SharedBuffersNeverSeeConcurrentWriters) {
  // The concurrency-aware linear scan may only let two nodes share a buffer
  // when the dependency closure orders them. The executor cross-checks this
  // at runtime: every pool-buffer write CAS-claims the buffer, and a failed
  // claim bumps laopt.sched.buffer_conflicts. Drive a deep plan (long
  // chains force retirement-based sharing) many times and require zero
  // conflicts — while proving sharing actually happened.
  const uint64_t conflicts_before = CounterValue("laopt.sched.buffer_conflicts");
  const uint64_t shared_before = CounterValue("laopt.executor.buffers_shared");

  std::vector<ExprPtr> parts;
  for (size_t i = 0; i < 4; ++i) {
    ExprPtr x = *ExprNode::Input(MakeDense(8, 8, 0.2 * (i + 1)),
                                 "C" + std::to_string(i));
    ExprPtr chain = x;
    for (int hop = 0; hop < 6; ++hop) {
      chain = *ExprNode::ScalarMul(0.5, *ExprNode::MatMul(chain, x));
    }
    parts.push_back(*ExprNode::Sum(chain));
  }
  const ExprPtr root = *ExprNode::Add(*ExprNode::Add(parts[0], parts[1]),
                                      *ExprNode::Add(parts[2], parts[3]));

  ThreadPool pool(4);
  BufferedExecutor exec(&pool);
  exec.set_inter_node(true);
  for (int run = 0; run < 10; ++run) {
    ASSERT_TRUE(exec.Run(root).ok());
  }

  EXPECT_GT(CounterValue("laopt.executor.buffers_shared"), shared_before)
      << "plan was expected to exercise buffer sharing";
  EXPECT_EQ(CounterValue("laopt.sched.buffer_conflicts"), conflicts_before)
      << "two tasks claimed one pool buffer concurrently";
}

TEST(LaoptSchedTest, SingleThreadPoolDoesNotDeadlock) {
  // One worker, inter-node scheduling on: node tasks submit nested
  // intra-node work (ParallelForChunks) and the run-level Wait must drain
  // the queue cooperatively. A non-cooperative wait deadlocks here.
  ThreadPool pool(1);
  BufferedExecutor exec(&pool);
  exec.set_inter_node(true);
  const ExprPtr root = BuildWidePlan(4, 24, 8);

  BufferedExecutor serial;
  serial.set_inter_node(false);
  const DenseMatrix expect = **serial.Run(root);

  const auto p = exec.Run(root);
  ASSERT_TRUE(p.ok()) << p.status().message();
  ExpectBitIdentical(expect, **p, "pool(1)");
}

TEST(LaoptSchedTest, TwoExecutorsShareGlobalPool) {
  // Two executors driving inter-node runs on GlobalThreadPool() from two
  // threads: per-run state is per-executor, so the runs must not interfere,
  // and cooperative waiting keeps either driver from starving the other.
  const ExprPtr root_a = BuildWidePlan(5, 14, 6);
  const ExprPtr root_b = BuildDiamondPlan();

  BufferedExecutor serial_a(GlobalThreadPool());
  serial_a.set_inter_node(false);
  const DenseMatrix expect_a = **serial_a.Run(root_a);
  BufferedExecutor serial_b(GlobalThreadPool());
  serial_b.set_inter_node(false);
  const DenseMatrix expect_b = **serial_b.Run(root_b);

  const uint64_t shared_runs_before = CounterValue("laopt.sched.pool_shared_runs");
  std::atomic<int> failures{0};
  auto drive = [&failures](const ExprPtr& root, const DenseMatrix& expect) {
    BufferedExecutor exec(GlobalThreadPool());
    exec.set_inter_node(true);
    for (int run = 0; run < 8; ++run) {
      const auto r = exec.Run(root);
      if (!r.ok() || (*r)->size() != expect.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < expect.size(); ++i) {
        if ((*r)->data()[i] != expect.data()[i]) {
          failures.fetch_add(1);
          return;
        }
      }
    }
  };
  std::thread ta(drive, root_a, std::cref(expect_a));
  std::thread tb(drive, root_b, std::cref(expect_b));
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(CounterValue("laopt.sched.pool_shared_runs"),
            shared_runs_before + 16);
}

TEST(LaoptSchedTest, ProfileAndStatsMatchSerialExactly) {
  // The per-run tally (ops, memo hits, densify fallbacks) and the profile's
  // per-node invocation/memo/densify counts are defined by the plan, not by
  // the schedule — inter-node runs must report exactly the serial numbers.
  const ExprPtr root = BuildFusedPlan();

  PlanProfile serial_profile;
  BufferedExecutor serial;
  serial.set_inter_node(false);
  serial.set_profile(&serial_profile);
  ExecStats serial_stats;
  ASSERT_TRUE(serial.Run(root, &serial_stats).ok());

  ThreadPool pool(4);
  PlanProfile par_profile;
  BufferedExecutor par_exec(&pool);
  par_exec.set_inter_node(true);
  par_exec.set_profile(&par_profile);
  ExecStats par_stats;
  ASSERT_TRUE(par_exec.Run(root, &par_stats).ok());

  EXPECT_EQ(par_stats.ops_executed, serial_stats.ops_executed);
  EXPECT_EQ(par_stats.memo_hits, serial_stats.memo_hits);
  EXPECT_EQ(par_stats.densify_fallbacks, serial_stats.densify_fallbacks);

  std::vector<const ExprNode*> nodes;
  std::function<void(const ExprNode*)> collect = [&](const ExprNode* n) {
    if (n == nullptr ||
        std::find(nodes.begin(), nodes.end(), n) != nodes.end()) {
      return;
    }
    nodes.push_back(n);
    for (const auto& c : n->children()) collect(c.get());
  };
  collect(root.get());
  for (const ExprNode* n : nodes) {
    const NodeProfile* srow = serial_profile.Find(n);
    const NodeProfile* prow = par_profile.Find(n);
    ASSERT_EQ(srow == nullptr, prow == nullptr) << OpKindName(n->kind());
    if (srow == nullptr) continue;
    EXPECT_EQ(prow->invocations, srow->invocations) << OpKindName(n->kind());
    EXPECT_EQ(prow->memo_hits, srow->memo_hits) << OpKindName(n->kind());
    EXPECT_EQ(prow->densify_fallbacks, srow->densify_fallbacks)
        << OpKindName(n->kind());
    EXPECT_EQ(prow->fused_uses, srow->fused_uses) << OpKindName(n->kind());
    // Self time never exceeds inclusive time even with helper-task folding.
    EXPECT_LE(prow->self_us, prow->total_us) << OpKindName(n->kind());
  }
  EXPECT_EQ(par_profile.NumNodes(), serial_profile.NumNodes());
}

TEST(LaoptSchedTest, ConcurrentDensifyConsumersDoNotSelfStealDeadlock) {
  // Regression: a consumer task that wins a compressed operand's densify
  // fill blocks in Decompress's nested morsel wait. Before claim-aware
  // cooperative waiting that wait could steal a queued sibling consumer of
  // the same value, which then spun forever in the densify claim loop on the
  // claim held lower on the thief's own stack — a permanent 100% CPU hang.
  // The shape forces the race: rows >= 2 * the CLA row grain (2048) so the
  // fill really fans out chunk tasks, and more ready consumers than workers
  // so a stealable sibling is always queued during the fill.
  constexpr size_t kRows = 4608;
  auto dense = MakeDense(kRows, 3, 0.5);
  auto comp = std::make_shared<cla::CompressedMatrix>(
      cla::CompressedMatrix::Compress(*dense));
  ExprPtr c = *ExprNode::InputOperand(Operand(comp), "C");
  std::vector<ExprPtr> parts;
  for (int i = 0; i < 6; ++i) {
    ExprPtr d = *ExprNode::Input(MakeDense(kRows, 3, 0.1 * (i + 1)),
                                 "D" + std::to_string(i));
    // Add densifies the compressed operand: six independent consumers race
    // on one fill.
    parts.push_back(*ExprNode::Sum(*ExprNode::Add(c, d)));
  }
  ExprPtr root = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    root = *ExprNode::Add(root, parts[i]);
  }

  ThreadPool pool(2);
  BufferedExecutor serial(&pool);
  serial.set_inter_node(false);
  const DenseMatrix expect = **serial.Run(root);

  BufferedExecutor exec(&pool);
  exec.set_inter_node(true);
  for (int run = 0; run < 5; ++run) {
    const auto r = exec.Run(root);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ExpectBitIdentical(expect, **r, "densify run " + std::to_string(run));
  }
}

TEST(LaoptSchedTest, ErrorsPropagateWithoutHanging) {
  // An unbound placeholder must fail the inter-node run cleanly (no hung
  // waiters on the failed slot, WaitGroup fully drained).
  ExprPtr x = *ExprNode::Input(MakeDense(6, 4, 1.0), "X");
  ExprPtr ph = *ExprNode::Placeholder(4, 3, "W");
  ExprPtr root = *ExprNode::ColSums(*ExprNode::MatMul(x, ph));

  ThreadPool pool(2);
  BufferedExecutor exec(&pool);
  exec.set_inter_node(true);
  const auto r = exec.Run(root);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unbound placeholder"), std::string::npos)
      << r.status().message();

  // Binding afterwards heals the same executor and plan.
  ASSERT_TRUE(exec.Bind(ph, Operand(MakeDense(4, 3, -0.25))).ok());
  EXPECT_TRUE(exec.Run(root).ok());
}

// Prepared plans are keyed by root address, so the executor holds every
// root it prepared: a root the caller releases stays allocated until the
// executor goes, and a later root can never reuse its address and be handed
// its stale plan. Serial executors build no task graph, so nothing else
// holds the nodes.
TEST(LaoptSchedTest, PreparedPlansOwnTheirRoots) {
  std::weak_ptr<const ExprNode> single;
  std::weak_ptr<const ExprNode> fused;
  {
    BufferedExecutor exec;
    {
      const ExprPtr x = *ExprNode::Input(MakeDense(6, 4, 1.0), "X");
      const ExprPtr gram = *ExprNode::MatMul(*ExprNode::Transpose(x), x);
      const ExprPtr sums = *ExprNode::ColSums(x);
      single = gram;
      fused = sums;
      ASSERT_TRUE(exec.Run(gram).ok());
      ASSERT_TRUE(exec.RunMany({gram, sums}).ok());
    }
    EXPECT_FALSE(single.expired());
    EXPECT_FALSE(fused.expired());
  }
  EXPECT_TRUE(single.expired());
  EXPECT_TRUE(fused.expired());
}

TEST(LaoptSchedTest, WavefrontWidthReported) {
  // An 8-wide independent plan on a 4-thread pool should overlap node tasks;
  // the peak-width gauge is the bench's headline signal, so pin it here.
  const ExprPtr root = BuildWidePlan(8, 20, 6);
  ThreadPool pool(4);
  BufferedExecutor exec(&pool);
  exec.set_inter_node(true);
  ASSERT_TRUE(exec.Run(root).ok());
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetGauge("laopt.sched.max_ready_width")
                ->Value(),
            1.0);
}

}  // namespace
}  // namespace dmml::laopt
