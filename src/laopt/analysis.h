/// \file analysis.h
/// \brief Static analysis over LA expression DAGs: shape, sparsity, and
/// memory inference at plan time (SystemML/SystemDS-style).
///
/// Before any rewrite or execution touches data, AnalyzeDag walks the DAG
/// and derives, per node:
///
///  * the output shape, with symbolic unknown-dimension propagation
///    (Placeholder leaves may declare ExprNode::kUnknownDim dims);
///  * a sparsity estimate in [0, 1], propagated with the standard
///    independence formulas (add: sA+sB−sA·sB, elementwise multiply: sA·sB,
///    matmul: 1−(1−sA·sB)^k over inner dimension k);
///  * an estimated output memory footprint in bytes, computed with
///    overflow-checked 64-bit arithmetic (saturating, never wrapping), both
///    for a dense layout and for the cheaper of dense/CSR given the
///    estimated sparsity.
///
/// Shape-inconsistent DAGs (possible via ExprNode::MakeUnchecked or the
/// parser's deferred-check mode) are rejected here — at plan time — with a
/// diagnostic naming the offending node and both operand shapes.
///
/// Consumers: the optimizer's matrix-chain DP costs candidate orders with
/// analyzer shapes and sparsities (laopt/optimizer.h), CompilePlan reports
/// the final plan's shape, sparsity and footprint (laopt/compile.h), and the
/// verifier's lint rules read sparsity bounds. A fused node's sparsity is
/// its program replayed through the elementwise formulas, so fusing a
/// region leaves the estimate unchanged. `DagAnalysis::Explain` renders the
/// per-node table as a DMML_EXPLAIN-style dump.
#ifndef DMML_LAOPT_ANALYSIS_H_
#define DMML_LAOPT_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "laopt/expr.h"
#include "laopt/operand.h"
#include "util/result.h"

namespace dmml::laopt {

/// \brief A possibly-unknown matrix dimension.
struct Dim {
  bool known = false;
  size_t value = 0;

  static Dim Known(size_t v) { return {true, v}; }
  static Dim Unknown() { return {}; }

  /// \brief From an ExprNode dimension (kUnknownDim → Unknown).
  static Dim FromNode(size_t v) {
    return v == ExprNode::kUnknownDim ? Unknown() : Known(v);
  }

  /// \brief "123" or "?".
  std::string ToString() const;
};

/// \brief An inferred (rows, cols) shape.
struct Shape {
  Dim rows;
  Dim cols;

  bool FullyKnown() const { return rows.known && cols.known; }

  /// \brief "100x10", "?x10", ...
  std::string ToString() const;
};

/// \brief Everything the analyzer derives for one node.
struct NodeAnalysis {
  Shape shape;

  /// Estimated fraction of nonzero cells in [0, 1]; 1.0 when nothing better
  /// is known (dense is the conservative assumption for memory and cost).
  double sparsity = 1.0;

  /// True iff the footprint estimates below are meaningful (shape fully
  /// known). `bytes_saturated` marks estimates clamped at UINT64_MAX because
  /// rows×cols×8 overflowed 64-bit arithmetic.
  bool bytes_known = false;
  bool bytes_saturated = false;

  /// Dense row-major footprint: rows × cols × sizeof(double).
  uint64_t dense_bytes = 0;

  /// Footprint of the cheaper plausible representation: dense, or a
  /// CSR-style sparse layout (~16 bytes per estimated nonzero) when the
  /// sparsity estimate makes that smaller.
  uint64_t est_bytes = 0;

  /// The physical representation the planner would pick for this node's
  /// value. Bound leaves report the representation they actually carry
  /// (dense / CSR / CLA-compressed); derived nodes and placeholders pick
  /// CSR when the estimated CSR footprint undercuts dense, else dense.
  /// Surfaced in Explain() and the laopt.repr.chosen_* counters; the
  /// optimizer's chain costing uses it to gate sparsity discounts to nodes
  /// that actually execute on a zero-skipping representation.
  Repr chosen_repr = Repr::kDense;
};

/// \brief Analyzer knobs. Bound leaves need none: their sparsity is
/// Operand::Sparsity(), exact for dense and CSR, and a dense binding is
/// counted once however many leaves and analyses read it.
struct AnalysisOptions {
  /// Sparsity assumed for Placeholder leaves (no data to inspect).
  double default_placeholder_sparsity = 1.0;
};

/// \brief Per-node analysis results for one DAG, memoized by node identity.
///
/// Obtained from AnalyzeDag. `Ensure` analyzes nodes on demand, so passes
/// that rewrite the DAG (optimizer, CSE) can keep querying one DagAnalysis
/// for nodes they create — each node is analyzed at most once. The analysis
/// holds every node it memoizes, so a temporary a pass analyzes and then
/// drops stays allocated: its address cannot be recycled by a later node
/// and answered with the temporary's stale shape.
class DagAnalysis {
 public:
  explicit DagAnalysis(AnalysisOptions options = {});

  /// \brief Analysis for `node`, computing (and validating) it and any
  /// unvisited descendants first. Fails on a shape-inconsistent node with a
  /// diagnostic naming the node and both operand shapes.
  Result<NodeAnalysis> Ensure(const ExprPtr& node);

  /// \brief Already-computed analysis for `node`, or nullptr.
  const NodeAnalysis* Find(const ExprNode* node) const;

  /// \brief Number of nodes analyzed so far.
  size_t NumAnalyzed() const { return info_.size(); }

  /// \brief DMML_EXPLAIN-style dump of `root`'s sub-DAG: one line per node
  /// in topological order with shape, sparsity, and footprint, children
  /// referenced by line id. Analyzes unvisited nodes; on a shape error the
  /// dump contains the diagnostic instead of rows for the invalid region.
  std::string Explain(const ExprPtr& root);

 private:
  AnalysisOptions options_;
  std::unordered_map<const ExprNode*, std::pair<ExprPtr, NodeAnalysis>> info_;
};

/// \brief Validates and analyzes the whole DAG under `root`. This is the
/// plan-time gate: a shape-mismatched program fails here with a node-level
/// diagnostic instead of failing (or asserting) mid-execution.
///
/// Metrics: increments laopt.analysis.runs and laopt.analysis.nodes on
/// success, laopt.analysis.shape_rejects on rejection.
Result<DagAnalysis> AnalyzeDag(const ExprPtr& root,
                               const AnalysisOptions& options = {});

/// \brief rows × cols × sizeof(double) with overflow-checked 64-bit math;
/// saturates to UINT64_MAX and sets *saturated on overflow.
uint64_t DenseFootprintBytes(uint64_t rows, uint64_t cols, bool* saturated);

/// \brief Independence-model sparsity of A·B: 1 − (1 − sa·sb)^inner. Used by
/// the analyzer and by the optimizer's sparsity-aware chain costing.
double MatMulSparsityEstimate(double sa, double sb, size_t inner);

// ---------------------------------------------------------------------------
// Static concurrency + liveness analysis.
//
// ComputeSchedule derives, per node, the position at which the sequential
// executor completes it (`def`), the last position at which any consumer
// still reads its value (`last_use`), and its topological wavefront level
// (leaves are level 0; a node is one past its deepest child). Two facts
// follow statically:
//
//  * nodes whose wavefront levels are independent — neither reachable from
//    the other — may run concurrently (MayRunConcurrently), which is what a
//    parallel node scheduler (ROADMAP item 5) needs;
//  * two values whose [def, last_use] live ranges do not overlap can share
//    one output buffer (Interferes is the register-allocation interference
//    relation), which BufferedExecutor uses to reuse buffers across
//    non-overlapping live ranges.
//
// The completion order deliberately mirrors BufferedExecutor's evaluation
// order — including its one deviation from plain post-order: the transpose
// left child of a matmul is completed *after* the right operand, because the
// fused t(U)·V kernels evaluate it late or absorb it entirely. Liveness
// derived from this order is therefore conservative for the executor's real
// buffer writes.
// ---------------------------------------------------------------------------

/// \brief One node's static schedule facts.
struct ScheduleEntry {
  const ExprNode* node = nullptr;
  size_t level = 0;     ///< Wavefront level: 0 for leaves, 1 + max child level.
  size_t def = 0;       ///< Completion position in the executor's order.
  size_t last_use = 0;  ///< Last position reading the value; SIZE_MAX for the
                        ///< root (its buffer survives until the next Run()).
};

/// \brief Static schedule + liveness for one plan. Built by ComputeSchedule;
/// immutable afterwards. Holds shared ownership of the root so the node
/// pointers inside stay valid.
class PlanSchedule {
 public:
  /// Entries in executor completion order (leaves included).
  const std::vector<ScheduleEntry>& order() const { return order_; }

  /// Entry for `node`, or nullptr if it is not part of this plan.
  const ScheduleEntry* Find(const ExprNode* node) const;

  /// Number of wavefront levels (max level + 1); 0 for an empty schedule.
  size_t num_levels() const { return num_levels_; }

  /// Peak number of simultaneously-live non-leaf values — a lower bound on
  /// the buffers any executor needs, and the slot-sharing target.
  size_t max_live() const { return max_live_; }

  /// \brief True iff the live ranges of `a` and `b` overlap (they touch
  /// buffers at the same time, so they must not share one).
  bool Interferes(const ExprNode* a, const ExprNode* b) const;

  /// \brief True iff neither node is reachable from the other, so a parallel
  /// scheduler may dispatch them concurrently.
  bool MayRunConcurrently(const ExprNode* a, const ExprNode* b) const;

  /// \brief True iff `consumer` transitively depends on `producer`'s value
  /// through the executor's real read edges (OperandReads — children plus
  /// fused-through grandchildren). In a dataflow scheduler this is the
  /// happens-after relation: `producer` is guaranteed complete before
  /// `consumer` launches. O(1) per query from bitsets precomputed by
  /// ComputeSchedule. False when either node is outside the plan or when
  /// consumer == producer.
  bool DependsOn(const ExprNode* consumer, const ExprNode* producer) const;

  /// \brief DependsOn by schedule position (order() indices), for callers
  /// that iterate the schedule and already hold positions.
  bool DependsOnPos(size_t consumer_pos, size_t producer_pos) const;

 private:
  friend Result<PlanSchedule> ComputeSchedule(const ExprPtr& root);

  std::vector<ScheduleEntry> order_;
  std::unordered_map<const ExprNode*, size_t> index_;  ///< node → order_ pos.
  size_t num_levels_ = 0;
  size_t max_live_ = 0;
  ExprPtr root_;

  /// Transitive-dependency closure over OperandReads edges: row i holds one
  /// bit per schedule position j with "node i depends on node j". N²/8 bytes
  /// for an N-node plan — plans are compiler-sized, not data-sized.
  size_t closure_words_ = 0;
  std::vector<uint64_t> closure_;
};

/// \brief The operands whose *values* `node` reads when it executes,
/// mirroring the executor's fused kernels: a matmul with a transpose child
/// reads the grandchild directly (t(U)·V never materializes t(U)), and
/// rowSums(G ⊙ G) reads G. Conservative superset: both the fused-through
/// node and its source are reported.
std::vector<const ExprNode*> OperandReads(const ExprNode* node);

/// \brief Builds the schedule for the plan under `root`. Fails on a cyclic
/// or structurally broken plan (null/missing children) instead of crashing.
///
/// Metrics: increments laopt.analysis.schedules on success.
Result<PlanSchedule> ComputeSchedule(const ExprPtr& root);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_ANALYSIS_H_
