/// \file profile.h
/// \brief Runtime plan profiler: per-node execution evidence and the
/// EXPLAIN ANALYZE estimate-vs-actual calibration report.
///
/// `DagAnalysis` (analysis.h) predicts shapes, sparsities, and footprints at
/// plan time; the optimizer trusts those predictions when it orders chains
/// and picks representations. A PlanProfile records what actually happened —
/// per-node wall time, invocation counts, the kernel family that dispatched,
/// densify fallbacks, and the materialized output's nnz — aggregated across
/// every Run() of a BufferedExecutor that has the profile attached via
/// `set_profile`. SystemDS ships a built-in `stats` facility for exactly
/// this reason: per-operator runtime evidence is what keeps a cost model
/// honest across the ML lifecycle.
///
/// `ExplainAnalyzeText` / `ExplainAnalyzeJson` join the recorded actuals
/// against a fresh DagAnalysis of each profiled root and render a
/// Postgres-EXPLAIN-ANALYZE-style report: per node, estimated vs actual
/// sparsity (and the error), estimated vs actual output bytes, and the
/// node's share of actual self time next to its share of the plan-time cost
/// model — the two columns whose disagreement tells you the optimizer is
/// being lied to.
///
/// Profiling is strictly opt-in. An executor without a profile attached
/// executes the exact pre-profiler code path (one pointer test per node);
/// with a profile attached, each node costs two clock reads and one mutex-
/// guarded map update. All PlanProfile methods are thread-safe, so one
/// profile can aggregate across executors and be scraped concurrently via
/// obs::ProfileRegistry (see RegisterProfile below).
#ifndef DMML_LAOPT_PROFILE_H_
#define DMML_LAOPT_PROFILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "laopt/expr.h"
#include "laopt/operand.h"
#include "laopt/verify.h"
#include "obs/profile_registry.h"

namespace dmml::laopt {

struct ExecStats;

/// \brief Accumulated runtime evidence for one DAG node.
struct NodeProfile {
  OpKind kind = OpKind::kInput;
  std::string name;  ///< Leaf name when present, else ExprNode::Label().

  uint64_t invocations = 0;        ///< Times the node actually executed.
  uint64_t memo_hits = 0;          ///< Times a consumer reused the memo.
  uint64_t fused_uses = 0;         ///< Times a consumer's fused kernel absorbed
                                   ///< this node (e.g. t(X) inside t(X)·r) —
                                   ///< it never executes on its own.
  uint64_t total_us = 0;           ///< Inclusive wall micros (children included).
  uint64_t self_us = 0;            ///< Exclusive wall micros (children removed).
  uint64_t densify_fallbacks = 0;  ///< Densifications charged to this node.

  Repr last_dispatch = Repr::kDense;  ///< Kernel family of the last execution.
  Repr out_repr = Repr::kDense;       ///< Representation of the last output.
  size_t out_rows = 0;
  size_t out_cols = 0;
  uint64_t out_nnz = 0;  ///< Nonzeros in the last materialized output.

  /// \brief Measured output sparsity in [0, 1]; 1.0 for an empty output.
  double ActualSparsity() const {
    uint64_t cells = static_cast<uint64_t>(out_rows) * out_cols;
    return cells ? static_cast<double>(out_nnz) / static_cast<double>(cells) : 1.0;
  }

  /// \brief Measured output footprint under `out_repr` (CSR-style ~16 bytes
  /// per nonzero when sparse, dense row-major otherwise).
  uint64_t ActualBytes() const;
};

/// \brief Estimate-side calibration row, captured once per plan at its first
/// profiled Run() — the only moment the profiler can trust the plan's bound
/// operands to be alive. The ExplainAnalyze renderers join against this
/// cache and never touch live operands, so a `/profiles` scrape stays safe
/// even while the plan's owner is mid-training (or long gone).
struct PlanEstimate {
  std::string shape;     ///< Estimated output shape, e.g. "4000x30" or "?x30".
  double sparsity = 1.0; ///< Estimated output sparsity in [0, 1].
  bool bytes_known = false;
  uint64_t est_bytes = 0;       ///< Chosen-representation footprint estimate.
  Repr chosen_repr = Repr::kDense;
  double est_flops = 0.0;  ///< Plan-time work estimate (cost-share numerator).
};

/// \brief Per-node runtime profile for one or more executed plans.
///
/// Attach to a BufferedExecutor with `executor.set_profile(&profile)`; every
/// subsequent Run() adds its per-node samples here. The profile also notes
/// each distinct root it has seen (plus a PlanEstimate snapshot of its
/// analysis) so the ExplainAnalyze renderers are self-contained.
class PlanProfile {
 public:
  PlanProfile() = default;
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;

  // --- write side (called by BufferedExecutor) ---

  /// \brief Marks the start of one Run() over `root`. The first time a root
  /// is seen it is remembered (shared ownership, deduplicated) and its
  /// plan-time analysis is captured into PlanEstimate rows while the bound
  /// operands are still alive.
  void BeginRun(const ExprPtr& root);

  /// \brief Folds one node execution into the profile.
  void AddNodeSample(const ExprNode* node, uint64_t incl_us, uint64_t self_us,
                     Repr dispatch, Repr out_repr, size_t out_rows,
                     size_t out_cols, uint64_t out_nnz);

  /// \brief Charges a densify fallback to `node` (the operand's owner).
  void AddDensify(const ExprNode* node);

  /// \brief Records a memo reuse of `node`'s value.
  void AddMemoHit(const ExprNode* node);

  /// \brief Records that a consumer's fused kernel absorbed `node` (it was
  /// never evaluated as a standalone op — e.g. the transpose inside t(X)·r,
  /// or the ⊙ inside the fused rowSums(G ⊙ G) squared-norms kernel).
  void AddFusedUse(const ExprNode* node);

  /// \brief Marks the end of the Run(); folds the run's ExecStats tally into
  /// the profile-level totals (the public ExecStats is derived from the same
  /// tally, so the two views can never disagree).
  void EndRun(const ExecStats& run_tally);

  // --- read side ---

  uint64_t runs() const;
  size_t NumNodes() const;

  /// \brief Accumulated ExecStats over every profiled run.
  ExecStats TotalStats() const;

  /// \brief Profile for `node`, or nullptr if it never executed. The pointer
  /// stays valid until Reset(); fields may keep advancing under profiling.
  const NodeProfile* Find(const ExprNode* node) const;

  /// \brief Postgres-style EXPLAIN ANALYZE tree over every profiled root:
  /// per node, actual time / invocations / dispatch repr joined against the
  /// captured PlanEstimate row (estimated sparsity and bytes) with the
  /// calibration columns described in the file header.
  std::string ExplainAnalyzeText() const;

  /// \brief The same report as one JSON object:
  /// {"runs":N,"totals":{...},"roots":[{"nodes":[{...}]}]}.
  std::string ExplainAnalyzeJson() const;

  /// \brief Drops all samples and noted roots.
  void Reset();

 private:
  struct Totals {
    uint64_t runs = 0;
    uint64_t ops_executed = 0;
    uint64_t memo_hits = 0;
    uint64_t densify_fallbacks = 0;
  };

  NodeProfile& EnsureNodeLocked(const ExprNode* node);

  mutable std::mutex mu_;
  Totals totals_;
  std::unordered_map<const ExprNode*, NodeProfile> nodes_;
  std::vector<ExprPtr> roots_;  ///< Distinct profiled roots, insertion order.
  std::vector<std::string> root_errors_;  ///< Parallel: analysis failure text.
  /// Parallel: verifier + lint findings captured at first sighting (only
  /// when DMML_VERIFY / DMML_LINT are active), rendered into both
  /// ExplainAnalyze reports so static diagnostics ride along with the
  /// runtime evidence.
  std::vector<std::vector<Diagnostic>> root_diags_;
  std::unordered_map<const ExprNode*, PlanEstimate> est_;  ///< Capture cache.
};

/// \brief Publishes `profile` on the obs exposition endpoint (`/profiles`)
/// under `name` until the returned registration leaves scope. The provider
/// holds shared ownership, so a scrape racing the owner's teardown is safe.
/// A caller that cannot grant shared ownership (it only borrows the profile)
/// may pass a non-owning aliasing shared_ptr, provided the registration is
/// destroyed while the profile is still alive: unregistration blocks until
/// in-flight scrapes of the provider return (ProfileRegistry::Unregister).
obs::ScopedProfileRegistration RegisterProfile(
    const std::string& name, std::shared_ptr<const PlanProfile> profile);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_PROFILE_H_
