/// \file compile.h
/// \brief The full compilation pipeline: static analysis → logical rewrites
/// and elementwise fusion → structural CSE, with a consolidated plan report.
///
/// This is the "SystemML in one call" entry point: callers hand over a DAG
/// (hand-built or parsed from the expression language) and get the compiled
/// plan plus a report of everything the compiler did. The plan runs on the
/// one executor, BufferedExecutor (laopt/executor.h).
#ifndef DMML_LAOPT_COMPILE_H_
#define DMML_LAOPT_COMPILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "laopt/analysis.h"
#include "laopt/cse.h"
#include "laopt/expr.h"
#include "laopt/optimizer.h"
#include "laopt/verify.h"

namespace dmml::laopt {

/// \brief Pipeline configuration.
struct PipelineOptions {
  OptimizerOptions rewrites;   ///< Pass selection for the rewriter.
  AnalysisOptions analysis;    ///< Static-analyzer knobs.
  bool run_analysis = true;    ///< Shape/sparsity/memory inference + validation.
  bool run_cse = true;
  /// Capture the analyzer's per-node dump of the final plan in
  /// PlanReport::explain (also printed to the log when the DMML_EXPLAIN
  /// environment variable is set non-empty).
  bool capture_explain = false;
};

/// \brief Everything the compiler did to the plan.
struct PlanReport {
  OptimizerReport rewriter;  ///< Rewrites and fusion.
  CseReport cse;
  double estimated_flops_in = 0;
  double estimated_flops_out = 0;

  // Static-analysis summary of the final plan (valid when run_analysis).
  size_t analysis_nodes = 0;        ///< Nodes the analyzer visited.
  double output_sparsity = 1.0;     ///< Estimated sparsity of the result.
  bool output_bytes_known = false;  ///< Shape fully known at plan time.
  uint64_t output_est_bytes = 0;    ///< Estimated result footprint.
  std::string explain;              ///< Per-node dump (capture_explain only).

  /// Consolidated non-fatal verifier diagnostics (input plan + every pass)
  /// and — under DMML_LINT=1 — lint findings on the final plan. Also
  /// appended to `explain` and the DMML_EXPLAIN log dump, so diagnostics are
  /// never silently dropped. Error-severity verifier findings abort
  /// CompilePlan with a Status naming the pass and node instead.
  std::vector<Diagnostic> diagnostics;
};

/// \brief Compiles `root` through all enabled passes; returns the final DAG.
///
/// The static analyzer runs first: a shape-inconsistent program is rejected
/// here — before any rewrite or execution — with a diagnostic naming the
/// offending node and both operand shapes. Analyzer estimates then feed the
/// optimizer's chain costing.
Result<ExprPtr> CompilePlan(const ExprPtr& root, const PipelineOptions& options = {},
                            PlanReport* report = nullptr);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_COMPILE_H_
