#include "laopt/compile.h"

#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dmml::laopt {

namespace {

bool ExplainEnvEnabled() {
  const char* v = std::getenv("DMML_EXPLAIN");  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace

Result<ExprPtr> CompilePlan(const ExprPtr& root, const PipelineOptions& options,
                            PlanReport* report) {
  if (!root) return Status::InvalidArgument("CompilePlan: null expression");
  DagAnalysis analysis_storage(options.analysis);
  DagAnalysis* analysis = options.run_analysis ? &analysis_storage : nullptr;
  if (report) {
    *report = PlanReport{};
    report->estimated_flops_in = EstimateFlops(root);
  }
  // Validate before rewriting: deferred-checked programs fail here with a
  // node-level diagnostic instead of inside a rewrite or the executor.
  if (analysis) {
    DMML_RETURN_IF_ERROR(analysis->Ensure(root).status());
    DMML_COUNTER_INC("laopt.analysis.runs");
    DMML_COUNTER_ADD("laopt.analysis.nodes", analysis->NumAnalyzed());
  }
  // Verifier pass over the *input* plan (see VerifyEnabled).
  // Runs after the analyzer so shape-inconsistent programs keep their
  // established analyzer diagnostics; the verifier additionally catches what
  // the analyzer can't reject — cycles, arity violations, stale cached
  // shapes on hand-corrupted nodes.
  std::vector<Diagnostic> diags;
  if (VerifyEnabled()) {
    std::vector<Diagnostic> input = VerifyPlan(root);
    DMML_RETURN_IF_ERROR(DiagnosticsToStatus("input", input));
    diags.insert(diags.end(), input.begin(), input.end());
  }

  DMML_ASSIGN_OR_RETURN(
      ExprPtr plan,
      Optimize(root, options.rewrites, report ? &report->rewriter : nullptr,
               analysis));
  if (report) {
    diags.insert(diags.end(), report->rewriter.verify.begin(),
                 report->rewriter.verify.end());
  }
  if (options.run_cse) {
    DMML_ASSIGN_OR_RETURN(
        plan, EliminateCommonSubexpressions(plan, report ? &report->cse : nullptr));
    if (report) {
      diags.insert(diags.end(), report->cse.verify.begin(),
                   report->cse.verify.end());
    }
  }
  if (report) report->estimated_flops_out = EstimateFlops(plan);

  // Lint the final plan (opt-in via DMML_LINT=1): style/efficiency findings,
  // never fatal. Logged so they surface even without a report.
  if (LintEnabled()) {
    std::vector<Diagnostic> lint = LintPlan(plan);
    if (!lint.empty()) {
      DMML_LOG(Info) << "DMML_LINT\n" << RenderDiagnostics(lint);
    }
    diags.insert(diags.end(), lint.begin(), lint.end());
  }

  if (analysis) {
    DMML_ASSIGN_OR_RETURN(NodeAnalysis out, analysis->Ensure(plan));
    if (report) {
      report->analysis_nodes = analysis->NumAnalyzed();
      report->output_sparsity = out.sparsity;
      report->output_bytes_known = out.bytes_known;
      report->output_est_bytes = out.est_bytes;
    }
    const bool env_explain = ExplainEnvEnabled();
    if ((report && options.capture_explain) || env_explain) {
      std::string dump = analysis->Explain(plan);
      if (VerifyEnabled() || LintEnabled()) {
        dump += diags.empty() ? "diagnostics: none\n"
                              : "diagnostics:\n" + RenderDiagnostics(diags);
      }
      if (env_explain) DMML_LOG(Info) << "DMML_EXPLAIN\n" << dump;
      if (report && options.capture_explain) report->explain = std::move(dump);
    }
  }
  if (report) report->diagnostics = std::move(diags);
  return plan;
}

}  // namespace dmml::laopt
