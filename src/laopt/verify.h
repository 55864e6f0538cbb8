/// \file verify.h
/// \brief Plan verifier and lint diagnostics for laopt expression DAGs.
///
/// The optimizer now rewrites plans four ways (transpose elimination, scalar
/// folding, chain reordering, CSE) and the executor reuses buffers across
/// nodes — every one of those transformations is an opportunity to silently
/// change what a plan *means*. SystemDS makes inter-op correctness a compiler
/// responsibility for exactly this reason: a rewrite pipeline without a
/// soundness gate turns optimizer bugs into wrong numbers instead of error
/// messages.
///
/// Three facilities, all producing the same structured `Diagnostic` record:
///
///  * `VerifyPlan` — structural well-formedness of one DAG: acyclicity,
///    per-kind arity, no null children, and shape metadata that matches an
///    exact re-derivation from the children (a rewrite that patches children
///    without re-deriving dims produces a *stale shape*, the classic
///    hand-rolled-rewriter bug).
///
///  * `VerifyRewrite` — pre/post conditions across one optimizer pass: the
///    output verifies, the root shape is preserved, every bound leaf of the
///    output already existed in the input (a pass must never invent data),
///    and — for hash-consing passes — every structural value class of the
///    input is produced by exactly one surviving node of the output.
///
///  * `LintPlan` — advisory diagnostics about plans that are *legal* but
///    suspicious: statically-zero subtrees, redundant `t(t(X))`, operands
///    whose static sparsity bound guarantees an all-zero product, repr
///    choices that force a densify on every run, non-finite scalars, and
///    environment bindings no leaf ever references.
///
/// `VerifyEnabled()` defaults to off only under NDEBUG, which no build of
/// this repository defines: the Release flags are plain -O2 (dmbench's
/// build mirrors them), so the verifier — like `assert` — is on in every
/// build. DMML_VERIFY=0/1 overrides the default either way. Lint is opt-in via DMML_LINT=1 and is surfaced through
/// the pipeline's DMML_EXPLAIN dump, the profiler's ExplainAnalyzeText/Json,
/// and the `laopt.verify.*` counter family.
#ifndef DMML_LAOPT_VERIFY_H_
#define DMML_LAOPT_VERIFY_H_

#include <string>
#include <vector>

#include "laopt/expr.h"
#include "util/result.h"

namespace dmml::laopt {

/// \brief Diagnostic severity, ordered: errors reject the plan, warnings and
/// infos are advisory (lint findings are never errors).
enum class Severity {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// \brief "info" / "warning" / "error".
const char* SeverityName(Severity severity);

/// \brief One verifier or lint finding.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string rule;     ///< Stable rule id, e.g. "verify.cycle" or
                        ///< "lint.redundant_transpose".
  std::string node;     ///< Abbreviated rendering of the offending node (or
                        ///< the binding name for environment-level rules).
  std::string message;  ///< Human-readable explanation.
};

/// \brief True iff the verifier should run (after optimizer passes and on
/// first execution of a plan). Controlled by DMML_VERIFY=0/1; defaults to
/// on unless NDEBUG is defined, and no build here defines it (see the file
/// comment). Re-reads the environment on every call so tests can toggle it
/// with setenv.
bool VerifyEnabled();

/// \brief True iff lint diagnostics should be collected (DMML_LINT=1,
/// default off). Re-reads the environment on every call.
bool LintEnabled();

/// \brief Structural well-formedness check of the DAG under `root`:
/// acyclicity, arity per kind (leaves have no children), no null children,
/// and node dimensions equal to an exact re-derivation from the children
/// (plus inner-dimension / same-shape compatibility where both sides are
/// known). Returns every finding; all findings are errors.
std::vector<Diagnostic> VerifyPlan(const ExprPtr& root);

/// \brief Cross-pass soundness check: `after` is `pass`'s rewrite of
/// `before`. Runs VerifyPlan(after) and additionally checks that the root
/// shape is preserved, that every bound leaf payload (and placeholder node)
/// of `after` already existed in `before`, and — when `expect_hash_consed`
/// (CSE) — that every structural value class of `before` survives in
/// `after` and is produced by exactly one node there. Sparsity-estimate
/// drift across the rewrite is reported as kInfo only: chain reordering
/// legitimately changes independence-model estimates.
std::vector<Diagnostic> VerifyRewrite(const std::string& pass,
                                      const ExprPtr& before,
                                      const ExprPtr& after,
                                      bool expect_hash_consed = false);

/// \brief Lint pass over the plan. Advisory only: severities are kWarning /
/// kInfo, never kError, so a linted plan always remains runnable. See the
/// file header for the rule catalog.
std::vector<Diagnostic> LintPlan(const ExprPtr& root);

/// \brief Lint pass that additionally knows the environment binding names
/// (parser front end): names in `bound_names` with no matching leaf in the
/// plan are flagged as `lint.unused_binding`.
std::vector<Diagnostic> LintPlan(const ExprPtr& root,
                                 const std::vector<std::string>& bound_names);

/// \brief Highest severity present; kInfo for an empty list.
Severity MaxSeverity(const std::vector<Diagnostic>& diags);

/// \brief One line per diagnostic: "error [verify.cycle] node: message".
std::string RenderDiagnostics(const std::vector<Diagnostic>& diags);

/// \brief OK when no diagnostic is an error; otherwise an Internal status
/// naming `pass`, the first offending node, and the full rendered list.
Status DiagnosticsToStatus(const std::string& pass,
                           const std::vector<Diagnostic>& diags);

/// \brief Convenience gate used by the optimizer passes: no-op unless
/// VerifyEnabled(); otherwise runs VerifyRewrite and fails on any error
/// diagnostic. Non-error diagnostics are appended to `*out_diags` when
/// provided (the pipeline forwards them into EXPLAIN output).
Status VerifyPassOutput(const std::string& pass, const ExprPtr& before,
                        const ExprPtr& after, bool expect_hash_consed = false,
                        std::vector<Diagnostic>* out_diags = nullptr);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_VERIFY_H_
