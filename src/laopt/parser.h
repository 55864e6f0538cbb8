/// \file parser.h
/// \brief A small declarative expression language over matrices — the
/// SystemML-DML-style front end to the laopt DAG.
///
/// Grammar (R/DML-flavored):
///
///   expr     := term (('+' | '-') term)*
///   term     := factor (('%*%' | '*') factor)*        // %*% = matmul,
///                                                     // '*'  = elementwise
///                                                     // or scalar multiply
///   factor   := NUMBER | IDENT | 't' '(' expr ')' | '(' expr ')'
///               | ('-') factor
///
/// Identifiers are resolved against a caller-supplied environment of named
/// matrices. Numeric literals act as scalars and may appear on either side
/// of '*'; scalar-scalar arithmetic is folded at parse time.
///
///   auto expr = ParseExpression("t(X) %*% (X %*% v) + 0.5 * v", env);
///
/// The result is an ordinary ExprPtr: optimize it, CSE it, execute it.
#ifndef DMML_LAOPT_PARSER_H_
#define DMML_LAOPT_PARSER_H_

#include <map>
#include <memory>
#include <string>

#include "la/dense_matrix.h"
#include "laopt/expr.h"
#include "laopt/operand.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::laopt {

/// \brief Named matrices visible to a parsed expression. Each entry may be
/// bound to any physical representation — dense, CSR sparse, or
/// CLA-compressed (laopt/operand.h); the same program source executes
/// against whichever representation the environment supplies, and the
/// executor picks matching kernels. Plain
/// `std::shared_ptr<la::DenseMatrix>` values keep working unchanged
/// (Operand converts implicitly).
using Environment = std::map<std::string, Operand>;

/// \brief Parser knobs.
struct ParseOptions {
  /// Build operator nodes without eager shape validation: the parse always
  /// succeeds structurally, and shape errors are reported by the plan-time
  /// analyzer (laopt/analysis.h) with a diagnostic naming the offending node
  /// and both operand shapes — instead of a terse combinator error here.
  bool defer_shape_checks = false;
};

/// \brief Parses `source` into an expression DAG over `env`.
///
/// Errors (syntax, unknown identifiers, shape mismatches) are reported with
/// the offending position; with ParseOptions::defer_shape_checks the shape
/// check moves to plan time.
Result<ExprPtr> ParseExpression(const std::string& source, const Environment& env);
Result<ExprPtr> ParseExpression(const std::string& source, const Environment& env,
                                const ParseOptions& options);

/// \brief Parse + optimize + execute in one call: Optimize (rewrites and
/// elementwise fusion), then a BufferedExecutor on `pool`. The thread pool,
/// if given, parallelizes the executed kernels — programs evaluated through
/// the parser run on the caller's pool, not serially.
Result<la::DenseMatrix> EvalExpression(const std::string& source,
                                       const Environment& env,
                                       ThreadPool* pool = nullptr);

class PlanProfile;

/// \brief EvalExpression with EXPLAIN ANALYZE instrumentation: the optimized
/// plan executes with `profile` attached (laopt/profile.h), so the caller
/// can render per-node actual time and estimate-vs-actual calibration for
/// the parsed program. A null `profile` behaves exactly like the overload
/// above — both run the same path.
Result<la::DenseMatrix> EvalExpression(const std::string& source,
                                       const Environment& env, ThreadPool* pool,
                                       PlanProfile* profile);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_PARSER_H_
