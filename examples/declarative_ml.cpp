// Declarative ML: write linear algebra as strings, let the optimizer pick
// the execution plan (the SystemML idea, end to end).
//
// Implements ridge-regression gradient descent where every step is a parsed
// DML-style expression; the optimizer reassociates the matrix chain so the
// per-step cost is two skinny GEMVs instead of a d x d Gramian build.
#include <cstdio>
#include <memory>

#include "data/generators.h"
#include "laopt/compile.h"
#include "laopt/cse.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"
#include "ml/metrics.h"
#include "util/stopwatch.h"

using namespace dmml;  // NOLINT

int main() {
  std::printf("== declarative ML: a GD step as a parsed expression ==\n\n");

  const size_t n = 5000, d = 40;
  auto ds = data::MakeRegression(n, d, 0.1, 123);
  auto x = std::make_shared<la::DenseMatrix>(ds.x);
  auto y = std::make_shared<la::DenseMatrix>(ds.y);
  auto w = std::make_shared<la::DenseMatrix>(d, 1);

  const std::string gradient_src = "t(X) %*% (X %*% w - y) + 0.01 * w";
  std::printf("gradient expression: %s\n", gradient_src.c_str());

  laopt::Environment env = {{"X", x}, {"y", y}, {"w", w}};
  auto parsed = laopt::ParseExpression(gradient_src, env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  // Full pipeline: static analysis (shape/sparsity/footprint validation),
  // rewrites and elementwise fusion, CSE. Set DMML_EXPLAIN=1 to log the
  // per-node analysis table.
  laopt::PlanReport report;
  auto optimized = laopt::CompilePlan(*parsed, {}, &report);
  if (!optimized.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 optimized.status().ToString().c_str());
    return 1;
  }
  std::printf("plan: %s\n", (*optimized)->ToString().c_str());
  std::printf("estimated Mflops: %.1f -> %.1f\n",
              report.rewriter.flops_before / 1e6, report.rewriter.flops_after / 1e6);
  std::printf("analysis: %zu nodes, output sparsity %.2f, est. result %.1f KB\n\n",
              report.analysis_nodes, report.output_sparsity,
              static_cast<double>(report.output_est_bytes) / 1024.0);

  // Gradient descent where each step re-executes the optimized DAG. The
  // leaf `w` is shared, so updating the buffer in place re-feeds the plan.
  // The parsed gradient is the *sum* over examples, so scale lr by 1/n.
  const double lr = 0.05 / static_cast<double>(n);
  Stopwatch watch;
  for (int epoch = 0; epoch < 300; ++epoch) {
    auto grad = laopt::Execute(*optimized);
    if (!grad.ok()) return 1;
    for (size_t j = 0; j < d; ++j) {
      w->At(j, 0) -= lr * grad->At(j, 0);
    }
  }
  std::printf("300 declarative GD steps in %.1f ms\n", watch.ElapsedMillis());

  // Validate the fit with one more parsed expression.
  auto pred = laopt::EvalExpression("X %*% w", env);
  if (!pred.ok()) return 1;
  std::printf("R^2 = %.4f (true weights recovered within noise)\n",
              *ml::R2(ds.y, *pred));
  return 0;
}
