// script_gd: ridge gradient descent written as a DML-style script and run
// through the laopt parser, optimizer and executor one step at a time
// (the SystemML case).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "gen.h"
#include "la/kernels.h"
#include "la/matrix_io.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "laopt/parser.h"
#include "workload.h"

namespace dmbench {
namespace {

namespace la = dmml::la;
namespace laopt = dmml::laopt;

constexpr size_t kSteps = 20;
constexpr double kShrink = 1e-3;

class ScriptGd : public Workload {
 public:
  explicit ScriptGd(const WorkloadContext& ctx)
      : ctx_(ctx), rows_(ctx.tiny ? 2000 : 100000), cols_(ctx.tiny ? 10 : 50) {
    // Left-associated, as a DML user types it; the optimizer reorders the
    // t(X) %*% X %*% w chain. The step size halves the error per step on
    // N(0,1) data, so weights stay bounded over any number of steps.
    char lr[32];
    std::snprintf(lr, sizeof(lr), "%.6g", 0.5 / static_cast<double>(rows_));
    step_ = std::strtod(lr, nullptr);
    script_ = std::string("w - ") + lr + " * (t(X) %*% X %*% w - t(X) %*% y) - " +
              std::to_string(kShrink) + " * w";
  }

  Status Prologue() override {
    Gen g(SubSeed(ctx_.seed, 5));
    la::DenseMatrix x(rows_, cols_), w(cols_, 1), y(rows_, 1);
    for (size_t j = 0; j < cols_; ++j) w.At(j, 0) = g.Normal();
    for (size_t i = 0; i < rows_; ++i) {
      double s = 0;
      for (size_t j = 0; j < cols_; ++j) {
        x.At(i, j) = g.Normal();
        s += x.At(i, j) * w.At(j, 0);
      }
      y.At(i, 0) = s + 0.1 * g.Normal();
    }
    DMML_RETURN_IF_ERROR(la::SaveDenseMatrix(x, ctx_.workdir + "/x.dmm"));
    DMML_RETURN_IF_ERROR(la::SaveDenseMatrix(y, ctx_.workdir + "/y.dmm"));

    // Reference: the same steps made directly with la kernels.
    const la::DenseMatrix xty = la::TransposeMultiply(x, y, ctx_.pool);
    la::DenseMatrix v(cols_, 1);
    for (size_t s = 0; s < kSteps; ++s) {
      const la::DenseMatrix grad =
          la::TransposeMultiply(x, la::Gemv(x, v, ctx_.pool), ctx_.pool);
      for (size_t j = 0; j < cols_; ++j) {
        v.At(j, 0) -= step_ * (grad.At(j, 0) - xty.At(j, 0)) + kShrink * v.At(j, 0);
      }
    }
    reference_.assign(v.data(), v.data() + v.size());
    return Status::OK();
  }

  // The matrix load.
  Status Setup(Values* /*values*/) override {
    env_.clear();
    DMML_ASSIGN_OR_RETURN(la::DenseMatrix x, la::LoadDenseMatrix(ctx_.workdir + "/x.dmm"));
    DMML_ASSIGN_OR_RETURN(la::DenseMatrix y, la::LoadDenseMatrix(ctx_.workdir + "/y.dmm"));
    env_["X"] = std::make_shared<const la::DenseMatrix>(std::move(x));
    env_["y"] = std::make_shared<const la::DenseMatrix>(std::move(y));
    return Status::OK();
  }

  Result<OpOutput> RunOp(size_t /*op*/) override {
    return Steps([&](laopt::Environment& env) {
      return laopt::EvalExpression(script_, env, ctx_.pool);
    });
  }

  // The calls EvalExpression makes: parse, optimize, execute.
  Result<OpOutput> ReplayOp(size_t /*op*/, const OpOutput& /*plain*/,
                            SpanRecorder* spans, Values* /*values*/) override {
    return Steps([&](laopt::Environment& env) -> Result<la::DenseMatrix> {
      Result<laopt::ExprPtr> parsed = Status::Internal("unset");
      {
        ScopedSpan s(spans, "laopt.parse");
        parsed = laopt::ParseExpression(script_, env);
      }
      DMML_ASSIGN_OR_RETURN(laopt::ExprPtr expr, std::move(parsed));
      Result<laopt::ExprPtr> optimized = Status::Internal("unset");
      {
        ScopedSpan s(spans, "laopt.optimize");
        optimized = laopt::Optimize(expr);
      }
      DMML_ASSIGN_OR_RETURN(laopt::ExprPtr plan, std::move(optimized));
      ScopedSpan s(spans, "laopt.exec");
      return laopt::Execute(plan, ctx_.pool);
    });
  }

  Status CheckOp(size_t /*op*/, const OpOutput& out) override {
    DMML_RETURN_IF_ERROR(CheckIterations(out, kSteps));
    return CheckModel(out, reference_, 1e-9, "la-kernel reference");
  }

 private:
  // kSteps steps from w = 0, each evaluating the script once via `step`.
  template <typename StepFn>
  Result<OpOutput> Steps(StepFn step) {
    laopt::Environment env = env_;
    auto w = std::make_shared<la::DenseMatrix>(cols_, 1);
    OpOutput out;
    for (size_t s = 0; s < kSteps; ++s) {
      env["w"] = w;
      DMML_ASSIGN_OR_RETURN(la::DenseMatrix next, step(env));
      w = std::make_shared<la::DenseMatrix>(std::move(next));
      ++out.iterations;
    }
    out.model.assign(w->data(), w->data() + w->size());
    out.work = static_cast<double>(rows_ * out.iterations);
    return out;
  }

  WorkloadContext ctx_;
  size_t rows_, cols_;
  double step_ = 0;
  std::string script_;
  laopt::Environment env_;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeScriptGd(const WorkloadContext& ctx) {
  return std::make_unique<ScriptGd>(ctx);
}

}  // namespace dmbench
