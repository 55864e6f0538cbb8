// select_cla: 4-fold cross-validated grid of Gaussian GLM configs trained
// together by the shared-scan engine over a CLA-compressed matrix
// (Columbus-style model selection over compressed linear algebra).
#include <string>
#include <vector>

#include "cla/compressed_matrix.h"
#include "gen.h"
#include "la/matrix_io.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"
#include "modelsel/shared_scan.h"
#include "workload.h"

namespace dmbench {
namespace {

namespace la = dmml::la;
namespace ml = dmml::ml;
namespace ms = dmml::modelsel;

constexpr size_t kFolds = 4;

class SelectCla : public Workload {
 public:
  explicit SelectCla(const WorkloadContext& ctx)
      : ctx_(ctx), rows_(ctx.tiny ? 2000 : 25000), cols_(ctx.tiny ? 10 : 40) {
    // 8 learning rates x 4 L2 penalties = 32 configs in one rung.
    for (double lr : {0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16}) {
      for (double l2 : {0.0, 1e-3, 1e-2, 1e-1}) {
        ml::GlmConfig c;
        c.family = ml::GlmFamily::kGaussian;
        c.learning_rate = lr;
        c.l2 = l2;
        c.max_epochs = 10;
        c.tolerance = 0;  // Fixed work per op.
        configs_.push_back(c);
      }
    }
  }

  Status Prologue() override {
    // 8 distinct values per column, shuffled: the matrix compresses as DDC.
    Gen g(SubSeed(ctx_.seed, 3));
    la::DenseMatrix dict(kDistinct, cols_), w(cols_, 1);
    for (size_t i = 0; i < dict.size(); ++i) dict.data()[i] = g.Normal();
    for (size_t j = 0; j < cols_; ++j) w.At(j, 0) = g.Normal();
    la::DenseMatrix x(rows_, cols_), y(rows_, 1);
    for (size_t i = 0; i < rows_; ++i) {
      double s = 0;
      for (size_t j = 0; j < cols_; ++j) {
        x.At(i, j) = dict.At(g.Below(kDistinct), j);
        s += x.At(i, j) * w.At(j, 0);
      }
      y.At(i, 0) = s + 0.1 * g.Normal();
    }
    DMML_RETURN_IF_ERROR(la::SaveDenseMatrix(x, XPath()));
    DMML_RETURN_IF_ERROR(la::SaveDenseMatrix(y, YPath()));

    // Reference: the same rung over the dense binding of the same rows.
    DMML_RETURN_IF_ERROR(Permute(std::move(x), std::move(y)));
    DMML_ASSIGN_OR_RETURN(OpOutput ref, Rung(ml::BorrowOperand(xperm_)));
    reference_ = std::move(ref.model);
    return Status::OK();
  }

  Status Setup(Values* values) override {
    compressed_.reset();
    DMML_ASSIGN_OR_RETURN(la::DenseMatrix x, la::LoadDenseMatrix(XPath()));
    DMML_ASSIGN_OR_RETURN(la::DenseMatrix y, la::LoadDenseMatrix(YPath()));
    DMML_RETURN_IF_ERROR(Permute(std::move(x), std::move(y)));
    const uint64_t t0 = NowNs();
    compressed_ = std::make_shared<const dmml::cla::CompressedMatrix>(
        dmml::cla::CompressedMatrix::Compress(xperm_, {}, ctx_.pool));
    (*values)["cla.compress_s"] = SecondsSince(t0);
    (*values)["cla.compression_ratio"] = compressed_->CompressionRatio();
    xperm_ = la::DenseMatrix();  // The op reads only the compressed matrix.
    return Status::OK();
  }

  Result<OpOutput> RunOp(size_t /*op*/) override {
    return Rung(dmml::laopt::Operand(compressed_));
  }

  Result<OpOutput> ReplayOp(size_t /*op*/, const OpOutput& /*plain*/,
                            SpanRecorder* spans, Values* /*values*/) override {
    return Rung(dmml::laopt::Operand(compressed_), spans);
  }

  // One k-wide forward and transpose product over the whole matrix: the
  // kernels the rung's ranged calls are made of.
  Status ProbeKernels(SpanRecorder* spans) override {
    const size_t k = configs_.size();
    la::DenseMatrix w(cols_, k, 0.01), xw, xtr;
    {
      ScopedSpan s(spans, "cla.mm");
      DMML_RETURN_IF_ERROR(compressed_->MultiplyMatrixInto(w, &xw, ctx_.pool));
    }
    ScopedSpan s(spans, "cla.tmm");
    return compressed_->TransposeMultiplyMatrixInto(xw, &xtr, ctx_.pool);
  }

  Status CheckOp(size_t /*op*/, const OpOutput& out) override {
    DMML_RETURN_IF_ERROR(CheckIterations(out, configs_.front().max_epochs));
    return CheckModel(out, reference_, 1e-9, "dense-binding rung");
  }

 private:
  static constexpr size_t kDistinct = 8;

  std::string XPath() const { return ctx_.workdir + "/x.dmm"; }
  std::string YPath() const { return ctx_.workdir + "/y.dmm"; }

  // The fold permutation: one gather makes every fold a contiguous range.
  Status Permute(la::DenseMatrix x, la::DenseMatrix y) {
    DMML_ASSIGN_OR_RETURN(ms::KFold kf,
                          ms::KFold::Make(rows_, kFolds, SubSeed(ctx_.seed, 4)));
    ms::ContiguousFolds cf = ms::MakeContiguousFolds(kf);
    xperm_ = ms::GatherRows(x, cf.order);
    yperm_ = ms::GatherRows(y, cf.order);
    folds_ = std::move(cf.folds);
    return Status::OK();
  }

  // Trains the rung on every fold, then scores each fold's held-out range.
  Result<OpOutput> Rung(const dmml::laopt::Operand& x, SpanRecorder* spans = nullptr) {
    Result<ms::SharedScanResult> trained_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "modelsel.scan");
      trained_r = ms::SharedScanTrain(x, yperm_, folds_, configs_, ctx_.pool);
    }
    DMML_ASSIGN_OR_RETURN(ms::SharedScanResult trained, std::move(trained_r));
    OpOutput out;
    out.iterations = trained.epochs_run;
    for (size_t f = 0; f < folds_.size(); ++f) {
      const ms::SharedScanFold& fold = trained.folds[f];
      Result<std::vector<double>> scores_r = Status::Internal("unset");
      {
        ScopedSpan s(spans, "modelsel.score");
        scores_r = ms::ScoreConfigsOnWindow(x, yperm_, folds_[f].begin, folds_[f].end,
                                            fold.weights, fold.intercepts,
                                            ml::GlmFamily::kGaussian,
                                            ms::FoldMetric::kNegRmse, ctx_.pool);
      }
      DMML_ASSIGN_OR_RETURN(std::vector<double> scores, std::move(scores_r));
      out.model.insert(out.model.end(), fold.weights.data(),
                       fold.weights.data() + fold.weights.size());
      out.model.insert(out.model.end(), fold.intercepts.begin(), fold.intercepts.end());
      out.model.insert(out.model.end(), scores.begin(), scores.end());
      const size_t train_rows = rows_ - (folds_[f].end - folds_[f].begin);
      out.work += static_cast<double>(train_rows * trained.epochs_run * configs_.size());
    }
    return out;
  }

  WorkloadContext ctx_;
  size_t rows_, cols_;
  std::vector<ml::GlmConfig> configs_;
  la::DenseMatrix xperm_, yperm_;
  std::vector<ms::FoldRange> folds_;
  std::shared_ptr<const dmml::cla::CompressedMatrix> compressed_;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeSelectCla(const WorkloadContext& ctx) {
  return std::make_unique<SelectCla>(ctx);
}

}  // namespace dmbench
