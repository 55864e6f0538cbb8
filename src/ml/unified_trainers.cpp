#include "ml/unified_trainers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "la/kernels.h"
#include "la/ops.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dmml::ml {

using la::DenseMatrix;
using laopt::BufferedExecutor;
using laopt::ExprNode;
using laopt::ExprPtr;
using laopt::Operand;

namespace {

const char* SolverName(GlmSolver solver) {
  switch (solver) {
    case GlmSolver::kBatchGd:
      return "batch_gd";
    case GlmSolver::kSgd:
      return "sgd";
    case GlmSolver::kMiniBatchSgd:
      return "minibatch_sgd";
    case GlmSolver::kHogwild:
      return "hogwild";
    case GlmSolver::kNormalEquations:
      return "normal_equations";
    case GlmSolver::kAdagrad:
      return "adagrad";
    case GlmSolver::kAdam:
      return "adam";
  }
  return "unknown";
}

bool ExplainAnalyzeEnvEnabled() {
  const char* v = std::getenv("DMML_EXPLAIN_ANALYZE");  // NOLINT(concurrency-mt-unsafe)
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "FALSE") != 0 && std::strcmp(v, "off") != 0;
}

// Resolves the profile a trainer invocation records into: the caller's, or —
// when DMML_EXPLAIN_ANALYZE asks for a report and the caller passed none — a
// trainer-local PlanProfile whose calibration report is logged on scope
// exit. Whichever is active gets published on the obs `/profiles` endpoint
// under the trainer's span name for the duration of training.
class ScopedTrainerProfile {
 public:
  ScopedTrainerProfile(laopt::PlanProfile* caller_profile, const char* name)
      : caller_profile_(caller_profile), name_(name) {
    if (caller_profile_ == nullptr && ExplainAnalyzeEnvEnabled()) {
      local_ = std::make_shared<laopt::PlanProfile>();
    }
    if (local_ != nullptr) {
      // The provider takes shared ownership, so a /profiles scrape racing
      // this scope's teardown can never see a destroyed profile.
      registration_ = laopt::RegisterProfile(name_, local_);
    } else if (caller_profile_ != nullptr) {
      // The caller owns this profile, so shared ownership is unavailable;
      // the non-owning alias is still safe because unregistration (the
      // registration_ member destructs before anything else here, and
      // before the trainer returns) blocks until in-flight scrapes of this
      // provider return — see ProfileRegistry::Unregister.
      registration_ = laopt::RegisterProfile(
          name_, std::shared_ptr<const laopt::PlanProfile>(
                     std::shared_ptr<void>(), caller_profile_));
    }
  }

  ~ScopedTrainerProfile() {
    if (local_) {
      DMML_LOG(Info) << "DMML_EXPLAIN_ANALYZE " << name_ << "\n"
                     << local_->ExplainAnalyzeText();
    }
  }

  ScopedTrainerProfile(const ScopedTrainerProfile&) = delete;
  ScopedTrainerProfile& operator=(const ScopedTrainerProfile&) = delete;

  laopt::PlanProfile* active() const {
    return local_ ? local_.get() : caller_profile_;
  }

 private:
  laopt::PlanProfile* caller_profile_;
  const char* name_;
  std::shared_ptr<laopt::PlanProfile> local_;
  // Declared last: destructs first, draining in-flight scrapes before the
  // profile they read (local_ or the caller's) can go away.
  obs::ScopedProfileRegistration registration_;
};

// Assigns every row to its nearest center by the expanded distance
// ‖x‖² − 2·x·c + ‖c‖², given cross = X·Cᵀ (n x k) and row_norms = ‖x‖²
// (n x 1). Returns the inertia, the summed squared distances.
double AssignNearest(const DenseMatrix& cross, const DenseMatrix& row_norms,
                     const DenseMatrix& centers,
                     std::vector<double>* center_norms,
                     std::vector<int>* labels) {
  const size_t n = cross.rows(), k = centers.rows(), d = centers.cols();
  for (size_t c = 0; c < k; ++c) {
    (*center_norms)[c] = la::Dot(centers.Row(c), centers.Row(c), d);
  }
  double inertia = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const double dist =
          row_norms.At(i, 0) - 2.0 * cross.At(i, c) + (*center_norms)[c];
      if (dist < best_d) {
        best_d = dist;
        best = c;
      }
    }
    (*labels)[i] = static_cast<int>(best);
    inertia += std::max(0.0, best_d);  // The expansion can round below 0.
  }
  return inertia;
}

}  // namespace

Operand BorrowOperand(const DenseMatrix& m) {
  return Operand(
      std::shared_ptr<const DenseMatrix>(std::shared_ptr<void>(), &m));
}

namespace {

// Rows [b, e) of X measured the way the route rule counts work: `cells`
// is what a scan product reads (every cell, or the nonzeros of a CSR X) and
// `gram` the Gram pass's products, rows·d(d+1) or Σ_rows nnz_r(nnz_r+1).
struct RowsWork {
  double cells = 0;
  double gram = 0;
};

RowsWork WorkOfRows(const Operand& x, size_t b, size_t e) {
  RowsWork w;
  if (const la::SparseMatrix* s = x.sparse()) {
    for (size_t r = x.window_begin() + b; r < x.window_begin() + e; ++r) {
      const double nnz = static_cast<double>(s->RowEnd(r) - s->RowBegin(r));
      w.cells += nnz;
      w.gram += nnz * (nnz + 1);
    }
    return w;
  }
  const double d = static_cast<double>(x.cols());
  w.cells = static_cast<double>(e - b) * d;
  w.gram = w.cells * (d + 1);
  return w;
}

// Row cuts at 0, n and every fold boundary. Consecutive cuts bound the
// segments, each of which lies wholly inside or wholly outside every
// validation range.
std::vector<size_t> SegmentCuts(size_t n, const std::vector<FoldRange>& folds) {
  std::vector<size_t> cuts = {0, n};
  for (const FoldRange& f : folds) {
    cuts.push_back(f.begin);
    cuts.push_back(f.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

// Whether the segment starting at `seg_begin` holds fold f's validation rows.
bool Validates(const FoldRange& f, size_t seg_begin) {
  return seg_begin >= f.begin && seg_begin < f.end;
}

}  // namespace

const char* BatchGdRouteName(BatchGdRoute route) {
  return route == BatchGdRoute::kStatistics ? "statistics" : "scan";
}

BatchGdRouteChoice ChooseBatchGdRoute(const Operand& x,
                                      const std::vector<FoldRange>& folds,
                                      const std::vector<GlmConfig>& configs) {
  BatchGdRouteChoice choice;
  const size_t n = x.rows(), d = x.cols();
  if (!x.bound() || folds.empty() || configs.empty()) return choice;
  size_t min_train = n;
  for (const FoldRange& f : folds) {
    if (f.begin > f.end || f.end > n) return choice;
    min_train = std::min(min_train, n - (f.end - f.begin));
  }
  const std::vector<size_t> cuts = SegmentCuts(n, folds);
  double train_cells = 0;  // Σ_f nnz(train_f).
  for (size_t s = 0; s + 1 < cuts.size(); ++s) {
    const RowsWork w = WorkOfRows(x, cuts[s], cuts[s + 1]);
    choice.statistics_cost += w.gram;
    for (const FoldRange& f : folds) {
      if (!Validates(f, cuts[s])) train_cells += w.cells;
    }
  }
  const double epochs = static_cast<double>(configs.front().max_epochs);
  const double dd = static_cast<double>(d);
  choice.statistics_cost +=
      epochs * static_cast<double>(folds.size()) * 2.0 * dd * dd;
  choice.scan_cost = epochs * 4.0 * train_cells;
  if (configs.front().family == GlmFamily::kGaussian && d <= min_train &&
      choice.statistics_cost <= choice.scan_cost) {
    choice.route = BatchGdRoute::kStatistics;
  }
  return choice;
}

namespace {

// A statistics-route column whose data loss Σ½r² falls below this fraction
// of ½yᵀy takes the epoch's loss from a residual pass instead: the
// statistics form cancels as the fit nears exact.
constexpr double kRescanBelow = 1e-6;

// The compiled per-fold slice of a rung's plans. Leaf payloads (W and the
// residual windows) are mutated in place between executor runs; the
// expression nodes are built once per rung, since the executor keys plans
// and slots by node address.
struct FoldProgram {
  std::shared_ptr<DenseMatrix> w;     // d x k weight matrix.
  std::shared_ptr<DenseMatrix> r_lo;  // Window-relative residuals, [0, begin).
  std::shared_ptr<DenseMatrix> r_hi;  // Window-relative residuals, [end, n).
  std::vector<ExprPtr> scores;        // Score roots: X[0,b) %*% W, X[e,n) %*% W.
  ExprPtr step;                       // Scan: Xᵀ·R over both windows; statistics: G %*% W.
  int a = -1;                         // Its first root in the scan's score list.
  int b = -1;                         // Index into the step root list.
  size_t lo_rows = 0;                 // begin.
  size_t hi_begin = 0, hi_rows = 0;   // end, n - end.
  double rows = 0;                    // n_train.
  double inv_n = 0;                   // 1 / n_train.
  size_t live = 0;                    // Columns not yet stopped.
  // Statistics route: the training rows' sufficient statistics, and the
  // gradient Xᵀr each epoch rebuilds from them.
  std::shared_ptr<DenseMatrix> gram;  // G = XᵀX, d x d.
  std::vector<double> xty, xt1;       // c = Xᵀy and s = Xᵀ1.
  double yty = 0, ysum = 0;           // yᵀy and Σy.
  DenseMatrix grad;                   // d x k.
  bool rescan = false;                // A column needs a residual pass.
};

Status ValidateRung(const Operand& x, const DenseMatrix& y,
                    const std::vector<FoldRange>& folds,
                    const std::vector<GlmConfig>& configs) {
  if (!x.bound()) return Status::InvalidArgument("batch GD: unbound X");
  const size_t n = x.rows(), d = x.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("batch GD: empty data");
  if (y.rows() != n || y.cols() != 1) {
    return Status::InvalidArgument("batch GD: y must be n x 1");
  }
  if (folds.empty()) return Status::InvalidArgument("batch GD: no folds");
  for (const FoldRange& f : folds) {
    if (f.begin > f.end || f.end > n) {
      return Status::InvalidArgument("batch GD: bad fold range");
    }
    if (f.end - f.begin >= n) {
      return Status::InvalidArgument("batch GD: fold leaves no training rows");
    }
  }
  if (configs.empty()) return Status::InvalidArgument("batch GD: no configs");
  const GlmConfig& base = configs.front();
  for (const auto& c : configs) {
    if (c.solver != GlmSolver::kBatchGd) {
      return Status::InvalidArgument(
          std::string("batch GD: the rung engine runs batch gradient descent "
                      "only, got solver ") +
          SolverName(c.solver));
    }
    if (c.family != base.family || c.max_epochs != base.max_epochs ||
        c.fit_intercept != base.fit_intercept) {
      return Status::InvalidArgument(
          "batch GD: configs must share family, epochs and intercept");
    }
    // Written so that NaN fails each test.
    if (!(c.learning_rate > 0) || !std::isfinite(c.learning_rate)) {
      return Status::InvalidArgument(
          "batch GD: learning_rate must be finite and positive");
    }
    if (!(c.l2 >= 0) || !std::isfinite(c.l2)) {
      return Status::InvalidArgument(
          "batch GD: l2 must be finite and non-negative");
    }
    if (!(c.lr_decay >= 0) || !std::isfinite(c.lr_decay)) {
      return Status::InvalidArgument(
          "batch GD: lr_decay must be finite and non-negative");
    }
  }
  if (base.family == GlmFamily::kBinomial) {
    for (size_t i = 0; i < n; ++i) {
      double v = y.At(i, 0);
      if (v != 0.0 && v != 1.0) {
        return Status::InvalidArgument("Binomial family requires 0/1 labels");
      }
    }
  }
  return Status::OK();
}

// Builds one fold's leaves and roots. Training windows are zero-copy row
// slices of the shared X operand — also when a window spans every row — so
// every product runs a ranged kernel whose cutoffs and grains do not depend
// on the rung width. The scan route's step is the gradient Xᵀ·R over the
// residual leaves; the statistics route's is G %*% W, with G bound as a
// [0, d) slice for the same reason, and its residual buffers wait for the
// first residual pass.
Result<FoldProgram> BuildFoldProgram(const Operand& x, const FoldRange& fold,
                                     size_t d, size_t k, size_t fold_id,
                                     BatchGdRoute route) {
  const size_t n = x.rows();
  const bool scan = route == BatchGdRoute::kScan;
  FoldProgram p;
  p.lo_rows = fold.begin;
  p.hi_begin = fold.end;
  p.hi_rows = n - fold.end;
  p.rows = static_cast<double>(p.lo_rows + p.hi_rows);
  p.inv_n = 1.0 / p.rows;
  p.live = k;
  const std::string tag = std::to_string(fold_id);

  p.w = std::make_shared<DenseMatrix>(d, k);
  DMML_ASSIGN_OR_RETURN(ExprPtr wleaf,
                        ExprNode::InputOperand(Operand(p.w), "W" + tag));
  ExprPtr grad;
  auto add_window = [&](size_t begin, size_t end, const char* name,
                        std::shared_ptr<DenseMatrix>* r) -> Status {
    DMML_ASSIGN_OR_RETURN(ExprPtr xw, ExprNode::InputOperand(x.Slice(begin, end),
                                                             name + tag));
    DMML_ASSIGN_OR_RETURN(ExprPtr score, ExprNode::MatMul(xw, wleaf));
    p.scores.push_back(std::move(score));
    if (!scan) return Status::OK();
    *r = std::make_shared<DenseMatrix>(end - begin, k);
    DMML_ASSIGN_OR_RETURN(ExprPtr rleaf,
                          ExprNode::InputOperand(Operand(*r), std::string("R") + name + tag));
    DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xw));
    DMML_ASSIGN_OR_RETURN(ExprPtr g, ExprNode::MatMul(xt, rleaf));
    if (grad) {
      DMML_ASSIGN_OR_RETURN(grad, ExprNode::Add(grad, g));
    } else {
      grad = std::move(g);
    }
    return Status::OK();
  };
  if (p.lo_rows > 0) DMML_RETURN_IF_ERROR(add_window(0, p.lo_rows, "Xlo", &p.r_lo));
  if (p.hi_rows > 0) DMML_RETURN_IF_ERROR(add_window(p.hi_begin, n, "Xhi", &p.r_hi));
  if (scan) {
    p.step = std::move(grad);
    return p;
  }
  p.gram = std::make_shared<DenseMatrix>(d, d);
  p.xty.assign(d, 0.0);
  p.xt1.assign(d, 0.0);
  p.grad = DenseMatrix(d, k);
  DMML_ASSIGN_OR_RETURN(
      ExprPtr gleaf, ExprNode::InputOperand(Operand(p.gram).Slice(0, d), "G" + tag));
  DMML_ASSIGN_OR_RETURN(p.step, ExprNode::MatMul(gleaf, wleaf));
  return p;
}

// The statistics route's one pass over X: one multi-root plan computes, per
// row segment, t(Xs) %*% Xs and t(Xs) %*% [ys 1], and each fold's
// statistics are the sums, in segment order, of the segments outside its
// validation range — sums rather than total-minus-held-out, so no
// cancellation enters. It runs on its own executor, whose plans and slots
// go away with the pass.
Status ComputeFoldStatistics(const Operand& x, const DenseMatrix& y,
                             const std::vector<FoldRange>& folds,
                             ThreadPool* pool, std::vector<FoldProgram>* programs) {
  DMML_TRACE_SPAN("ml.glm.statistics");
  const std::vector<size_t> cuts = SegmentCuts(x.rows(), folds);
  const size_t segments = cuts.size() - 1, d = x.cols();
  std::vector<ExprPtr> roots;
  std::vector<double> yty(segments, 0.0), ysum(segments, 0.0);
  for (size_t s = 0; s < segments; ++s) {
    const size_t b = cuts[s], e = cuts[s + 1];
    auto y1 = std::make_shared<DenseMatrix>(e - b, 2);
    for (size_t i = b; i < e; ++i) {
      const double v = y.At(i, 0);
      y1->At(i - b, 0) = v;
      y1->At(i - b, 1) = 1.0;
      yty[s] += v * v;
      ysum[s] += v;
    }
    const std::string tag = std::to_string(s);
    DMML_ASSIGN_OR_RETURN(ExprPtr xs, ExprNode::InputOperand(x.Slice(b, e), "X" + tag));
    DMML_ASSIGN_OR_RETURN(ExprPtr y1leaf,
                          ExprNode::InputOperand(Operand(std::move(y1)), "Y1" + tag));
    DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xs));
    DMML_ASSIGN_OR_RETURN(ExprPtr gram, ExprNode::MatMul(xt, xs));
    DMML_ASSIGN_OR_RETURN(ExprPtr cross, ExprNode::MatMul(xt, y1leaf));
    roots.push_back(std::move(gram));
    roots.push_back(std::move(cross));
  }
  BufferedExecutor executor(pool);
  DMML_ASSIGN_OR_RETURN(std::vector<const DenseMatrix*> outs,
                        executor.RunMany(roots));
  for (size_t f = 0; f < folds.size(); ++f) {
    FoldProgram& p = (*programs)[f];
    for (size_t s = 0; s < segments; ++s) {
      if (Validates(folds[f], cuts[s])) continue;
      la::AxpyInto(1.0, *outs[2 * s], p.gram.get());
      const DenseMatrix& cross = *outs[2 * s + 1];
      for (size_t j = 0; j < d; ++j) {
        p.xty[j] += cross.At(j, 0);
        p.xt1[j] += cross.At(j, 1);
      }
      p.yty += yty[s];
      p.ysum += ysum[s];
    }
  }
  return Status::OK();
}

// Per-epoch state the two routes fill for the shared update: each live
// (fold, config) column's loss sum Σ½r² and bias gradient Σr at the
// epoch's starting (w, b), and each live fold's gradient Xᵀr (d x k).
struct EpochTerms {
  std::vector<double> loss, bias;     // folds·k, column f·k + c.
  std::vector<const DenseMatrix*> grad;  // One per fold.
  std::vector<char> rescan;           // Statistics route: loss from residuals.
  std::vector<double> fold_loss, fold_bias;  // k-wide residual-kernel sums.
};

// Turns fold p's scores — its score roots' results from `first` on — into
// residuals and sets `loss`/`bias` (k wide) to the residual kernel's sums
// over its training windows, the hi window after the lo one.
void FoldResiduals(FoldProgram& p, const std::vector<const DenseMatrix*>& scores,
                   size_t first, const DenseMatrix& y,
                   const std::vector<double>& intercepts, GlmFamily family,
                   double* loss, double* bias) {
  const size_t k = intercepts.size();
  std::fill(loss, loss + k, 0.0);
  std::fill(bias, bias + k, 0.0);
  if (p.lo_rows > 0) {
    la::GlmResidualsInto(*scores[first], intercepts.data(), y.Row(0), family,
                         p.r_lo.get(), loss, bias);
  }
  if (p.hi_rows > 0) {
    la::GlmResidualsInto(*scores[first + p.scores.size() - 1], intercepts.data(),
                         y.Row(p.hi_begin), family, p.r_hi.get(), loss, bias);
  }
}

// The scan route's epoch: phase A computes every live fold's scores from
// one wide plan — the shared scan, whose fold branches the inter-node
// scheduler overlaps — the residual kernel turns them into residuals and
// sums, and phase B computes every live fold's gradient Xᵀ·R from a second
// wide plan.
Status ScanEpoch(BufferedExecutor& executor, std::vector<FoldProgram>& programs,
                 const std::vector<ExprPtr>& score_roots,
                 const std::vector<ExprPtr>& step_roots, const DenseMatrix& y,
                 GlmFamily family, SharedScanResult& result, EpochTerms& t) {
  DMML_ASSIGN_OR_RETURN(std::vector<const DenseMatrix*> scores,
                        executor.RunMany(score_roots));
  const size_t k = result.folds.front().intercepts.size();
  for (size_t f = 0; f < programs.size(); ++f) {
    FoldProgram& p = programs[f];
    if (p.live == 0) continue;
    FoldResiduals(p, scores, p.a, y, result.folds[f].intercepts, family,
                  &t.loss[f * k], &t.bias[f * k]);
  }
  DMML_ASSIGN_OR_RETURN(std::vector<const DenseMatrix*> grads,
                        executor.RunMany(step_roots));
  for (size_t f = 0; f < programs.size(); ++f) {
    if (programs[f].live > 0) t.grad[f] = grads[programs[f].b];
  }
  return Status::OK();
}

// The statistics route's epoch: one plan of G_f %*% W_f over the live folds,
// then per live column, at its starting (w, b),
//   g = G·w + s·b − c,   Σr = sᵀw + n·b − Σy,
//   Σ½r² = ½(wᵀGw + 2b·sᵀw + n·b² − 2cᵀw − 2b·Σy + yᵀy),
// every sum taken over j in order, so a wide column is bit-equal to its
// width-1 run. A column whose loss sum falls below kRescanBelow·½yᵀy takes
// it from its fold's score plan and the residual kernel — the scan route's
// own code, so the value is the scan's — counted in
// ml.glm.stats.loss_rescans once per fold pass.
Status StatisticsEpoch(BufferedExecutor& executor,
                       std::vector<FoldProgram>& programs,
                       const std::vector<ExprPtr>& step_roots,
                       const std::vector<char>& live, const DenseMatrix& y,
                       GlmFamily family, SharedScanResult& result, EpochTerms& t) {
  DMML_ASSIGN_OR_RETURN(std::vector<const DenseMatrix*> gws,
                        executor.RunMany(step_roots));
  const size_t k = result.folds.front().intercepts.size();
  for (size_t f = 0; f < programs.size(); ++f) {
    FoldProgram& p = programs[f];
    if (p.live == 0) continue;
    const DenseMatrix& gw = *gws[p.b];
    const size_t d = gw.rows();
    p.rescan = false;
    for (size_t c = 0; c < k; ++c) {
      const size_t col = f * k + c;
      if (!live[col]) continue;
      const double b = result.folds[f].intercepts[c];
      double wgw = 0, sw = 0, cw = 0;
      for (size_t j = 0; j < d; ++j) {
        const double wj = p.w->At(j, c);
        wgw += wj * gw.At(j, c);
        sw += p.xt1[j] * wj;
        cw += p.xty[j] * wj;
        p.grad.At(j, c) = gw.At(j, c) + p.xt1[j] * b - p.xty[j];
      }
      t.bias[col] = sw + p.rows * b - p.ysum;
      t.loss[col] = 0.5 * (wgw + 2.0 * b * sw + p.rows * b * b - 2.0 * cw -
                           2.0 * b * p.ysum + p.yty);
      t.rescan[col] = t.loss[col] < kRescanBelow * 0.5 * p.yty;
      p.rescan = p.rescan || t.rescan[col];
    }
    t.grad[f] = &p.grad;
  }
  // G·W's buffers are free from here on: each residual pass is its own run.
  for (size_t f = 0; f < programs.size(); ++f) {
    FoldProgram& p = programs[f];
    if (p.live == 0 || !p.rescan) continue;
    DMML_COUNTER_INC("ml.glm.stats.loss_rescans");
    DMML_ASSIGN_OR_RETURN(std::vector<const DenseMatrix*> scores,
                          executor.RunMany(p.scores));
    if (p.lo_rows > 0 && !p.r_lo) {
      p.r_lo = std::make_shared<DenseMatrix>(p.lo_rows, k);
    }
    if (p.hi_rows > 0 && !p.r_hi) {
      p.r_hi = std::make_shared<DenseMatrix>(p.hi_rows, k);
    }
    FoldResiduals(p, scores, 0, y, result.folds[f].intercepts, family,
                  t.fold_loss.data(), t.fold_bias.data());
    for (size_t c = 0; c < k; ++c) {
      if (t.rescan[f * k + c]) t.loss[f * k + c] = t.fold_loss[c];
    }
  }
  return Status::OK();
}

// The batch-GD epoch loop behind SharedScanTrain and TrainGlmOnOperand,
// for a rung that ValidateRung accepted. The route only decides how an
// epoch obtains each live column's loss, bias gradient and gradient; the
// update, the stopping rule and the bookkeeping below are shared.
Result<SharedScanResult> TrainRung(const Operand& x, const DenseMatrix& y,
                                   const std::vector<FoldRange>& folds,
                                   const std::vector<GlmConfig>& configs,
                                   ThreadPool* pool,
                                   laopt::PlanProfile* profile) {
  const size_t d = x.cols(), k = configs.size();
  const GlmConfig& base = configs.front();
  SharedScanResult result;
  result.route = ChooseBatchGdRoute(x, folds, configs);
  const bool statistics = result.route.route == BatchGdRoute::kStatistics;
  if (statistics) {
    DMML_COUNTER_INC("ml.glm.route.statistics");
  } else {
    DMML_COUNTER_INC("ml.glm.route.scan");
  }

  std::vector<FoldProgram> programs;
  programs.reserve(folds.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    DMML_ASSIGN_OR_RETURN(FoldProgram p, BuildFoldProgram(x, folds[f], d, k, f,
                                                          result.route.route));
    programs.push_back(std::move(p));
  }
  if (statistics) {
    DMML_RETURN_IF_ERROR(ComputeFoldStatistics(x, y, folds, pool, &programs));
  }
  BufferedExecutor executor(pool);
  executor.set_profile(profile);

  result.folds.resize(programs.size());
  for (SharedScanFold& out : result.folds) {
    out.intercepts.assign(k, 0.0);
    out.loss_histories.assign(k, {});
    for (auto& h : out.loss_histories) h.reserve(base.max_epochs);
    out.epochs_run.assign(k, 0);
  }

  // Each (fold, config) column stops on its own tolerance: the epoch that
  // meets the rule still updates and records its loss, then the column
  // freezes. A fold whose columns have all stopped leaves the epoch plans.
  const size_t columns = programs.size() * k;
  std::vector<char> live(columns, 1);
  std::vector<double> prev_loss(columns, std::numeric_limits<double>::infinity());
  size_t live_total = columns;
  std::vector<ExprPtr> score_roots, step_roots;
  bool roots_stale = true;

  // Hoisted epoch scratch: steady-state epochs allocate nothing.
  std::vector<double> lrs(k);
  EpochTerms terms;
  terms.loss.assign(columns, 0.0);
  terms.bias.assign(columns, 0.0);
  terms.grad.assign(programs.size(), nullptr);
  terms.rescan.assign(columns, 0);
  terms.fold_loss.assign(k, 0.0);
  terms.fold_bias.assign(k, 0.0);

  size_t epoch = 0;
  for (; epoch < base.max_epochs && live_total > 0; ++epoch) {
    const uint64_t epoch_start_us = obs::NowMicros();
    if (roots_stale) {
      // One multi-root plan per phase over the folds still training, all
      // sharing the bound X payload through windowed leaves.
      score_roots.clear();
      step_roots.clear();
      for (FoldProgram& p : programs) {
        if (p.live == 0) continue;
        if (!statistics) {
          p.a = static_cast<int>(score_roots.size());
          score_roots.insert(score_roots.end(), p.scores.begin(), p.scores.end());
        }
        p.b = static_cast<int>(step_roots.size());
        step_roots.push_back(p.step);
      }
      roots_stale = false;
    }
    for (size_t c = 0; c < k; ++c) {
      lrs[c] = configs[c].learning_rate /
               (1.0 + configs[c].lr_decay * static_cast<double>(epoch));
    }

    if (statistics) {
      DMML_RETURN_IF_ERROR(StatisticsEpoch(executor, programs, step_roots, live, y,
                                           base.family, result, terms));
    } else {
      DMML_RETURN_IF_ERROR(ScanEpoch(executor, programs, score_roots, step_roots,
                                     y, base.family, result, terms));
    }

    // Each live column records its loss at the weights this epoch started
    // from, takes the step b -= lr·Σr/n, w -= lr·(g/n + λ·w), and applies
    // its stopping rule.
    for (size_t f = 0; f < programs.size(); ++f) {
      FoldProgram& p = programs[f];
      if (p.live == 0) continue;
      SharedScanFold& out = result.folds[f];
      const DenseMatrix& g = *terms.grad[f];
      for (size_t c = 0; c < k; ++c) {
        const size_t col = f * k + c;
        if (!live[col]) continue;
        double l = terms.loss[col] * p.inv_n;
        if (configs[c].l2 > 0) {
          double w2 = 0;
          for (size_t j = 0; j < d; ++j) w2 += p.w->At(j, c) * p.w->At(j, c);
          l += 0.5 * configs[c].l2 * w2;
        }
        out.loss_histories[c].push_back(l);
        out.epochs_run[c] = epoch + 1;
        if (base.fit_intercept) {
          out.intercepts[c] -= lrs[c] * terms.bias[col] * p.inv_n;
        }
        for (size_t j = 0; j < d; ++j) {
          p.w->At(j, c) -= lrs[c] * (g.At(j, c) * p.inv_n +
                                     configs[c].l2 * p.w->At(j, c));
        }
        if (std::isfinite(prev_loss[col]) &&
            std::fabs(prev_loss[col] - l) <=
                configs[c].tolerance * std::max(1.0, prev_loss[col])) {
          live[col] = 0;
          --live_total;
          if (--p.live == 0) roots_stale = true;
        }
        prev_loss[col] = l;
      }
    }
    DMML_HISTOGRAM_OBSERVE("ml.glm.epoch_us", obs::ExponentialBuckets(32, 4, 10),
                           static_cast<double>(obs::NowMicros() - epoch_start_us));
  }
  result.epochs_run = epoch;

  // A sequential explorer scans a fold's training rows once per config per
  // epoch it trains; the rung scans them once per epoch while any of the
  // fold's configs trains.
  uint64_t saved = 0;
  for (SharedScanFold& out : result.folds) {
    size_t total = 0, longest = 0;
    for (size_t e : out.epochs_run) {
      total += e;
      longest = std::max(longest, e);
    }
    saved += total - longest;
  }
  DMML_COUNTER_ADD("modelsel.shared.epochs_saved", saved);

  for (size_t f = 0; f < programs.size(); ++f) {
    result.folds[f].weights = std::move(*programs[f].w);
  }
  return result;
}

}  // namespace

Result<SharedScanResult> SharedScanTrain(const Operand& x, const DenseMatrix& y,
                                         const std::vector<FoldRange>& folds,
                                         const std::vector<GlmConfig>& configs,
                                         ThreadPool* pool,
                                         laopt::PlanProfile* profile) {
  DMML_RETURN_IF_ERROR(ValidateRung(x, y, folds, configs));
  DMML_TRACE_SPAN("modelsel.shared_scan");
  const size_t k = configs.size();
  DMML_COUNTER_INC("modelsel.shared.rungs");
  DMML_COUNTER_ADD("modelsel.shared.configs_per_scan", k);
  DMML_HISTOGRAM_OBSERVE("modelsel.rung_width", obs::ExponentialBuckets(1, 2, 9),
                         static_cast<double>(k));
  return TrainRung(x, y, folds, configs, pool, profile);
}

std::vector<GlmModel> UnpackFoldModels(SharedScanFold fold, GlmFamily family) {
  const size_t k = fold.intercepts.size();
  std::vector<GlmModel> models(k);
  for (size_t c = 0; c < k; ++c) {
    models[c].family = family;
    models[c].weights = fold.weights.Column(c);
    models[c].intercept = fold.intercepts[c];
    models[c].loss_history = std::move(fold.loss_histories[c]);
    models[c].epochs_run = fold.epochs_run[c];
  }
  return models;
}

Result<GlmModel> TrainGlmOnOperand(const Operand& x, const DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   laopt::PlanProfile* profile) {
  DMML_TRACE_SPAN("ml.glm.train_operand");
  ScopedTrainerProfile prof(profile, "ml.glm.train_operand");
  // A width-1 rung over one training window that spans every row. It runs
  // the engine directly, so a single fit adds nothing to the modelsel
  // rung counters.
  const std::vector<FoldRange> all_rows = {{x.rows(), x.rows()}};
  const std::vector<GlmConfig> configs = {config};
  DMML_RETURN_IF_ERROR(ValidateRung(x, y, all_rows, configs));
  DMML_ASSIGN_OR_RETURN(
      SharedScanResult trained,
      TrainRung(x, y, all_rows, configs, pool, prof.active()));
  return std::move(
      UnpackFoldModels(std::move(trained.folds.front()), config.family).front());
}

Status RunNormalEquationsOnOperand(const Operand& x, const DenseMatrix& y,
                                   const GlmConfig& config, ThreadPool* pool,
                                   GlmModel* model, laopt::PlanProfile* profile) {
  if (!x.bound()) return Status::InvalidArgument("GLM: unbound design operand");
  const size_t n = x.rows(), d = x.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("GLM: empty data");
  if (y.rows() != n || y.cols() != 1) {
    return Status::InvalidArgument("GLM: y must be n x 1");
  }
  if (config.family != GlmFamily::kGaussian) {
    return Status::InvalidArgument("normal equations require the Gaussian family");
  }
  const size_t da = config.fit_intercept ? d + 1 : d;

  // One program per product of the augmented system, plus the scores of
  // the solution for its loss; all built up front, since the executor keys
  // plans by node address. On a dense binding t(X)%*%X routes to the SYRK
  // kernel, t(X)%*%y to the fused transpose-multiply and colSums to the
  // column reduction. Other bindings swap in their native operators per
  // laopt/executor.h.
  auto w = std::make_shared<DenseMatrix>(d, 1);
  DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(x, "X"));
  DMML_ASSIGN_OR_RETURN(ExprPtr yleaf, ExprNode::InputOperand(BorrowOperand(y), "y"));
  DMML_ASSIGN_OR_RETURN(ExprPtr wleaf, ExprNode::InputOperand(Operand(w), "w"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr gram_expr, ExprNode::MatMul(xt, xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr xty_expr, ExprNode::MatMul(xt, yleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr colsums_expr, ExprNode::ColSums(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr scores_expr, ExprNode::MatMul(xleaf, wleaf));
  ScopedTrainerProfile prof(profile, "ml.glm.normal_equations");
  BufferedExecutor executor(pool);
  executor.set_profile(prof.active());

  DenseMatrix xtx(da, da);
  DenseMatrix xty(da, 1);
  {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* gram, executor.Run(gram_expr));
    for (size_t a = 0; a < d; ++a) {
      std::copy(gram->Row(a), gram->Row(a) + d, xtx.Row(a));
    }
  }
  {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* xty_data, executor.Run(xty_expr));
    for (size_t a = 0; a < d; ++a) xty.At(a, 0) = xty_data->At(a, 0);
  }
  if (config.fit_intercept) {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* colsums,
                          executor.Run(colsums_expr));
    for (size_t j = 0; j < d; ++j) {
      xtx.At(j, d) = colsums->At(0, j);
      xtx.At(d, j) = colsums->At(0, j);
    }
    xtx.At(d, d) = static_cast<double>(n);
    xty.At(d, 0) = la::Sum(y, pool);
  }
  // L2 penalty (matching the per-example-mean loss convention: λ * n).
  if (config.l2 > 0) {
    for (size_t j = 0; j < d; ++j) {
      xtx.At(j, j) += config.l2 * static_cast<double>(n);
    }
  }
  DMML_ASSIGN_OR_RETURN(DenseMatrix sol, la::Solve(xtx, xty));
  for (size_t j = 0; j < d; ++j) w->At(j, 0) = sol.At(j, 0);
  model->family = config.family;
  model->weights = *w;
  model->intercept = config.fit_intercept ? sol.At(d, 0) : 0.0;
  model->epochs_run = 1;

  DMML_ASSIGN_OR_RETURN(const DenseMatrix* scores, executor.Run(scores_expr));
  DenseMatrix resid(n, 1);
  double loss = 0, resid_sum = 0;
  la::GlmResidualsInto(*scores, &model->intercept, y.data(), config.family,
                       &resid, &loss, &resid_sum);
  loss /= static_cast<double>(n);
  if (config.l2 > 0) {
    double w2 = 0;
    for (size_t j = 0; j < d; ++j) w2 += w->At(j, 0) * w->At(j, 0);
    loss += 0.5 * config.l2 * w2;
  }
  model->loss_history.push_back(loss);
  return Status::OK();
}

Result<KMeansModel> TrainKMeansOnOperand(const Operand& x,
                                         const KMeansConfig& config,
                                         ThreadPool* pool,
                                         laopt::PlanProfile* profile) {
  if (!x.bound()) {
    return Status::InvalidArgument("k-means: unbound design operand");
  }
  const size_t n = x.rows(), d = x.cols(), k = config.k;
  if (n == 0 || d == 0) return Status::InvalidArgument("k-means: empty data");
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k-means: k must be in [1, n]");
  }
  DMML_TRACE_SPAN("ml.kmeans.train_operand");

  // Every program, built up front: the executor keys prepared plans and
  // slots by node address, so no node may be freed while it runs. Payloads
  // are mutated in place between runs: a one-hot row selector e_i, the
  // newest seed center c, the centers C and the assignment indicator A.
  auto pick = std::make_shared<DenseMatrix>(n, 1);
  auto newest = std::make_shared<DenseMatrix>(d, 1);
  auto centers = std::make_shared<DenseMatrix>(k, d);
  auto assign = std::make_shared<DenseMatrix>(n, k);
  DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(x, "X"));
  DMML_ASSIGN_OR_RETURN(ExprPtr pleaf,
                        ExprNode::InputOperand(Operand(pick), "pick"));
  DMML_ASSIGN_OR_RETURN(ExprPtr nleaf,
                        ExprNode::InputOperand(Operand(newest), "newest"));
  DMML_ASSIGN_OR_RETURN(ExprPtr cleaf,
                        ExprNode::InputOperand(Operand(centers), "centers"));
  DMML_ASSIGN_OR_RETURN(ExprPtr aleaf,
                        ExprNode::InputOperand(Operand(assign), "assign"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(xleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr xx, ExprNode::ElemMul(xleaf, xleaf));
  // rowSums(X ⊙ X) fuses into the representation's row-squared-norms kernel.
  DMML_ASSIGN_OR_RETURN(ExprPtr norms_expr, ExprNode::RowSums(xx));
  DMML_ASSIGN_OR_RETURN(ExprPtr row_expr, ExprNode::MatMul(xt, pleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr proj_expr, ExprNode::MatMul(xleaf, nleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr ct, ExprNode::Transpose(cleaf));
  DMML_ASSIGN_OR_RETURN(ExprPtr cross_expr, ExprNode::MatMul(xleaf, ct));
  DMML_ASSIGN_OR_RETURN(ExprPtr sums_expr, ExprNode::MatMul(xt, aleaf));
  ScopedTrainerProfile prof(profile, "ml.kmeans.train_operand");
  BufferedExecutor executor(pool);
  executor.set_profile(prof.active());

  // Copied out, since a slot buffer is only stable until the next Run().
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* norms, executor.Run(norms_expr));
  const DenseMatrix row_norms = *norms;

  // k-means++ seeding: the first center is a uniform row, each later one a
  // row drawn with probability proportional to its squared distance from
  // the nearest center so far. Both products run through the executor, so
  // no binding densifies: Xᵀ·e_i extracts row i, and X·c gives the distance
  // expansion's cross term for the newest center c.
  Rng rng(config.seed);
  std::vector<double> dist2(n, std::numeric_limits<double>::infinity());
  size_t chosen = rng.UniformInt(static_cast<uint64_t>(n));
  for (size_t c = 0;; ++c) {
    pick->At(chosen, 0) = 1.0;
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* row, executor.Run(row_expr));
    pick->At(chosen, 0) = 0.0;
    std::copy(row->data(), row->data() + d, centers->Row(c));
    if (c + 1 == k) break;

    std::copy(row->data(), row->data() + d, newest->data());
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* proj, executor.Run(proj_expr));
    const double norm = la::Dot(newest->data(), newest->data(), d);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      const double dd =
          std::max(0.0, row_norms.At(i, 0) - 2.0 * proj->At(i, 0) + norm);
      dist2[i] = std::min(dist2[i], dd);
      total += dist2[i];
    }
    chosen = 0;
    if (total > 0) {
      const double r = rng.Uniform() * total;
      double acc = 0;
      for (size_t i = 0; i < n; ++i) {
        acc += dist2[i];
        if (r < acc) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.UniformInt(static_cast<uint64_t>(n));
    }
  }

  // Lloyd's iterations: X·Cᵀ for the assignment, Xᵀ·A for the update.
  KMeansModel model;
  model.labels.assign(n, 0);
  std::vector<double> center_norms(k);
  std::vector<size_t> counts(k);
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < config.max_iters; ++iter) {
    const uint64_t iter_start_us = obs::NowMicros();
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* cross, executor.Run(cross_expr));
    const double inertia =
        AssignNearest(*cross, row_norms, *centers, &center_norms, &model.labels);

    assign->Fill(0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      assign->At(i, static_cast<size_t>(model.labels[i])) = 1.0;
      counts[static_cast<size_t>(model.labels[i])]++;
    }
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* sums, executor.Run(sums_expr));
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // An empty cluster keeps its center.
      double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        centers->At(c, j) = sums->At(j, c) * inv;
      }
    }

    model.inertia_history.push_back(inertia);
    model.iters_run = iter + 1;
    DMML_HISTOGRAM_OBSERVE("ml.kmeans.iter_us", obs::ExponentialBuckets(32, 4, 10),
                           static_cast<double>(obs::NowMicros() - iter_start_us));
    if (std::isfinite(prev_inertia) &&
        std::fabs(prev_inertia - inertia) <=
            config.tolerance * std::max(1.0, prev_inertia)) {
      break;
    }
    prev_inertia = inertia;
  }

  // Final assignment against the centers returned, so labels and inertia
  // describe them even when the iteration budget ran out mid-descent.
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* cross, executor.Run(cross_expr));
  model.inertia =
      AssignNearest(*cross, row_norms, *centers, &center_norms, &model.labels);
  model.centers = *centers;
  return model;
}

}  // namespace dmml::ml
