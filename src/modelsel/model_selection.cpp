#include "modelsel/model_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/kernels.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "modelsel/shared_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace dmml::modelsel {

using la::DenseMatrix;
using ml::GlmConfig;
using ml::GlmFamily;
using ml::GlmModel;

std::vector<GlmConfig> GridSpec::Expand() const {
  std::vector<GlmConfig> configs;
  configs.reserve(learning_rates.size() * l2_penalties.size());
  for (double lr : learning_rates) {
    for (double l2 : l2_penalties) {
      GlmConfig c = base;
      c.learning_rate = lr;
      c.l2 = l2;
      configs.push_back(c);
    }
  }
  return configs;
}

Result<KFold> KFold::Make(size_t n, size_t k, uint64_t seed) {
  if (k < 2 || k > n) return Status::InvalidArgument("k-fold: need 2 <= k <= n");
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);
  KFold kf;
  kf.folds_.resize(k);
  for (size_t i = 0; i < n; ++i) kf.folds_[i % k].push_back(order[i]);
  return kf;
}

std::vector<size_t> KFold::TrainingIndices(size_t f) const {
  std::vector<size_t> out;
  for (size_t g = 0; g < folds_.size(); ++g) {
    if (g == f) continue;
    out.insert(out.end(), folds_[g].begin(), folds_[g].end());
  }
  return out;
}

DenseMatrix GatherRows(const DenseMatrix& m, const std::vector<size_t>& rows) {
  DenseMatrix out(rows.size(), m.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(m.Row(rows[i]), m.Row(rows[i]) + m.cols(), out.Row(i));
  }
  return out;
}

namespace {

// Higher-is-better score of a trained model on held-out data.
Result<double> ScoreModel(const GlmModel& model, const DenseMatrix& x,
                          const DenseMatrix& y) {
  if (model.family == GlmFamily::kBinomial) {
    DMML_ASSIGN_OR_RETURN(DenseMatrix labels, model.PredictLabels(x));
    return ml::Accuracy(y, labels);
  }
  DMML_ASSIGN_OR_RETURN(DenseMatrix pred, model.Predict(x));
  DMML_ASSIGN_OR_RETURN(double rmse, ml::Rmse(y, pred));
  return -rmse;
}

CvScore Summarize(const GlmConfig& config, std::vector<double> fold_scores) {
  CvScore score;
  score.config = config;
  score.fold_scores = std::move(fold_scores);
  double sum = 0;
  for (double s : score.fold_scores) sum += s;
  score.mean_score = sum / static_cast<double>(score.fold_scores.size());
  double var = 0;
  for (double s : score.fold_scores) {
    double d = s - score.mean_score;
    var += d * d;
  }
  score.std_score =
      std::sqrt(var / static_cast<double>(score.fold_scores.size()));
  return score;
}

size_t ArgBest(const std::vector<CvScore>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i].mean_score > scores[best].mean_score) best = i;
  }
  return best;
}

}  // namespace

Result<CvScore> CrossValidate(const DenseMatrix& x, const DenseMatrix& y,
                              const GlmConfig& config, size_t k, uint64_t seed,
                              ThreadPool* pool) {
  DMML_ASSIGN_OR_RETURN(KFold kf, KFold::Make(x.rows(), k, seed));
  std::vector<double> fold_scores;
  fold_scores.reserve(k);
  for (size_t f = 0; f < k; ++f) {
    auto train_idx = kf.TrainingIndices(f);
    DenseMatrix xt = GatherRows(x, train_idx);
    DenseMatrix yt = GatherRows(y, train_idx);
    DenseMatrix xv = GatherRows(x, kf.ValidationIndices(f));
    DenseMatrix yv = GatherRows(y, kf.ValidationIndices(f));
    DMML_ASSIGN_OR_RETURN(GlmModel model, ml::TrainGlm(xt, yt, config, pool));
    DMML_ASSIGN_OR_RETURN(double score, ScoreModel(model, xv, yv));
    fold_scores.push_back(score);
  }
  return Summarize(config, std::move(fold_scores));
}

Result<GridSearchResult> GridSearchSequential(const DenseMatrix& x,
                                              const DenseMatrix& y,
                                              const GridSpec& grid, size_t k,
                                              uint64_t seed, ThreadPool* pool) {
  DMML_TRACE_SPAN("modelsel.grid_search");
  Stopwatch watch;
  GridSearchResult result;
  for (const GlmConfig& config : grid.Expand()) {
    DMML_ASSIGN_OR_RETURN(CvScore score,
                          CrossValidate(x, y, config, k, seed, pool));
    DMML_COUNTER_INC("modelsel.configs_evaluated");
    result.scores.push_back(std::move(score));
  }
  if (result.scores.empty()) {
    return Status::InvalidArgument("grid search: empty grid");
  }
  result.best_index = ArgBest(result.scores);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

Result<std::vector<GlmModel>> BatchedTrainGlm(const DenseMatrix& x,
                                              const DenseMatrix& y,
                                              const std::vector<GlmConfig>& configs,
                                              ThreadPool* pool) {
  return BatchedTrainGlm(ml::BorrowOperand(x), y, configs, pool);
}

Result<std::vector<GlmModel>> BatchedTrainGlm(const laopt::Operand& x,
                                              const DenseMatrix& y,
                                              const std::vector<GlmConfig>& configs,
                                              ThreadPool* pool) {
  if (configs.empty()) return Status::InvalidArgument("batched train: no configs");
  DMML_TRACE_SPAN("modelsel.batched_train");
  DMML_COUNTER_ADD("modelsel.configs_evaluated", configs.size());
  // One degenerate "fold" whose validation range is empty: every row is a
  // training row, and the engine runs one X·W and one Xᵀ·R per epoch for
  // all configurations (one weight column each).
  const std::vector<FoldRange> all_rows = {{x.rows(), x.rows()}};
  DMML_ASSIGN_OR_RETURN(SharedScanResult trained,
                        SharedScanTrain(x, y, all_rows, configs, pool));
  return ml::UnpackFoldModels(std::move(trained.folds.front()),
                              configs.front().family);
}

Result<GridSearchResult> GridSearchBatched(const DenseMatrix& x, const DenseMatrix& y,
                                           const GridSpec& grid, size_t k,
                                           uint64_t seed, ThreadPool* pool) {
  DMML_TRACE_SPAN("modelsel.grid_search_batched");
  Stopwatch watch;
  std::vector<GlmConfig> configs = grid.Expand();
  if (configs.empty()) return Status::InvalidArgument("grid search: empty grid");
  DMML_ASSIGN_OR_RETURN(KFold kf, KFold::Make(x.rows(), k, seed));
  DMML_COUNTER_ADD("modelsel.configs_evaluated", configs.size() * k);

  // Permute once so every fold is a contiguous row range, then train all
  // folds × all configs as one shared-scan rung: leave-one-fold-out training
  // reads X through zero-copy row windows — the per-fold GatherRows of the
  // historical implementation is gone from the hot path.
  const ContiguousFolds cf = MakeContiguousFolds(kf);
  const DenseMatrix xp = GatherRows(x, cf.order);
  const DenseMatrix yp = GatherRows(y, cf.order);
  const laopt::Operand xp_op = ml::BorrowOperand(xp);
  DMML_ASSIGN_OR_RETURN(SharedScanResult trained,
                        SharedScanTrain(xp_op, yp, cf.folds, configs, pool));

  const bool binomial = grid.base.family == GlmFamily::kBinomial;
  const FoldMetric metric =
      binomial ? FoldMetric::kAccuracy : FoldMetric::kNegRmse;
  std::vector<std::vector<double>> fold_scores(configs.size());
  for (size_t f = 0; f < k; ++f) {
    const SharedScanFold& fold = trained.folds[f];
    DMML_ASSIGN_OR_RETURN(
        std::vector<double> scores,
        ScoreConfigsOnWindow(xp_op, yp, cf.folds[f].begin, cf.folds[f].end,
                             fold.weights, fold.intercepts, grid.base.family,
                             metric, pool));
    for (size_t c = 0; c < configs.size(); ++c) {
      fold_scores[c].push_back(scores[c]);
    }
  }

  GridSearchResult result;
  for (size_t c = 0; c < configs.size(); ++c) {
    result.scores.push_back(Summarize(configs[c], std::move(fold_scores[c])));
  }
  result.best_index = ArgBest(result.scores);
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace dmml::modelsel
