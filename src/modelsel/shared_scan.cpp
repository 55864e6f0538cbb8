#include "modelsel/shared_scan.h"

#include <cmath>
#include <vector>

#include "la/kernels.h"
#include "modelsel/model_selection.h"

namespace dmml::modelsel {

using la::DenseMatrix;
using laopt::Operand;
using laopt::Repr;
using ml::GlmFamily;

Result<std::vector<double>> ScoreConfigsOnWindow(
    const Operand& x, const DenseMatrix& y, size_t row_begin, size_t row_end,
    const DenseMatrix& weights, const std::vector<double>& intercepts,
    GlmFamily family, FoldMetric metric, ThreadPool* pool) {
  if (!x.bound()) return Status::InvalidArgument("score window: unbound X");
  if (row_begin >= row_end || row_end > x.rows()) {
    return Status::InvalidArgument("score window: bad row range");
  }
  const size_t range = row_end - row_begin, k = weights.cols();
  if (weights.rows() != x.cols() || intercepts.size() != k ||
      y.rows() != x.rows() || y.cols() != 1) {
    return Status::InvalidArgument("score window: shape mismatch");
  }
  if (family != GlmFamily::kBinomial && metric != FoldMetric::kNegRmse) {
    return Status::InvalidArgument("score window: metric requires Binomial");
  }

  // One ranged X·W product scores every config on the window — no gather.
  const Operand v = x.Slice(row_begin, row_end);
  DenseMatrix scores;
  switch (v.repr()) {
    case Repr::kDense:
      la::MultiplyRangeInto(*v.dense(), v.window_begin(), v.window_end(),
                            weights, &scores, pool);
      break;
    case Repr::kSparse:
      la::SparseMultiplyDenseRangeInto(*v.sparse(), v.window_begin(),
                                       v.window_end(), weights, &scores, pool);
      break;
    case Repr::kCompressed:
      DMML_RETURN_IF_ERROR(v.compressed()->MultiplyMatrixRangeInto(
          weights, v.window_begin(), v.window_end(), &scores, pool));
      break;
    case Repr::kFactorized:
      DMML_ASSIGN_OR_RETURN(scores, v.linear()->Multiply(weights, v.window_begin(),
                                                         v.window_end(), pool));
      break;
  }

  const double* yw = y.Row(row_begin);
  const double rows = static_cast<double>(range);
  std::vector<double> out(k);
  if (metric == FoldMetric::kAccuracy) {
    for (size_t c = 0; c < k; ++c) {
      size_t hits = 0;
      for (size_t i = 0; i < range; ++i) {
        const double s = scores.At(i, c) + intercepts[c];
        const double label = ml::GlmInverseLink(s, family) >= 0.5 ? 1.0 : 0.0;
        hits += label == yw[i] ? 1 : 0;
      }
      out[c] = static_cast<double>(hits) / rows;
    }
    return out;
  }
  // The loss sums are Σ½r² (Gaussian) and Σ softplus(−margin) (binomial).
  std::vector<double> loss(k, 0.0), resid(k, 0.0);
  la::GlmResidualsInto(scores, intercepts.data(), yw, family, &scores,
                       loss.data(), resid.data());
  for (size_t c = 0; c < k; ++c) {
    out[c] = metric == FoldMetric::kNegLogLoss ? -loss[c] / rows
                                               : -std::sqrt(2.0 * loss[c] / rows);
  }
  return out;
}

ContiguousFolds MakeContiguousFolds(const KFold& kf) {
  ContiguousFolds cf;
  cf.folds.reserve(kf.num_folds());
  for (size_t f = 0; f < kf.num_folds(); ++f) {
    const std::vector<size_t>& val = kf.ValidationIndices(f);
    FoldRange range;
    range.begin = cf.order.size();
    cf.order.insert(cf.order.end(), val.begin(), val.end());
    range.end = cf.order.size();
    cf.folds.push_back(range);
  }
  return cf;
}

}  // namespace dmml::modelsel
