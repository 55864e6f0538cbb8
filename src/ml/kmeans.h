/// \file kmeans.h
/// \brief Lloyd's k-means with k-means++ initialization.
#ifndef DMML_ML_KMEANS_H_
#define DMML_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::ml {

/// \brief k-means hyperparameters.
struct KMeansConfig {
  size_t k = 8;
  size_t max_iters = 100;
  double tolerance = 1e-6;  ///< Relative inertia-improvement stop criterion.
  uint64_t seed = 42;       ///< Seeds the k-means++ draws.
};

/// \brief A fitted k-means clustering.
struct KMeansModel {
  la::DenseMatrix centers;   ///< k x d centroids.
  std::vector<int> labels;   ///< Nearest returned center of each row.
  double inertia = 0.0;      ///< Within-cluster SSE of `labels`/`centers`.
  size_t iters_run = 0;
  /// Entry t: the inertia of iteration t's assignment, against the centers
  /// that iteration started from. Non-increasing up to rounding.
  std::vector<double> inertia_history;

  /// \brief Assigns each row of `x` to its nearest centroid.
  Result<std::vector<int>> Predict(const la::DenseMatrix& x) const;
};

/// \brief Runs Lloyd's algorithm on (n x d) data: the dense binding of
/// ml::TrainKMeansOnOperand (ml/unified_trainers.h), which every
/// representation shares.
///
/// Contract:
///  * Seeding is k-means++: a uniform first row, then rows drawn with
///    probability proportional to their squared distance from the nearest
///    center chosen so far (uniform if every distance is 0).
///  * Each iteration assigns every row to its nearest center (one X·Cᵀ
///    product, distances by the expansion ‖x‖² − 2·x·c + ‖c‖²), then moves
///    each center to the mean of its rows. An empty cluster keeps its
///    previous center.
///  * Iteration stops after `max_iters`, or once the inertia improves by at
///    most `tolerance` relative to the previous iteration's.
///  * A final assignment against the returned centers sets `labels` and
///    `inertia`, so both describe `centers` even when the budget ran out.
Result<KMeansModel> TrainKMeans(const la::DenseMatrix& x, const KMeansConfig& config,
                                ThreadPool* pool = nullptr);

}  // namespace dmml::ml

#endif  // DMML_ML_KMEANS_H_
