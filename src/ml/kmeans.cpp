#include "ml/kmeans.h"

#include <limits>

#include "la/kernels.h"
#include "ml/unified_trainers.h"

namespace dmml::ml {

using la::DenseMatrix;

Result<std::vector<int>> KMeansModel::Predict(const DenseMatrix& x) const {
  if (x.cols() != centers.cols()) {
    return Status::InvalidArgument("k-means model dimensionality mismatch");
  }
  std::vector<int> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centers.rows(); ++c) {
      double d = la::RowSquaredDistance(x, i, centers, c);
      if (d < best_d) {
        best_d = d;
        out[i] = static_cast<int>(c);
      }
    }
  }
  return out;
}

Result<KMeansModel> TrainKMeans(const DenseMatrix& x, const KMeansConfig& config,
                                ThreadPool* pool) {
  return TrainKMeansOnOperand(BorrowOperand(x), config, pool);
}

}  // namespace dmml::ml
