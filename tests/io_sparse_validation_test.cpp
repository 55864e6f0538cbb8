// Tests for matrix persistence, GLM training over a CSR binding and
// validation helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>

#include "data/generators.h"
#include "la/kernels.h"
#include "la/matrix_io.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "ml/validation.h"

namespace dmml {
namespace {

using la::DenseMatrix;
using la::SparseMatrix;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// Matrix I/O
// --------------------------------------------------------------------------

TEST(MatrixIoTest, DenseBinaryRoundTrip) {
  auto m = data::GaussianMatrix(17, 9, 1);
  std::string path = TempPath("dense.dmm");
  ASSERT_TRUE(la::SaveDenseMatrix(m, path).ok());
  auto loaded = la::LoadDenseMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == m);  // Bit-exact.
  std::remove(path.c_str());
}

TEST(MatrixIoTest, SparseBinaryRoundTrip) {
  auto m = data::SparseGaussianMatrix(40, 25, 0.15, 2);
  std::string path = TempPath("sparse.dms");
  ASSERT_TRUE(la::SaveSparseMatrix(m, path).ok());
  auto loaded = la::LoadSparseMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == m);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, EmptyAndVectorShapes) {
  DenseMatrix empty;
  std::string path = TempPath("empty.dmm");
  ASSERT_TRUE(la::SaveDenseMatrix(empty, path).ok());
  auto loaded = la::LoadDenseMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);

  auto v = DenseMatrix::ColumnVector({1, 2, 3});
  ASSERT_TRUE(la::SaveDenseMatrix(v, path).ok());
  EXPECT_TRUE(*la::LoadDenseMatrix(path) == v);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, RejectsWrongMagicAndTruncation) {
  std::string path = TempPath("bogus.dmm");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("NOPE", f);
  fclose(f);
  EXPECT_FALSE(la::LoadDenseMatrix(path).ok());
  EXPECT_FALSE(la::LoadSparseMatrix(path).ok());

  // Valid magic but truncated payload.
  auto m = data::GaussianMatrix(4, 4, 3);
  ASSERT_TRUE(la::SaveDenseMatrix(m, path).ok());
  ASSERT_EQ(truncate(path.c_str(), 30), 0);
  EXPECT_FALSE(la::LoadDenseMatrix(path).ok());
  std::remove(path.c_str());
}

TEST(MatrixIoTest, MissingFileIsError) {
  EXPECT_FALSE(la::LoadDenseMatrix("/nonexistent/m.dmm").ok());
  EXPECT_FALSE(la::SaveDenseMatrix(DenseMatrix(1, 1), "/nonexistent/m.dmm").ok());
}

TEST(MatrixIoTest, CsvRoundTrip) {
  auto m = data::GaussianMatrix(6, 3, 4);
  std::string path = TempPath("matrix.csv");
  ASSERT_TRUE(la::SaveDenseMatrixCsv(m, path).ok());
  auto loaded = la::LoadDenseMatrixCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 0));  // 17-digit precision round trips.
  std::remove(path.c_str());
}

TEST(MatrixIoTest, CsvRejectsRaggedRows) {
  std::string path = TempPath("ragged.csv");
  FILE* f = fopen(path.c_str(), "w");
  fputs("1,2,3\n4,5\n", f);
  fclose(f);
  EXPECT_FALSE(la::LoadDenseMatrixCsv(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Sparse GLM (the operand trainer over a CSR binding; parity with the dense
// binding is in laopt_repr_test)
// --------------------------------------------------------------------------

laopt::Operand Csr(SparseMatrix x) {
  return laopt::Operand(std::make_shared<const SparseMatrix>(std::move(x)));
}

TEST(SparseGlmTest, LogisticOnSparseOneHot) {
  // One-hot features: 100 categories, label depends on category parity.
  const size_t n = 800, d = 100;
  Rng rng(7);
  std::vector<la::Triplet> triplets;
  DenseMatrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    size_t cat = rng.UniformInt(uint64_t{d});
    triplets.push_back({i, cat, 1.0});
    y.At(i, 0) = (cat % 2 == 0) ? 1.0 : 0.0;
  }
  auto x = SparseMatrix::FromTriplets(n, d, std::move(triplets));
  ml::GlmConfig config;
  config.family = ml::GlmFamily::kBinomial;
  config.learning_rate = 1.0;
  config.max_epochs = 300;
  auto model = ml::TrainGlmOnOperand(Csr(x), y, config);
  ASSERT_TRUE(model.ok());
  // Predictions via the dense model interface on the densified matrix.
  auto labels = model->PredictLabels(x.ToDense());
  ASSERT_TRUE(labels.ok());
  EXPECT_GT(*ml::Accuracy(y, *labels), 0.98);
}

TEST(SparseGlmTest, Validation) {
  ml::GlmConfig config;
  EXPECT_FALSE(ml::TrainGlmOnOperand(Csr(SparseMatrix()), DenseMatrix(0, 1), config).ok());
  const laopt::Operand x = Csr(data::SparseGaussianMatrix(10, 3, 0.5, 10));
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, DenseMatrix(5, 1), config).ok());
  config.learning_rate = -1;
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, DenseMatrix(10, 1), config).ok());
  config = ml::GlmConfig{};
  config.family = ml::GlmFamily::kBinomial;
  EXPECT_FALSE(ml::TrainGlmOnOperand(x, DenseMatrix(10, 1, 0.7), config).ok());
}

// --------------------------------------------------------------------------
// Validation helpers
// --------------------------------------------------------------------------

TEST(SplitTest, PartitionsRowsExactly) {
  auto x = data::GaussianMatrix(100, 3, 11);
  DenseMatrix y(100, 1);
  for (size_t i = 0; i < 100; ++i) y.At(i, 0) = static_cast<double>(i);
  auto split = ml::SplitTrainTest(x, y, 0.25, 12);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->x_test.rows(), 25u);
  EXPECT_EQ(split->x_train.rows(), 75u);
  // Every original row id appears exactly once across the two sides.
  std::set<double> seen;
  for (size_t i = 0; i < 25; ++i) seen.insert(split->y_test.At(i, 0));
  for (size_t i = 0; i < 75; ++i) seen.insert(split->y_train.At(i, 0));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(SplitTest, RowsStayAligned) {
  // y encodes a function of x so misalignment is detectable.
  auto x = data::GaussianMatrix(60, 2, 13);
  DenseMatrix y(60, 1);
  for (size_t i = 0; i < 60; ++i) y.At(i, 0) = x.At(i, 0) + 2 * x.At(i, 1);
  auto split = ml::SplitTrainTest(x, y, 0.3, 14);
  ASSERT_TRUE(split.ok());
  for (size_t i = 0; i < split->x_test.rows(); ++i) {
    EXPECT_NEAR(split->y_test.At(i, 0),
                split->x_test.At(i, 0) + 2 * split->x_test.At(i, 1), 1e-12);
  }
}

TEST(SplitTest, Validation) {
  auto x = data::GaussianMatrix(10, 2, 15);
  DenseMatrix y(10, 1);
  EXPECT_FALSE(ml::SplitTrainTest(x, DenseMatrix(9, 1), 0.2, 1).ok());
  EXPECT_FALSE(ml::SplitTrainTest(x, y, 0.0, 1).ok());
  EXPECT_FALSE(ml::SplitTrainTest(x, y, 1.0, 1).ok());
  EXPECT_FALSE(ml::SplitTrainTest(x, y, 0.01, 1).ok());  // Test side empty.
}

TEST(ConfusionMatrixTest, CountsAndDerivedMetrics) {
  std::vector<int> y_true = {0, 0, 1, 1, 1, 2};
  std::vector<int> y_pred = {0, 1, 1, 1, 0, 2};
  auto cm = ml::BuildConfusionMatrix(y_true, y_pred);
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ(cm->classes, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(cm->counts.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cm->counts.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(cm->counts.At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(cm->counts.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(cm->counts.At(2, 2), 1.0);
  EXPECT_NEAR(cm->Accuracy(), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(*cm->Recall(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(*cm->Precision(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(*cm->Recall(2), 1.0, 1e-12);
  EXPECT_FALSE(cm->Recall(99).ok());
}

TEST(ConfusionMatrixTest, HandlesPredictedOnlyClasses) {
  auto cm = ml::BuildConfusionMatrix({0, 0}, {0, 5});
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ(cm->classes, (std::vector<int>{0, 5}));
  EXPECT_FALSE(cm->Recall(5).ok());  // Class 5 has no true examples.
  EXPECT_TRUE(cm->Precision(5).ok());
  std::string rendered = cm->ToString();
  EXPECT_NE(rendered.find("5"), std::string::npos);
}

TEST(ConfusionMatrixTest, Validation) {
  EXPECT_FALSE(ml::BuildConfusionMatrix({}, {}).ok());
  EXPECT_FALSE(ml::BuildConfusionMatrix({1}, {1, 2}).ok());
}

}  // namespace
}  // namespace dmml
