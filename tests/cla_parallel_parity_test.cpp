// Parity tests for the parallel CLA engine: pooled compression and ops must
// agree with their serial selves across every encoding (incl. co-coded
// groups, all-zero columns and row counts not divisible by the chunking),
// ranged group kernels must agree with full-range calls, and the `Into`
// variants must overwrite dirty buffers without steady-state allocations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "la/kernels.h"
#include "ml/unified_trainers.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dmml::cla {
namespace {

using la::DenseMatrix;

// 7 columns exercising every encoding: 2 low-card (DDC, co-codable),
// 2 sorted runs (RLE), 1 sparse (OLE), 1 gaussian (UC), 1 all-zero.
DenseMatrix ParityData(size_t n, uint64_t seed) {
  DenseMatrix m(n, 7);
  auto lowcard = data::LowCardinalityMatrix(n, 2, 5, false, seed);
  auto sorted = data::LowCardinalityMatrix(n, 2, 7, true, seed + 1);
  Rng rng(seed + 2);
  for (size_t i = 0; i < n; ++i) {
    m.At(i, 0) = lowcard.At(i, 0);
    m.At(i, 1) = lowcard.At(i, 1);
    m.At(i, 2) = sorted.At(i, 0);
    m.At(i, 3) = sorted.At(i, 1);
    if (rng.Bernoulli(0.05)) m.At(i, 4) = rng.Normal();
    m.At(i, 5) = rng.Normal();
    // Column 6 stays all-zero.
  }
  return m;
}

CompressionOptions CocodingOptions() {
  CompressionOptions options;
  options.enable_cocoding = true;
  return options;
}

// |a - b| bounded by `tol` scaled to the magnitude of the reference: pooled
// chunking reassociates floating-point sums, so parity is relative.
void ExpectMatricesNear(const DenseMatrix& a, const DenseMatrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  double max_abs = 1.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(a.data()[i]));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol * max_abs) << "element " << i;
  }
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// --------------------------------------------------------------------------
// Pooled vs serial compression
// --------------------------------------------------------------------------

TEST(ClaParallelCompressTest, PooledPlanMatchesSerialPlan) {
  auto m = ParityData(4997, 21);  // Not divisible by any chunking.
  ThreadPool pool(4);
  auto serial = CompressedMatrix::Compress(m, CocodingOptions());
  auto pooled = CompressedMatrix::Compress(m, CocodingOptions(), &pool);

  ASSERT_EQ(serial.groups().size(), pooled.groups().size());
  for (size_t g = 0; g < serial.groups().size(); ++g) {
    EXPECT_EQ(serial.groups()[g]->format(), pooled.groups()[g]->format());
    EXPECT_EQ(serial.groups()[g]->columns(), pooled.groups()[g]->columns());
    EXPECT_EQ(serial.groups()[g]->SizeInBytes(), pooled.groups()[g]->SizeInBytes());
  }
  EXPECT_EQ(serial.SizeInBytes(), pooled.SizeInBytes());
  EXPECT_TRUE(serial.Decompress() == pooled.Decompress());
  EXPECT_TRUE(pooled.Decompress(&pool) == m);
}

TEST(ClaParallelCompressTest, PooledSamplingPlanMatchesSerial) {
  auto m = ParityData(8000, 22);
  ThreadPool pool(4);
  CompressionOptions options;
  options.sample_rows = 500;
  auto serial = CompressedMatrix::Compress(m, options);
  auto pooled = CompressedMatrix::Compress(m, options, &pool);
  ASSERT_EQ(serial.groups().size(), pooled.groups().size());
  for (size_t g = 0; g < serial.groups().size(); ++g) {
    EXPECT_EQ(serial.groups()[g]->format(), pooled.groups()[g]->format());
  }
  EXPECT_TRUE(serial.Decompress() == pooled.Decompress());
}

TEST(ClaParallelCompressTest, CompressCountersAdvance) {
  auto m = ParityData(1000, 23);
  uint64_t analyzed = Counter("cla.compress.columns_analyzed");
  uint64_t encoded = Counter("cla.compress.groups_encoded");
  auto cm = CompressedMatrix::Compress(m);
  EXPECT_EQ(Counter("cla.compress.columns_analyzed") - analyzed, m.cols());
  EXPECT_EQ(Counter("cla.compress.groups_encoded") - encoded, cm.groups().size());
}

// --------------------------------------------------------------------------
// Windowed Gram
// --------------------------------------------------------------------------

// GramRangeInto against the naive Gram of the decompressed window, serially
// and on a 4-worker pool, over every encoding: with and without co-coding,
// and over windows that are empty, one row, the last row, every row,
// interior, and across the 2048-row chunk boundary.
TEST(ClaGramRangeTest, MatchesReferenceOfSlicedRowsOnEveryEncoding) {
  const size_t n = 4997;
  const DenseMatrix m = ParityData(n, 23);
  ThreadPool pool(4);
  for (bool cocode : {false, true}) {
    const CompressedMatrix cm =
        CompressedMatrix::Compress(m, cocode ? CocodingOptions() : CompressionOptions{});
    std::set<GroupFormat> formats;
    bool cocoded = false;
    for (const auto& g : cm.groups()) {
      formats.insert(g->format());
      cocoded = cocoded || g->columns().size() > 1;
    }
    EXPECT_EQ(formats.size(), 4u) << cm.FormatSummary();
    EXPECT_EQ(cocoded, cocode) << cm.FormatSummary();
    const std::pair<size_t, size_t> windows[] = {
        {0, 0}, {0, 1}, {n - 1, n}, {0, n}, {17, 33}, {2000, 2100}};
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const auto& [b, e] : windows) {
        SCOPED_TRACE(std::string(cocode ? "co-coded " : "") + (p ? "pool" : "serial") +
                     " window [" + std::to_string(b) + ", " + std::to_string(e) + ")");
        DenseMatrix out(3, 3, 7.0);  // Dirty and misshapen: fully overwritten.
        ASSERT_TRUE(cm.GramRangeInto(b, e, &out, p).ok());
        ExpectMatricesNear(out, la::reference::Gram(m.SliceRows(b, e)), 1e-12);
      }
    }
  }
  DenseMatrix out;
  EXPECT_FALSE(CompressedMatrix::Compress(m).GramRangeInto(2, 1, &out).ok());
  EXPECT_FALSE(CompressedMatrix::Compress(m).GramRangeInto(0, n + 1, &out).ok());
}

// --------------------------------------------------------------------------
// Pooled vs serial ops
// --------------------------------------------------------------------------

class ClaParallelOpsTest : public ::testing::Test {
 protected:
  // Large enough that a 4-thread pool genuinely chunks the row space, prime
  // so chunk boundaries never align with runs or skip blocks.
  ClaParallelOpsTest()
      : m_(ParityData(9973, 31)),
        cm_(CompressedMatrix::Compress(m_, CocodingOptions())),
        pool_(4) {}

  DenseMatrix m_;
  CompressedMatrix cm_;
  ThreadPool pool_;
};

TEST_F(ClaParallelOpsTest, MultiplyVectorMatchesSerial) {
  auto v = data::GaussianMatrix(m_.cols(), 1, 41);
  auto serial = cm_.MultiplyVector(v);
  auto pooled = cm_.MultiplyVector(v, &pool_);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  ExpectMatricesNear(*serial, *pooled, 1e-12);
  ExpectMatricesNear(*serial, la::Multiply(m_, v), 1e-9);
}

TEST_F(ClaParallelOpsTest, VectorMultiplyMatchesSerial) {
  auto u = data::GaussianMatrix(m_.rows(), 1, 42);
  auto serial = cm_.VectorMultiply(u);
  auto pooled = cm_.VectorMultiply(u, &pool_);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  ExpectMatricesNear(*serial, *pooled, 1e-12);
  ExpectMatricesNear(*serial, la::Multiply(la::Transpose(u), m_), 1e-9);
}

TEST_F(ClaParallelOpsTest, MultiplyMatrixMatchesSerial) {
  auto rhs = data::GaussianMatrix(m_.cols(), 4, 43);
  auto serial = cm_.MultiplyMatrix(rhs);
  auto pooled = cm_.MultiplyMatrix(rhs, &pool_);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  ExpectMatricesNear(*serial, *pooled, 1e-12);
  ExpectMatricesNear(*serial, la::Multiply(m_, rhs), 1e-9);
}

TEST_F(ClaParallelOpsTest, TransposeMultiplyMatrixMatchesSerial) {
  auto rhs = data::GaussianMatrix(m_.rows(), 3, 44);
  auto serial = cm_.TransposeMultiplyMatrix(rhs);
  auto pooled = cm_.TransposeMultiplyMatrix(rhs, &pool_);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  ExpectMatricesNear(*serial, *pooled, 1e-12);
  ExpectMatricesNear(*serial, la::Multiply(la::Transpose(m_), rhs), 1e-9);
}

TEST_F(ClaParallelOpsTest, RowSquaredNormsSumDecompressMatchSerial) {
  ExpectMatricesNear(cm_.RowSquaredNorms(), cm_.RowSquaredNorms(&pool_), 1e-12);
  EXPECT_NEAR(cm_.Sum(), cm_.Sum(&pool_), 1e-12 * std::fabs(cm_.Sum()) + 1e-12);
  EXPECT_TRUE(cm_.Decompress() == cm_.Decompress(&pool_));
}

TEST_F(ClaParallelOpsTest, RangedCountersAdvanceUnderPool) {
  auto v = data::GaussianMatrix(m_.cols(), 1, 45);
  auto u = data::GaussianMatrix(m_.rows(), 1, 46);
  uint64_t ranged = Counter("cla.ops.ranged_calls");
  uint64_t reductions = Counter("cla.ops.partial_reductions");
  ASSERT_TRUE(cm_.MultiplyVector(v, &pool_).ok());
  ASSERT_TRUE(cm_.VectorMultiply(u, &pool_).ok());
  EXPECT_GT(Counter("cla.ops.ranged_calls"), ranged);
  EXPECT_GT(Counter("cla.ops.partial_reductions"), reductions);
}

// --------------------------------------------------------------------------
// Ranged group kernels vs full range
// --------------------------------------------------------------------------

TEST(ClaRangedKernelTest, SubRangesComposeToFullRange) {
  auto m = ParityData(2500, 51);
  auto cm = CompressedMatrix::Compress(m, CocodingOptions());
  const size_t n = m.rows(), d = m.cols(), k = 3;
  auto v = data::GaussianMatrix(d, 1, 52);
  auto u = data::GaussianMatrix(n, 1, 53);
  auto rhs_t = data::GaussianMatrix(n, k, 54);
  auto rhs_m = data::GaussianMatrix(d, k, 55);
  // Awkward split points: straddle RLE skip blocks and run boundaries.
  const std::vector<size_t> cuts = {0, 7, 1024, 1031, 2047, n};

  for (const auto& g : cm.groups()) {
    // MultiplyVector: ranged writes are disjoint per row.
    DenseMatrix full(n, 1), split(n, 1);
    g->MultiplyVectorRange(v.data(), nullptr, full.data(), 0, n, 0);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->MultiplyVectorRange(v.data(), nullptr, split.data(), cuts[c],
                             cuts[c + 1], 0);
    }
    ExpectMatricesNear(full, split, 1e-12);

    // VectorMultiply: ranged contributions accumulate.
    DenseMatrix vm_full(1, d), vm_split(1, d);
    g->VectorMultiplyRange(u.data(), vm_full.data(), 0, n, 0);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->VectorMultiplyRange(u.data(), vm_split.data(), cuts[c], cuts[c + 1],
                             0);
    }
    ExpectMatricesNear(vm_full, vm_split, 1e-12);

    // MultiplyMatrix.
    DenseMatrix mm_full(n, k), mm_split(n, k);
    g->MultiplyMatrixRange(rhs_m, nullptr, &mm_full, 0, n, 0);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->MultiplyMatrixRange(rhs_m, nullptr, &mm_split, cuts[c], cuts[c + 1], 0);
    }
    ExpectMatricesNear(mm_full, mm_split, 1e-12);

    // TransposeMultiplyMatrix.
    DenseMatrix tm_full(d, k), tm_split(d, k);
    g->TransposeMultiplyMatrixRange(rhs_t, tm_full.data(), 0, n, 0);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->TransposeMultiplyMatrixRange(rhs_t, tm_split.data(), cuts[c],
                                      cuts[c + 1], 0);
    }
    ExpectMatricesNear(tm_full, tm_split, 1e-12);

    // Sum and row squared norms.
    double sum_split = 0;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      sum_split += g->SumRange(cuts[c], cuts[c + 1]);
    }
    EXPECT_NEAR(g->SumRange(0, n), sum_split,
                1e-12 * (1.0 + std::fabs(sum_split)));
    DenseMatrix rn_full(n, 1), rn_split(n, 1);
    g->AddRowSquaredNormsRange(nullptr, rn_full.data(), 0, n);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->AddRowSquaredNormsRange(nullptr, rn_split.data(), cuts[c], cuts[c + 1]);
    }
    ExpectMatricesNear(rn_full, rn_split, 1e-12);

    // Decompress.
    DenseMatrix dc_full(n, d), dc_split(n, d);
    g->DecompressRange(&dc_full, 0, n, 0);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      g->DecompressRange(&dc_split, cuts[c], cuts[c + 1], 0);
    }
    EXPECT_TRUE(dc_full == dc_split);
  }
}

TEST(ClaRangedKernelTest, ExplicitPreaggMatchesThreadLocalFallback) {
  auto m = ParityData(1500, 61);
  auto cm = CompressedMatrix::Compress(m, CocodingOptions());
  auto v = data::GaussianMatrix(m.cols(), 1, 62);
  for (const auto& g : cm.groups()) {
    if (g->DictionarySize() == 0) continue;
    std::vector<double> preagg(g->DictionarySize());
    g->PreaggregateVector(v.data(), preagg.data());
    DenseMatrix with(m.rows(), 1), without(m.rows(), 1);
    g->MultiplyVectorRange(v.data(), preagg.data(), with.data(), 0, m.rows(), 0);
    g->MultiplyVectorRange(v.data(), nullptr, without.data(), 0, m.rows(), 0);
    EXPECT_TRUE(with == without);
  }
}

// --------------------------------------------------------------------------
// Into variants: dirty buffers and steady-state allocations
// --------------------------------------------------------------------------

TEST(ClaIntoTest, IntoVariantsOverwriteDirtyBuffers) {
  auto m = ParityData(800, 71);
  auto cm = CompressedMatrix::Compress(m, CocodingOptions());
  auto v = data::GaussianMatrix(m.cols(), 1, 72);
  auto u = data::GaussianMatrix(m.rows(), 1, 73);
  auto rhs_m = data::GaussianMatrix(m.cols(), 3, 74);
  auto rhs_t = data::GaussianMatrix(m.rows(), 3, 75);

  DenseMatrix dirty(5, 9, 123.456);  // Wrong shape AND poisoned contents.
  ASSERT_TRUE(cm.MultiplyVectorInto(v, &dirty).ok());
  EXPECT_TRUE(dirty == *cm.MultiplyVector(v));

  dirty = DenseMatrix(5, 9, -7.0);
  ASSERT_TRUE(cm.VectorMultiplyInto(u, &dirty).ok());
  EXPECT_TRUE(dirty == *cm.VectorMultiply(u));

  dirty = DenseMatrix(5, 9, 1e300);
  ASSERT_TRUE(cm.MultiplyMatrixInto(rhs_m, &dirty).ok());
  EXPECT_TRUE(dirty == *cm.MultiplyMatrix(rhs_m));

  dirty = DenseMatrix(5, 9, -1e300);
  ASSERT_TRUE(cm.TransposeMultiplyMatrixInto(rhs_t, &dirty).ok());
  EXPECT_TRUE(dirty == *cm.TransposeMultiplyMatrix(rhs_t));

  dirty = DenseMatrix(5, 9, 42.0);
  ASSERT_TRUE(cm.RowSquaredNormsInto(&dirty).ok());
  EXPECT_TRUE(dirty == cm.RowSquaredNorms());
}

TEST(ClaIntoTest, IntoVariantsRejectBadShapes) {
  auto cm = CompressedMatrix::Compress(ParityData(100, 76));
  DenseMatrix out;
  EXPECT_FALSE(cm.MultiplyVectorInto(DenseMatrix(3, 1), &out).ok());
  EXPECT_FALSE(cm.VectorMultiplyInto(DenseMatrix(3, 1), &out).ok());
  EXPECT_FALSE(cm.MultiplyMatrixInto(DenseMatrix(3, 2), &out).ok());
  EXPECT_FALSE(cm.TransposeMultiplyMatrixInto(DenseMatrix(3, 2), &out).ok());
}

TEST(ClaIntoTest, RepeatedIntoCallsReuseBuffers) {
  auto m = ParityData(600, 77);
  auto cm = CompressedMatrix::Compress(m);
  auto v = data::GaussianMatrix(m.cols(), 1, 78);
  DenseMatrix out;
  ASSERT_TRUE(cm.MultiplyVectorInto(v, &out).ok());  // First call may allocate.
  uint64_t allocs = Counter("cla.inplace.allocs");
  uint64_t reuses = Counter("cla.inplace.reuses");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cm.MultiplyVectorInto(v, &out).ok());
  }
  EXPECT_EQ(Counter("cla.inplace.allocs"), allocs);
  EXPECT_EQ(Counter("cla.inplace.reuses"), reuses + 5);
}

// A non-owning operand over a compressed matrix the test holds.
laopt::Operand Borrow(const CompressedMatrix& cm) {
  return laopt::Operand(
      std::shared_ptr<const CompressedMatrix>(std::shared_ptr<void>(), &cm));
}

// Steady-state training must not allocate: the number of buffer allocations
// of the operand GLM trainer on a compressed binding is independent of the
// epoch count.
TEST(ClaIntoTest, CompressedGlmEpochsAllocationFree) {
  auto m = ParityData(500, 81);
  auto cm = CompressedMatrix::Compress(m, CocodingOptions());
  DenseMatrix y(m.rows(), 1);
  Rng rng(82);
  for (size_t i = 0; i < m.rows(); ++i) y.At(i, 0) = rng.Normal();

  ml::GlmConfig config;
  config.learning_rate = 1e-3;
  config.tolerance = 0.0;  // Run every epoch.

  auto allocs_for = [&](size_t epochs) {
    config.max_epochs = epochs;
    uint64_t before = Counter("cla.inplace.allocs");
    auto model = ml::TrainGlmOnOperand(Borrow(cm), y, config);
    EXPECT_TRUE(model.ok());
    EXPECT_EQ(model->epochs_run, epochs);
    return Counter("cla.inplace.allocs") - before;
  };

  uint64_t short_run = allocs_for(3);
  uint64_t long_run = allocs_for(12);
  EXPECT_EQ(short_run, long_run);
  EXPECT_LE(long_run, 2u);  // scores + grad sized once.
}

TEST(ClaIntoTest, CompressedKMeansItersAllocationFree) {
  auto m = ParityData(400, 83);
  auto cm = CompressedMatrix::Compress(m);

  ml::KMeansConfig config;
  config.k = 3;
  config.seed = 84;
  config.tolerance = 0.0;

  auto allocs_for = [&](size_t iters) {
    config.max_iters = iters;
    uint64_t before = Counter("cla.inplace.allocs");
    auto model = ml::TrainKMeansOnOperand(Borrow(cm), config);
    EXPECT_TRUE(model.ok());
    return Counter("cla.inplace.allocs") - before;
  };

  uint64_t short_run = allocs_for(3);
  uint64_t long_run = allocs_for(12);
  EXPECT_EQ(short_run, long_run);
}

// --------------------------------------------------------------------------
// Pooled training parity
// --------------------------------------------------------------------------

TEST(ClaParallelTrainingTest, PooledGlmMatchesSerial) {
  auto m = ParityData(5000, 91);
  auto cm = CompressedMatrix::Compress(m, CocodingOptions());
  DenseMatrix y(m.rows(), 1);
  Rng rng(92);
  for (size_t i = 0; i < m.rows(); ++i) y.At(i, 0) = rng.Normal();

  ml::GlmConfig config;
  config.learning_rate = 1e-3;
  config.max_epochs = 5;
  config.tolerance = 0.0;

  ThreadPool pool(4);
  auto serial = ml::TrainGlmOnOperand(Borrow(cm), y, config);
  auto pooled = ml::TrainGlmOnOperand(Borrow(cm), y, config, &pool);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  ExpectMatricesNear(serial->weights, pooled->weights, 1e-9);
  ASSERT_EQ(serial->loss_history.size(), pooled->loss_history.size());
  for (size_t e = 0; e < serial->loss_history.size(); ++e) {
    EXPECT_NEAR(serial->loss_history[e], pooled->loss_history[e],
                1e-9 * (1.0 + std::fabs(serial->loss_history[e])));
  }
}

TEST(ClaParallelTrainingTest, PooledKMeansMatchesSerial) {
  auto m = ParityData(5000, 93);
  auto cm = CompressedMatrix::Compress(m);

  ml::KMeansConfig config;
  config.k = 4;
  config.max_iters = 10;
  config.seed = 94;

  ThreadPool pool(4);
  auto serial = ml::TrainKMeansOnOperand(Borrow(cm), config);
  auto pooled = ml::TrainKMeansOnOperand(Borrow(cm), config, &pool);
  ASSERT_TRUE(serial.ok() && pooled.ok());
  EXPECT_EQ(serial->labels, pooled->labels);
  ExpectMatricesNear(serial->centers, pooled->centers, 1e-9);
}

}  // namespace
}  // namespace dmml::cla
