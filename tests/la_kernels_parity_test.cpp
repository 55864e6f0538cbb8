// Parity tests: the blocked/parallel kernel engine vs the naive reference
// kernels, across adversarial shapes, serial and pooled. Also pins down the
// allocation behaviour of the Into variants and the BufferedExecutor's
// steady state (zero matrix allocations on repeated-shape programs), and
// the GLM residual kernel's cells against the libm formulas they replace.
//
// This suite is the sanitizer target for the kernel engine: it must stay
// green under -DDMML_SANITIZE=thread and -DDMML_SANITIZE=address,undefined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "la/kernels.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dmml::la {
namespace {

using dmml::Rng;
using dmml::ThreadPool;

DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.0, 1.0);
  return m;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, double density, Rng* rng) {
  std::vector<Triplet> triplets;
  const size_t target = static_cast<size_t>(
      density * static_cast<double>(rows) * static_cast<double>(cols));
  for (size_t e = 0; e < target; ++e) {
    triplets.push_back({rng->UniformInt(rows), rng->UniformInt(cols),
                        rng->Uniform(-1.0, 1.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

// Blocked kernels reassociate k-length dot products, so tolerance scales
// with k; the +16 keeps tiny shapes from demanding exact equality.
double TolFor(size_t k) { return 1e-9 * static_cast<double>(k + 16); }

// One (m, k, n) shape through every dense + sparse kernel pair.
void ExpectParity(size_t m, size_t k, size_t n, ThreadPool* pool, Rng* rng) {
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
               std::to_string(n) + (pool != nullptr ? " pooled" : " serial"));
  const double tol = TolFor(k);
  const double red_tol = tol * static_cast<double>(std::max<size_t>(n, 1));
  DenseMatrix a = RandomMatrix(m, k, rng);
  DenseMatrix b = RandomMatrix(k, n, rng);
  DenseMatrix bt = RandomMatrix(n, k, rng);
  DenseMatrix w = RandomMatrix(k, n, rng);
  DenseMatrix xv = RandomMatrix(k, 1, rng);

  EXPECT_LE(MaxAbsDiff(Multiply(a, b, pool), reference::Multiply(a, b)), tol);
  EXPECT_EQ(MaxAbsDiff(Transpose(a, pool), reference::Transpose(a)), 0.0);
  EXPECT_LE(MaxAbsDiff(Gram(b, pool), reference::Gram(b)), tol);
  EXPECT_LE(MaxAbsDiff(TransposeMultiply(b, w, pool),
                       reference::TransposeMultiply(b, w)),
            tol);
  EXPECT_LE(MaxAbsDiff(MultiplyTransposeB(a, bt, pool),
                       reference::MultiplyTransposeB(a, bt)),
            tol);
  EXPECT_LE(MaxAbsDiff(Gevm(xv, b, pool), reference::Gevm(xv, b)), tol);
  EXPECT_LE(MaxAbsDiff(ColumnSums(b, pool), reference::ColumnSums(b)), tol);
  EXPECT_NEAR(Sum(b, pool), reference::Sum(b), red_tol);
  EXPECT_NEAR(FrobeniusNorm(b, pool), reference::FrobeniusNorm(b), red_tol);

  // Into forms must fully overwrite a dirty, differently-shaped buffer.
  DenseMatrix out(m + 3, n + 5);
  out.Fill(7.25);
  MultiplyInto(a, b, &out, pool);
  EXPECT_LE(MaxAbsDiff(out, reference::Multiply(a, b)), tol);

  SparseMatrix sp = RandomSparse(k, n, 0.05, rng);
  EXPECT_LE(
      MaxAbsDiff(SparseGevm(xv, sp, pool), reference::SparseGevm(xv, sp)), tol);
  EXPECT_TRUE(SparseTranspose(sp) == reference::SparseTranspose(sp));
}

TEST(KernelParityTest, AdversarialShapesSerialAndPooled) {
  // Tile multiples, off-by-one around every tile edge, degenerate vectors
  // and zero dimensions. Each shape runs serial and through a 4-thread pool.
  const size_t shapes[][3] = {
      {64, 64, 64},  {65, 129, 67}, {4, 8, 128},  {3, 7, 5},
      {1, 130, 1},   {130, 1, 130}, {1, 1, 1},    {0, 5, 5},
      {5, 0, 5},     {5, 5, 0},     {33, 257, 31}, {9, 128, 128},
  };
  ThreadPool pool(4);
  Rng rng(1234);
  for (const auto& s : shapes) {
    ExpectParity(s[0], s[1], s[2], nullptr, &rng);
    ExpectParity(s[0], s[1], s[2], &pool, &rng);
  }
}

TEST(KernelParityTest, SparseTransposeEdgeCases) {
  Rng rng(99);
  SparseMatrix nearly_empty = RandomSparse(200, 300, 0.0005, &rng);
  EXPECT_TRUE(SparseTranspose(nearly_empty) ==
              reference::SparseTranspose(nearly_empty));
  SparseMatrix empty = SparseMatrix::FromTriplets(40, 60, {});
  EXPECT_TRUE(SparseTranspose(empty) == reference::SparseTranspose(empty));
  // Round trip: (Aᵀ)ᵀ == A.
  SparseMatrix dense_ish = RandomSparse(37, 53, 0.3, &rng);
  EXPECT_TRUE(SparseTranspose(SparseTranspose(dense_ish)) == dense_ish);
}

TEST(KernelParityTest, GevmUsesPoolAndMatchesSerial) {
  // Regression: Gevm used to silently ignore its pool argument. The pooled
  // path reduces per-chunk partials, so check it against both the serial
  // blocked path and the reference.
  Rng rng(7);
  DenseMatrix x = RandomMatrix(4096, 1, &rng);
  DenseMatrix a = RandomMatrix(4096, 17, &rng);
  ThreadPool pool(4);
  const uint64_t reductions_before =
      obs::MetricsRegistry::Global().GetCounter("la.parallel.reductions")->Value();
  DenseMatrix pooled = Gevm(x, a, &pool);
  EXPECT_GT(
      obs::MetricsRegistry::Global().GetCounter("la.parallel.reductions")->Value(),
      reductions_before);
  EXPECT_LE(MaxAbsDiff(pooled, Gevm(x, a, nullptr)), TolFor(4096));
  EXPECT_LE(MaxAbsDiff(pooled, reference::Gevm(x, a)), TolFor(4096));
}

// Windowed Grams against the naive Gram of the sliced rows, serially and on
// a 4-worker pool: empty, one-row, last-row, whole and interior windows, and
// one that crosses row 2048. The CSR input has empty rows.
TEST(KernelParityTest, WindowedGramsMatchReferenceOfSlicedRows) {
  Rng rng(606);
  const size_t n = 2100, d = 7;
  const DenseMatrix x = RandomMatrix(n, d, &rng);
  const SparseMatrix s = RandomSparse(n, d, 0.15, &rng);
  const DenseMatrix s_dense = s.ToDense();
  size_t empty_rows = 0;
  for (size_t r = 0; r < n; ++r) empty_rows += s.RowBegin(r) == s.RowEnd(r);
  ASSERT_GT(empty_rows, 0u) << "the CSR input must have empty rows";

  ThreadPool pool(4);
  const std::pair<size_t, size_t> windows[] = {
      {0, 0}, {0, 1}, {n - 1, n}, {0, n}, {17, 33}, {2000, 2100}};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const auto& [b, e] : windows) {
      SCOPED_TRACE(std::string(p ? "pool" : "serial") + " window [" +
                   std::to_string(b) + ", " + std::to_string(e) + ")");
      DenseMatrix dense_out, sparse_out;
      GramRangeInto(x, b, e, &dense_out, p);
      SparseGramRangeInto(s, b, e, &sparse_out, p);
      const DenseMatrix want = reference::Gram(x.SliceRows(b, e));
      const DenseMatrix want_s = reference::Gram(s_dense.SliceRows(b, e));
      const double scale = 1.0 + static_cast<double>(e - b);
      EXPECT_LE(MaxAbsDiff(dense_out, want), 1e-13 * scale);
      EXPECT_LE(MaxAbsDiff(sparse_out, want_s), 1e-13 * scale);
      for (size_t a = 0; a < d; ++a) {
        for (size_t c = 0; c < a; ++c) {
          EXPECT_EQ(dense_out.At(a, c), dense_out.At(c, a));
          EXPECT_EQ(sparse_out.At(a, c), sparse_out.At(c, a));
        }
      }
    }
  }
  // GramInto is the [0, n) window, bit for bit.
  DenseMatrix whole, window;
  GramInto(x, &whole, &pool);
  GramRangeInto(x, 0, n, &window, &pool);
  EXPECT_EQ(MaxAbsDiff(whole, window), 0.0);
}

TEST(KernelParityTest, IntoVariantsReuseFittingBuffers) {
  Rng rng(11);
  DenseMatrix a = RandomMatrix(40, 30, &rng);
  DenseMatrix b = RandomMatrix(30, 20, &rng);
  DenseMatrix out;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  MultiplyInto(a, b, &out);  // First call sizes the buffer.
  const uint64_t allocs = reg.GetCounter("la.inplace.allocs")->Value();
  const uint64_t reuses = reg.GetCounter("la.inplace.reuses")->Value();
  for (int i = 0; i < 5; ++i) MultiplyInto(a, b, &out);
  EXPECT_EQ(reg.GetCounter("la.inplace.allocs")->Value(), allocs)
      << "repeated same-shape MultiplyInto must not allocate";
  EXPECT_EQ(reg.GetCounter("la.inplace.reuses")->Value(), reuses + 5);
}

TEST(BufferedExecutorTest, ZeroAllocationsInSteadyState) {
  Rng rng(21);
  auto ma = std::make_shared<DenseMatrix>(RandomMatrix(48, 36, &rng));
  auto mb = std::make_shared<DenseMatrix>(RandomMatrix(36, 24, &rng));
  using laopt::ExprNode;
  auto a = *ExprNode::Input(ma, "A");
  auto b = *ExprNode::Input(mb, "B");
  auto ab = *ExprNode::MatMul(a, b);                     // A*B
  auto expr = *ExprNode::Add(ab, *ExprNode::ScalarMul(2.0, ab));

  laopt::BufferedExecutor exec;
  auto first = exec.Run(expr);
  ASSERT_TRUE(first.ok());
  DenseMatrix want = **first;  // Copy before the buffers are rewritten.

  // Steady state: same program, same shapes — the executor's retained slots
  // and the Into kernels' Reshape reuse must make further runs allocation
  // free, observable as a frozen la.inplace.allocs counter.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t allocs = reg.GetCounter("la.inplace.allocs")->Value();
  const uint64_t reuses = reg.GetCounter("la.inplace.reuses")->Value();
  for (int i = 0; i < 10; ++i) {
    laopt::ExecStats stats;
    auto again = exec.Run(expr, &stats);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(MaxAbsDiff(**again, want), 0.0);
    EXPECT_EQ(stats.memo_hits, 1u);  // Shared A*B evaluated once per run.
  }
  EXPECT_EQ(reg.GetCounter("la.inplace.allocs")->Value(), allocs)
      << "steady-state BufferedExecutor::Run must not allocate matrices";
  EXPECT_GT(reg.GetCounter("la.inplace.reuses")->Value(), reuses);
  EXPECT_EQ(exec.num_slots(), 5u);  // A, B, A*B, 2*(A*B) and the root sum.

  // Rebinding to new shapes is allowed — buffers regrow once, then freeze.
  exec.Clear();
  EXPECT_EQ(exec.num_slots(), 0u);
}

// Distance in units in the last place; 0 when both are NaN or equal.
uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : UINT64_MAX;
  }
  if (a == b) return 0;  // Also +0 against -0.
  auto ordered = [](double v) {
    int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits < 0 ? -(bits & INT64_MAX) : bits;
  };
  const int64_t ia = ordered(a), ib = ordered(b);
  return ia > ib ? static_cast<uint64_t>(ia - ib) : static_cast<uint64_t>(ib - ia);
}

// The scalar formulas the kernel replaced: GlmInverseLink's sigmoid and the
// stable log loss, on std::exp and std::log1p.
double ScalarSigmoid(double s) {
  if (s >= 0) return 1.0 / (1.0 + std::exp(-s));
  const double z = std::exp(s);
  return z / (1.0 + z);
}

double ScalarLogLoss(double s, double y) {
  const double m = (y > 0.5 ? 1.0 : -1.0) * s;
  return m > 0 ? std::log1p(std::exp(-m)) : -m + std::log1p(std::exp(m));
}

// Scores covering every regime of exp(−|s|): signed zeros, subnormals, the
// polynomial's whole range, the subnormal and underflowed results past
// |s| = 708 and 745, infinities and NaN.
std::vector<double> SweepScores() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> s = {0.0,     -0.0,    inf,    -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           -std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::max(),
                           745.1332191019411, -745.1332191019411, 745.2,
                           -745.2,  746.0,   -746.0, 1e4,    -1e4};
  for (double v = 1e-320; v < 1e3; v *= 1.01) {
    s.push_back(v);
    s.push_back(-v);
  }
  for (size_t i = 0; i <= 600000; ++i) {
    s.push_back(-760.0 + 1520.0 * static_cast<double>(i) / 600000.0);
  }
  Rng rng(5);
  for (size_t i = 0; i < 200000; ++i) s.push_back(rng.Uniform(-40.0, 40.0));
  return s;
}

TEST(GlmResidualKernelTest, BinomialCellsWithinTwoUlpOfLibm) {
  const std::vector<double> s = SweepScores();
  const size_t n = s.size();
  // One row of n columns: every column's sums receive exactly its own cell.
  DenseMatrix scores(1, n);
  std::copy(s.begin(), s.end(), scores.data());
  const std::vector<double> zero_intercepts(n, 0.0);
  uint64_t worst_sigma = 0, worst_loss = 0;
  for (double y : {0.0, 1.0}) {
    SCOPED_TRACE("label " + std::to_string(y));
    DenseMatrix resid(1, n);
    std::vector<double> loss(n, 0.0), bias(n, 0.0);
    GlmResidualsInto(scores, zero_intercepts.data(), &y, GlmFamily::kBinomial,
                     &resid, loss.data(), bias.data());
    for (size_t c = 0; c < n; ++c) {
      // At label 0 the residual is σ itself. NaN must give NaN, and the
      // infinities must saturate exactly.
      if (y == 0.0) {
        const uint64_t ds = UlpDistance(resid.At(0, c), ScalarSigmoid(s[c]));
        EXPECT_LE(ds, 2u) << "sigma at s = " << s[c];
        worst_sigma = std::max(worst_sigma, ds);
      }
      const uint64_t dl = UlpDistance(loss[c], ScalarLogLoss(s[c], y));
      EXPECT_LE(dl, 2u) << "loss at s = " << s[c];
      worst_loss = std::max(worst_loss, dl);
      EXPECT_EQ(UlpDistance(bias[c], resid.At(0, c)), 0u) << "s = " << s[c];
    }
  }
  std::printf("worst sigma %llu ulp, worst loss %llu ulp over %zu scores\n",
              static_cast<unsigned long long>(worst_sigma),
              static_cast<unsigned long long>(worst_loss), n);
}

TEST(GlmResidualKernelTest, GaussianCellsAreExact) {
  Rng rng(6);
  DenseMatrix scores = RandomMatrix(7, 5, &rng);
  DenseMatrix y = RandomMatrix(7, 1, &rng);
  const std::vector<double> intercepts = {0.5, -1.0, 0.0, 2.0, 0.25};
  DenseMatrix resid(7, 5);
  std::vector<double> loss(5, 0.0), bias(5, 0.0);
  GlmResidualsInto(scores, intercepts.data(), y.data(), GlmFamily::kGaussian,
                   &resid, loss.data(), bias.data());
  for (size_t c = 0; c < 5; ++c) {
    double l = 0, b = 0;
    for (size_t i = 0; i < 7; ++i) {
      const double r = scores.At(i, c) + intercepts[c] - y.At(i, 0);
      EXPECT_EQ(resid.At(i, c), r);
      l += 0.5 * r * r;
      b += r;
    }
    EXPECT_NEAR(loss[c], l, 1e-15);
    EXPECT_EQ(bias[c], b);
  }
}

TEST(GlmResidualKernelTest, ColumnsAreBitEqualToWidthOneAtRaggedShapes) {
  // Ragged rows and widths leave partial vectors on both loop shapes; each
  // column of the wide block must match the same column run alone, also
  // when residuals overwrite the scores and when sums chain over windows.
  Rng rng(7);
  for (GlmFamily family : {GlmFamily::kGaussian, GlmFamily::kBinomial}) {
    for (size_t n : {1u, 3u, 5u, 101u}) {
      for (size_t k : {2u, 3u, 5u, 9u}) {
        SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(k));
        DenseMatrix scores = RandomMatrix(n, k, &rng);
        for (size_t i = 0; i < scores.size(); ++i) scores.data()[i] *= 8.0;
        std::vector<double> y(n), intercepts(k);
        for (double& v : y) v = rng.Uniform() < 0.5 ? 0.0 : 1.0;
        for (double& v : intercepts) v = rng.Uniform(-1.0, 1.0);
        std::vector<double> loss(k, 0.25), bias(k, -0.5);
        DenseMatrix wide = scores;
        GlmResidualsInto(wide, intercepts.data(), y.data(), family, &wide,
                         loss.data(), bias.data());
        for (size_t c = 0; c < k; ++c) {
          DenseMatrix col = scores.SliceCols(c, c + 1);
          DenseMatrix resid(n, 1);
          double l = 0.25, b = -0.5;
          GlmResidualsInto(col, &intercepts[c], y.data(), family, &resid, &l, &b);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(wide.At(i, c), resid.At(i, 0)) << "row " << i;
          }
          EXPECT_EQ(loss[c], l) << "column " << c;
          EXPECT_EQ(bias[c], b) << "column " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmml::la
