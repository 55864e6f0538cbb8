#include "la/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dmml::la {

namespace {

// ---------------------------------------------------------------------------
// Tiling / scheduling constants
// ---------------------------------------------------------------------------

// GEMM micro-tile: kMr rows of C by kNr columns held in registers (4 x 8
// doubles = 8 AVX2 registers of accumulators; kNr doubles = one cache line).
constexpr size_t kMr = 4;
constexpr size_t kNr = 8;
// Packed-panel depth/width: a kKc x kNc B panel is 128 KiB, sized to sit in
// L2 while it is reused by every row block of the chunk.
constexpr size_t kKc = 128;
constexpr size_t kNc = 128;
// Square tile edge for the blocked transpose (32 x 32 doubles = 8 KiB).
constexpr size_t kTransposeTile = 32;
// Minimum FLOPs (or touched elements) a parallel chunk must carry before a
// kernel fans out — below this, pool submit latency beats the speedup and
// the kernel runs inline.
constexpr size_t kMinWorkPerChunk = size_t{1} << 15;
// Below this FLOP count GEMM skips blocking/packing entirely: the naive
// loop's lower constant wins on tiny operands.
constexpr size_t kSmallGemmFlops = size_t{1} << 15;

// Rows (or items) per parallel chunk so each chunk carries at least
// kMinWorkPerChunk work units.
size_t GrainFor(size_t work_per_item) {
  return std::max<size_t>(1, kMinWorkPerChunk / std::max<size_t>(1, work_per_item));
}

// Reshapes *out to r x c for a kernel that fully overwrites it, counting
// whether the existing allocation could be reused.
void EnsureOut(DenseMatrix* out, size_t r, size_t c) {
  if (out->Reshape(r, c)) {
    DMML_COUNTER_INC("la.inplace.reuses");
  } else {
    DMML_COUNTER_INC("la.inplace.allocs");
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMM
// ---------------------------------------------------------------------------

// Packs B(k0..k0+kc, j0..j0+nc) into kNr-wide slivers: sliver jb holds a
// kc x kNr column strip laid out row-major, zero-padded past the last valid
// column so the micro-kernel always runs a full-width inner loop.
void PackPanelB(const double* b, size_t ldb, size_t k0, size_t kc, size_t j0,
                size_t nc, double* out) {
  const size_t slivers = (nc + kNr - 1) / kNr;
  for (size_t jb = 0; jb < slivers; ++jb) {
    const size_t jbase = j0 + jb * kNr;
    const size_t nr = std::min(kNr, j0 + nc - jbase);
    double* dst = out + jb * kc * kNr;
    for (size_t kk = 0; kk < kc; ++kk) {
      const double* src = b + (k0 + kk) * ldb + jbase;
      for (size_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj];
      for (size_t jj = nr; jj < kNr; ++jj) dst[jj] = 0.0;
      dst += kNr;
    }
  }
}

// Computes the MR x nr tile C(i..i+MR, j..j+nr) (+)= A-rows * B-sliver with
// the accumulators held in registers. `a` points at A(i, k0) with leading
// dimension lda; `bp` is a packed kc x kNr sliver; `c` points at C(i, j)
// with leading dimension ldc. When `accumulate` is false the tile is
// overwritten, which is what lets reused (dirty) output buffers work.
// 4-lane double vector (GNU vector extension; the compiler legalizes it on
// any target, one ymm register with AVX). Explicit vectors rather than
// autovectorization because the accumulator tile must stay in registers
// across the k loop — GCC's vectorizer reloads a plain double array from the
// stack every iteration, which costs ~10x throughput on this kernel. Keep the
// natural 32-byte alignment: an aligned(8) variant makes GCC 12 bounce every
// LoadV4 through a stack buffer in 16-byte halves. Unaligned sources are
// still fine — LoadV4/StoreV4 go through memcpy, which the compiler lowers
// to single unaligned vector moves.
using V4 = double __attribute__((vector_size(32)));

inline V4 LoadV4(const double* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV4(double* p, V4 v) { __builtin_memcpy(p, &v, sizeof(v)); }

template <size_t MR>
void MicroKernel(size_t kc, const double* __restrict a, size_t lda,
                 const double* __restrict bp, double* __restrict c, size_t ldc,
                 size_t nr, bool accumulate) {
  V4 acc[MR][2] = {};  // MR x kNr accumulator tile: 2 vectors per row.
  for (size_t k = 0; k < kc; ++k) {
    const V4 b0 = LoadV4(bp + k * kNr);
    const V4 b1 = LoadV4(bp + k * kNr + 4);
    for (size_t r = 0; r < MR; ++r) {
      const double as = a[r * lda + k];
      const V4 av = {as, as, as, as};
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  if (nr == kNr) {
    for (size_t r = 0; r < MR; ++r) {
      double* crow = c + r * ldc;
      if (accumulate) {
        StoreV4(crow, LoadV4(crow) + acc[r][0]);
        StoreV4(crow + 4, LoadV4(crow + 4) + acc[r][1]);
      } else {
        StoreV4(crow, acc[r][0]);
        StoreV4(crow + 4, acc[r][1]);
      }
    }
  } else {
    for (size_t r = 0; r < MR; ++r) {
      double tmp[kNr];
      StoreV4(tmp, acc[r][0]);
      StoreV4(tmp + 4, acc[r][1]);
      double* crow = c + r * ldc;
      if (accumulate) {
        for (size_t j = 0; j < nr; ++j) crow[j] += tmp[j];
      } else {
        for (size_t j = 0; j < nr; ++j) crow[j] = tmp[j];
      }
    }
  }
}

void MicroKernelDispatch(size_t mr, size_t kc, const double* a, size_t lda,
                         const double* bp, double* c, size_t ldc, size_t nr,
                         bool accumulate) {
  switch (mr) {
    case 4:
      MicroKernel<4>(kc, a, lda, bp, c, ldc, nr, accumulate);
      break;
    case 3:
      MicroKernel<3>(kc, a, lda, bp, c, ldc, nr, accumulate);
      break;
    case 2:
      MicroKernel<2>(kc, a, lda, bp, c, ldc, nr, accumulate);
      break;
    default:
      MicroKernel<1>(kc, a, lda, bp, c, ldc, nr, accumulate);
      break;
  }
}

// Unblocked ikj loop (the seed kernel), writing rows [rbegin, rend) of C.
void NaiveGemmRows(const double* a, size_t lda, const double* b, size_t ldb,
                   double* c, size_t ldc, size_t rbegin, size_t rend,
                   size_t kdim, size_t n) {
  for (size_t i = rbegin; i < rend; ++i) {
    double* crow = c + i * ldc;
    std::fill(crow, crow + n, 0.0);
    const double* arow = a + i * lda;
    for (size_t p = 0; p < kdim; ++p) {
      const double aip = arow[p];
      if (aip == 0.0) continue;
      Axpy(aip, b + p * ldb, crow, n);
    }
  }
}

// Cache-blocked C = A * B over raw row-major buffers. Each parallel chunk
// owns a disjoint row range of C and packs B panels into a thread-local
// buffer (packing is redundant across chunks but O(k*n) against the chunk's
// O(m*k*n / chunks) compute).
void BlockedGemm(size_t m, size_t n, size_t kdim, const double* a, size_t lda,
                 const double* b, size_t ldb, double* c, size_t ldc,
                 ThreadPool* pool) {
  DMML_COUNTER_INC("la.gemm.blocked_calls");
  const size_t flops_per_row = 2 * kdim * n;
  ParallelForChunks(pool, m, GrainFor(flops_per_row),
                    [&](size_t, size_t ib, size_t ie) {
    thread_local std::vector<double> pack;
    for (size_t j0 = 0; j0 < n; j0 += kNc) {
      const size_t nc = std::min(kNc, n - j0);
      const size_t slivers = (nc + kNr - 1) / kNr;
      for (size_t k0 = 0; k0 < kdim; k0 += kKc) {
        const size_t kc = std::min(kKc, kdim - k0);
        pack.resize(slivers * kc * kNr);
        PackPanelB(b, ldb, k0, kc, j0, nc, pack.data());
        const bool accumulate = k0 != 0;
        for (size_t i = ib; i < ie; i += kMr) {
          const size_t mr = std::min(kMr, ie - i);
          const double* abase = a + i * lda + k0;
          for (size_t jb = 0; jb < slivers; ++jb) {
            const size_t nr = std::min(kNr, nc - jb * kNr);
            MicroKernelDispatch(mr, kc, abase, lda,
                                pack.data() + jb * kc * kNr,
                                c + i * ldc + j0 + jb * kNr, ldc, nr,
                                accumulate);
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Rank-update accumulators (Gram / TransposeMultiply / Gevm / ColumnSums)
// ---------------------------------------------------------------------------

// out (d x k, row-major, pre-zeroed) += X[x_offset + i]ᵀ M[i] over window
// rows i in [rbegin, rend), with the same 4-row bundling as the Gramian
// accumulator. `x_offset == 0` with a full range is the classic XᵀM.
void AccumulateTransposeMultiply(const DenseMatrix& x, size_t x_offset,
                                 const DenseMatrix& m, size_t rbegin,
                                 size_t rend, double* out) {
  const size_t d = x.cols(), k = m.cols();
  size_t i = rbegin;
  for (; i + 4 <= rend; i += 4) {
    const double* x0 = x.Row(x_offset + i);
    const double* x1 = x.Row(x_offset + i + 1);
    const double* x2 = x.Row(x_offset + i + 2);
    const double* x3 = x.Row(x_offset + i + 3);
    const double* m0 = m.Row(i);
    const double* m1 = m.Row(i + 1);
    const double* m2 = m.Row(i + 2);
    const double* m3 = m.Row(i + 3);
    for (size_t a = 0; a < d; ++a) {
      const double v0 = x0[a], v1 = x1[a], v2 = x2[a], v3 = x3[a];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      double* orow = out + a * k;
      for (size_t j = 0; j < k; ++j) {
        orow[j] += v0 * m0[j] + v1 * m1[j] + v2 * m2[j] + v3 * m3[j];
      }
    }
  }
  for (; i < rend; ++i) {
    const double* xr = x.Row(x_offset + i);
    const double* mr = m.Row(i);
    for (size_t a = 0; a < d; ++a) {
      if (xr[a] == 0.0) continue;
      Axpy(xr[a], mr, out + a * k, k);
    }
  }
}

// y (length n, pre-zeroed) += Σ_i x_i * A_i over rows [rbegin, rend); with
// `weights == nullptr` every x_i is 1 (the ColumnSums case).
void AccumulateWeightedRowSum(const DenseMatrix& a, const double* weights,
                              size_t rbegin, size_t rend, double* y) {
  const size_t n = a.cols();
  size_t i = rbegin;
  for (; i + 4 <= rend; i += 4) {
    const double w0 = weights ? weights[i] : 1.0;
    const double w1 = weights ? weights[i + 1] : 1.0;
    const double w2 = weights ? weights[i + 2] : 1.0;
    const double w3 = weights ? weights[i + 3] : 1.0;
    if (w0 == 0.0 && w1 == 0.0 && w2 == 0.0 && w3 == 0.0) continue;
    const double* a0 = a.Row(i);
    const double* a1 = a.Row(i + 1);
    const double* a2 = a.Row(i + 2);
    const double* a3 = a.Row(i + 3);
    for (size_t j = 0; j < n; ++j) {
      y[j] += w0 * a0[j] + w1 * a1[j] + w2 * a2[j] + w3 * a3[j];
    }
  }
  for (; i < rend; ++i) {
    const double w = weights ? weights[i] : 1.0;
    if (w == 0.0) continue;
    Axpy(w, a.Row(i), y, n);
  }
}

// Runs a row-partitioned reduction: each chunk accumulates into a private
// width-sized buffer, partials are then summed into `out` (pre-zeroed).
// `accumulate(chunk_begin, chunk_end, partial)` must only touch its partial.
template <typename AccumulateFn>
void ReduceRows(ThreadPool* pool, size_t rows, size_t grain, size_t width,
                double* out, const AccumulateFn& accumulate) {
  const size_t chunks = ParallelChunkCount(pool, rows, grain);
  if (chunks <= 1) {
    accumulate(size_t{0}, rows, out);
    return;
  }
  DMML_COUNTER_INC("la.parallel.reductions");
  std::vector<double> partials(chunks * width, 0.0);
  ParallelForChunks(pool, rows, grain,
                    [&](size_t chunk, size_t begin, size_t end) {
                      accumulate(begin, end, partials.data() + chunk * width);
                    });
  for (size_t c = 0; c < chunks; ++c) {
    Axpy(1.0, partials.data() + c * width, out, width);
  }
}

}  // namespace

// Rows are consumed four at a time so each loaded g-line amortizes four
// fused multiply-adds.
void AccumulateGramUpper(const DenseMatrix& x, size_t rbegin, size_t rend,
                         double* g) {
  const size_t d = x.cols();
  size_t i = rbegin;
  for (; i + 4 <= rend; i += 4) {
    const double* r0 = x.Row(i);
    const double* r1 = x.Row(i + 1);
    const double* r2 = x.Row(i + 2);
    const double* r3 = x.Row(i + 3);
    for (size_t a = 0; a < d; ++a) {
      const double v0 = r0[a], v1 = r1[a], v2 = r2[a], v3 = r3[a];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      double* grow = g + a * d;
      for (size_t bcol = a; bcol < d; ++bcol) {
        grow[bcol] += v0 * r0[bcol] + v1 * r1[bcol] + v2 * r2[bcol] + v3 * r3[bcol];
      }
    }
  }
  for (; i < rend; ++i) {
    const double* row = x.Row(i);
    for (size_t a = 0; a < d; ++a) {
      const double v = row[a];
      if (v == 0.0) continue;
      Axpy(v, row + a, g + a * d + a, d - a);
    }
  }
}

void MirrorUpperTriangle(DenseMatrix* g) {
  const size_t d = g->rows();
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) g->At(b, a) = g->At(a, b);
  }
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

void MultiplyInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out,
                  ThreadPool* pool) {
  DMML_CHECK_EQ(a.cols(), b.rows());
  DMML_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), kdim = a.cols(), n = b.cols();
  EnsureOut(out, m, n);
  if (m == 0 || n == 0) return;
  if (kdim == 0) {
    out->Fill(0.0);
    return;
  }
  if (2 * m * n * kdim < kSmallGemmFlops) {
    NaiveGemmRows(a.data(), kdim, b.data(), n, out->data(), n, 0, m, kdim, n);
    return;
  }
  BlockedGemm(m, n, kdim, a.data(), kdim, b.data(), n, out->data(), n, pool);
}

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b,
                     ThreadPool* pool) {
  DenseMatrix c;
  MultiplyInto(a, b, &c, pool);
  return c;
}

void MultiplyTransposeBInto(const DenseMatrix& a, const DenseMatrix& b,
                            DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK_EQ(a.cols(), b.cols());
  DMML_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), n = b.rows(), kdim = a.cols();
  EnsureOut(out, m, n);
  if (m == 0 || n == 0) return;
  ParallelForChunks(pool, m, GrainFor(2 * kdim * n),
                    [&](size_t, size_t ib, size_t ie) {
    for (size_t i = ib; i < ie; ++i) {
      const double* arow = a.Row(i);
      double* crow = out->Row(i);
      size_t j = 0;
      // Four B rows per pass: each loaded a-element feeds four dots.
      for (; j + 4 <= n; j += 4) {
        const double* b0 = b.Row(j);
        const double* b1 = b.Row(j + 1);
        const double* b2 = b.Row(j + 2);
        const double* b3 = b.Row(j + 3);
        double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
        for (size_t k = 0; k < kdim; ++k) {
          const double av = arow[k];
          d0 += av * b0[k];
          d1 += av * b1[k];
          d2 += av * b2[k];
          d3 += av * b3[k];
        }
        crow[j] = d0;
        crow[j + 1] = d1;
        crow[j + 2] = d2;
        crow[j + 3] = d3;
      }
      for (; j < n; ++j) crow[j] = Dot(arow, b.Row(j), kdim);
    }
  });
}

DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b,
                               ThreadPool* pool) {
  DenseMatrix c;
  MultiplyTransposeBInto(a, b, &c, pool);
  return c;
}

void GramInto(const DenseMatrix& x, DenseMatrix* out, ThreadPool* pool) {
  GramRangeInto(x, 0, x.rows(), out, pool);
}

DenseMatrix Gram(const DenseMatrix& x, ThreadPool* pool) {
  DenseMatrix g;
  GramInto(x, &g, pool);
  return g;
}

void TransposeMultiplyInto(const DenseMatrix& x, const DenseMatrix& m,
                           DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK_EQ(x.rows(), m.rows());
  DMML_CHECK(out != &x && out != &m);
  const size_t n = x.rows(), d = x.cols(), k = m.cols();
  EnsureOut(out, d, k);
  out->Fill(0.0);
  ReduceRows(pool, n, GrainFor(2 * d * k), d * k, out->data(),
             [&x, &m](size_t begin, size_t end, double* g) {
               AccumulateTransposeMultiply(x, 0, m, begin, end, g);
             });
}

DenseMatrix TransposeMultiply(const DenseMatrix& x, const DenseMatrix& m,
                              ThreadPool* pool) {
  DenseMatrix out;
  TransposeMultiplyInto(x, m, &out, pool);
  return out;
}

void MultiplyRangeInto(const DenseMatrix& a, size_t row_begin, size_t row_end,
                       const DenseMatrix& b, DenseMatrix* out,
                       ThreadPool* pool) {
  DMML_CHECK_EQ(a.cols(), b.rows());
  DMML_CHECK(out != &a && out != &b);
  DMML_CHECK(row_begin <= row_end && row_end <= a.rows());
  const size_t m = row_end - row_begin, kdim = a.cols(), n = b.cols();
  EnsureOut(out, m, n);
  if (m == 0 || n == 0) return;
  if (kdim == 0) {
    out->Fill(0.0);
    return;
  }
  const double* abase = a.data() + row_begin * kdim;
  // Width-independent small-input cutoff (unlike MultiplyInto's): the kernel
  // choice — and with it the per-column floating-point bracketing — must not
  // depend on n, so a k-wide shared-scan epoch stays bit-equal per column to
  // k separate 1-wide epochs over the same window.
  if (2 * m * kdim < kSmallGemmFlops) {
    NaiveGemmRows(abase, kdim, b.data(), n, out->data(), n, 0, m, kdim, n);
    return;
  }
  BlockedGemm(m, n, kdim, abase, kdim, b.data(), n, out->data(), n, pool);
}

void TransposeMultiplyRangeInto(const DenseMatrix& x, size_t row_begin,
                                size_t row_end, const DenseMatrix& m,
                                DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(row_begin <= row_end && row_end <= x.rows());
  DMML_CHECK_EQ(row_end - row_begin, m.rows());
  DMML_CHECK(out != &x && out != &m);
  const size_t range = row_end - row_begin, d = x.cols(), k = m.cols();
  EnsureOut(out, d, k);
  out->Fill(0.0);
  // Width-independent grain: chunk boundaries (summation bracketing of the
  // partial reduction) match across output widths.
  ReduceRows(pool, range, GrainFor(2 * d), d * k, out->data(),
             [&x, &m, row_begin](size_t begin, size_t end, double* g) {
               AccumulateTransposeMultiply(x, row_begin, m, begin, end, g);
             });
}

void GramRangeInto(const DenseMatrix& x, size_t row_begin, size_t row_end,
                   DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(row_begin <= row_end && row_end <= x.rows());
  DMML_CHECK(out != &x);
  const size_t d = x.cols();
  EnsureOut(out, d, d);
  out->Fill(0.0);
  DMML_COUNTER_INC("la.gram.calls");
  ReduceRows(pool, row_end - row_begin, GrainFor(d * d), d * d, out->data(),
             [&x, row_begin](size_t begin, size_t end, double* g) {
               AccumulateGramUpper(x, row_begin + begin, row_begin + end, g);
             });
  MirrorUpperTriangle(out);
}

void GemvInto(const DenseMatrix& a, const DenseMatrix& x, DenseMatrix* out,
              ThreadPool* pool) {
  DMML_CHECK(x.cols() == 1);
  DMML_CHECK_EQ(a.cols(), x.rows());
  DMML_CHECK(out != &a && out != &x);
  EnsureOut(out, a.rows(), 1);
  const double* xv = x.data();
  ParallelForChunks(pool, a.rows(), GrainFor(2 * a.cols()),
                    [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out->At(i, 0) = Dot(a.Row(i), xv, a.cols());
    }
  });
}

DenseMatrix Gemv(const DenseMatrix& a, const DenseMatrix& x, ThreadPool* pool) {
  DenseMatrix y;
  GemvInto(a, x, &y, pool);
  return y;
}

void GevmInto(const DenseMatrix& x, const DenseMatrix& a, DenseMatrix* out,
              ThreadPool* pool) {
  DMML_CHECK(x.cols() == 1);
  DMML_CHECK_EQ(a.rows(), x.rows());
  DMML_CHECK(out != &a && out != &x);
  EnsureOut(out, 1, a.cols());
  out->Fill(0.0);
  ReduceRows(pool, a.rows(), GrainFor(2 * a.cols()), a.cols(), out->data(),
             [&a, &x](size_t begin, size_t end, double* y) {
               AccumulateWeightedRowSum(a, x.data(), begin, end, y);
             });
}

DenseMatrix Gevm(const DenseMatrix& x, const DenseMatrix& a, ThreadPool* pool) {
  DenseMatrix y;
  GevmInto(x, a, &y, pool);
  return y;
}

void TransposeInto(const DenseMatrix& a, DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(out != &a);
  const size_t m = a.rows(), n = a.cols();
  EnsureOut(out, n, m);
  if (m == 0 || n == 0) return;
  // Chunks own disjoint output-row (input-column) ranges; tiles of
  // kTransposeTile² keep both the strided reads and contiguous writes within
  // a few cache lines.
  ParallelForChunks(pool, n, GrainFor(2 * m),
                    [&](size_t, size_t jb, size_t je) {
    for (size_t j0 = jb; j0 < je; j0 += kTransposeTile) {
      const size_t jlim = std::min(j0 + kTransposeTile, je);
      for (size_t i0 = 0; i0 < m; i0 += kTransposeTile) {
        const size_t ilim = std::min(i0 + kTransposeTile, m);
        for (size_t j = j0; j < jlim; ++j) {
          double* trow = out->Row(j);
          for (size_t i = i0; i < ilim; ++i) trow[i] = a.At(i, j);
        }
      }
    }
  });
}

DenseMatrix Transpose(const DenseMatrix& a, ThreadPool* pool) {
  DenseMatrix t;
  TransposeInto(a, &t, pool);
  return t;
}

namespace {
void ZipInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out,
             double (*op)(double, double)) {
  DMML_CHECK_EQ(a.rows(), b.rows());
  DMML_CHECK_EQ(a.cols(), b.cols());
  EnsureOut(out, a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = out->data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = op(pa[i], pb[i]);
}
}  // namespace

void AddInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out) {
  ZipInto(a, b, out, [](double x, double y) { return x + y; });
}

void SubtractInto(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* out) {
  ZipInto(a, b, out, [](double x, double y) { return x - y; });
}

void ElementwiseMultiplyInto(const DenseMatrix& a, const DenseMatrix& b,
                             DenseMatrix* out) {
  ZipInto(a, b, out, [](double x, double y) { return x * y; });
}

DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  AddInto(a, b, &c);
  return c;
}

DenseMatrix Subtract(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  SubtractInto(a, b, &c);
  return c;
}

DenseMatrix ElementwiseMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c;
  ElementwiseMultiplyInto(a, b, &c);
  return c;
}

void ScaleInto(const DenseMatrix& a, double alpha, DenseMatrix* out) {
  EnsureOut(out, a.rows(), a.cols());
  const double* pa = a.data();
  double* pc = out->data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = alpha * pa[i];
}

DenseMatrix Scale(const DenseMatrix& a, double alpha) {
  DenseMatrix c;
  ScaleInto(a, alpha, &c);
  return c;
}

void AddScalarInto(const DenseMatrix& a, double alpha, DenseMatrix* out) {
  EnsureOut(out, a.rows(), a.cols());
  const double* pa = a.data();
  double* pc = out->data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = pa[i] + alpha;
}

DenseMatrix AddScalar(const DenseMatrix& a, double alpha) {
  DenseMatrix c;
  AddScalarInto(a, alpha, &c);
  return c;
}

void MapInto(const DenseMatrix& a, const std::function<double(double)>& fn,
             DenseMatrix* out) {
  EnsureOut(out, a.rows(), a.cols());
  const double* pa = a.data();
  double* pc = out->data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = fn(pa[i]);
}

DenseMatrix Map(const DenseMatrix& a, const std::function<double(double)>& fn) {
  DenseMatrix c;
  MapInto(a, fn, &c);
  return c;
}

void Axpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AxpyInto(double alpha, const DenseMatrix& x, DenseMatrix* y) {
  DMML_CHECK_EQ(x.rows(), y->rows());
  DMML_CHECK_EQ(x.cols(), y->cols());
  Axpy(alpha, x.data(), y->data(), x.size());
}

double Dot(const double* x, const double* y, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double Dot(const DenseMatrix& x, const DenseMatrix& y) {
  DMML_CHECK(x.IsVector());
  DMML_CHECK(y.IsVector());
  DMML_CHECK_EQ(x.size(), y.size());
  return Dot(x.data(), y.data(), x.size());
}

namespace {
// Scalar reduction over the flat buffer with per-chunk partials.
template <typename Fn>
double ReduceScalar(const DenseMatrix& a, ThreadPool* pool, const Fn& fn) {
  const size_t n = a.size();
  const size_t chunks = ParallelChunkCount(pool, n, kMinWorkPerChunk);
  if (chunks <= 1) return fn(a.data(), a.data() + n);
  DMML_COUNTER_INC("la.parallel.reductions");
  std::vector<double> partials(chunks, 0.0);
  ParallelForChunks(pool, n, kMinWorkPerChunk,
                    [&](size_t chunk, size_t begin, size_t end) {
                      partials[chunk] = fn(a.data() + begin, a.data() + end);
                    });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}
}  // namespace

double Sum(const DenseMatrix& a, ThreadPool* pool) {
  return ReduceScalar(a, pool, [](const double* begin, const double* end) {
    double acc = 0.0;
    for (const double* p = begin; p < end; ++p) acc += *p;
    return acc;
  });
}

double FrobeniusNorm(const DenseMatrix& a, ThreadPool* pool) {
  return std::sqrt(
      ReduceScalar(a, pool, [](const double* begin, const double* end) {
        double acc = 0.0;
        for (const double* p = begin; p < end; ++p) acc += *p * *p;
        return acc;
      }));
}

void ColumnSumsInto(const DenseMatrix& a, DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(out != &a);
  EnsureOut(out, 1, a.cols());
  out->Fill(0.0);
  ReduceRows(pool, a.rows(), GrainFor(a.cols()), a.cols(), out->data(),
             [&a](size_t begin, size_t end, double* y) {
               AccumulateWeightedRowSum(a, nullptr, begin, end, y);
             });
}

DenseMatrix ColumnSums(const DenseMatrix& a, ThreadPool* pool) {
  DenseMatrix s;
  ColumnSumsInto(a, &s, pool);
  return s;
}

void RowSumsInto(const DenseMatrix& a, DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(out != &a);
  EnsureOut(out, a.rows(), 1);
  ParallelForChunks(pool, a.rows(), GrainFor(a.cols()),
                    [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double acc = 0.0;
      const double* row = a.Row(i);
      for (size_t j = 0; j < a.cols(); ++j) acc += row[j];
      out->At(i, 0) = acc;
    }
  });
}

DenseMatrix RowSums(const DenseMatrix& a, ThreadPool* pool) {
  DenseMatrix s;
  RowSumsInto(a, &s, pool);
  return s;
}

double RowSquaredDistance(const DenseMatrix& a, size_t r1, const DenseMatrix& b,
                          size_t r2) {
  DMML_CHECK_EQ(a.cols(), b.cols());
  const double* x = a.Row(r1);
  const double* y = b.Row(r2);
  double acc = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) {
    double d = x[j] - y[j];
    acc += d * d;
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Sparse kernels
// ---------------------------------------------------------------------------

namespace {
// Average nnz per row, used as the per-item work estimate for CSR kernels.
size_t SparseRowWork(const SparseMatrix& a) {
  return a.rows() ? std::max<size_t>(1, 2 * a.nnz() / a.rows()) : 1;
}
}  // namespace

void SparseGemvInto(const SparseMatrix& a, const DenseMatrix& x,
                    DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(x.cols() == 1);
  SparseMultiplyDenseRangeInto(a, 0, a.rows(), x, out, pool);
}

DenseMatrix SparseGemv(const SparseMatrix& a, const DenseMatrix& x,
                       ThreadPool* pool) {
  DenseMatrix y;
  SparseGemvInto(a, x, &y, pool);
  return y;
}

void SparseGevmInto(const DenseMatrix& x, const SparseMatrix& a,
                    DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(x.cols() == 1);
  SparseTransposeMultiplyRangeInto(a, 0, a.rows(), x, out, pool);
  out->Reshape(1, a.cols());  // Same contiguous values as the cols x 1 form.
}

DenseMatrix SparseGevm(const DenseMatrix& x, const SparseMatrix& a,
                       ThreadPool* pool) {
  DenseMatrix y;
  SparseGevmInto(x, a, &y, pool);
  return y;
}

void SparseMultiplyDenseInto(const SparseMatrix& a, const DenseMatrix& b,
                             DenseMatrix* out, ThreadPool* pool) {
  SparseMultiplyDenseRangeInto(a, 0, a.rows(), b, out, pool);
}

DenseMatrix SparseMultiplyDense(const SparseMatrix& a, const DenseMatrix& b,
                                ThreadPool* pool) {
  DenseMatrix c;
  SparseMultiplyDenseInto(a, b, &c, pool);
  return c;
}

void SparseMultiplyDenseRangeInto(const SparseMatrix& a, size_t row_begin,
                                  size_t row_end, const DenseMatrix& b,
                                  DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK_EQ(a.cols(), b.rows());
  DMML_CHECK(row_begin <= row_end && row_end <= a.rows());
  DMML_CHECK(out != &b);
  const size_t range = row_end - row_begin, k = b.cols();
  EnsureOut(out, range, k);
  DenseMatrix& c = *out;
  // Chunks own disjoint output rows, so the grain never affects results.
  const size_t grain = GrainFor(SparseRowWork(a) * k);
  if (k == 1) {
    // One right-hand column: a register dot product per row (gemv).
    const double* bv = b.data();
    ParallelForChunks(pool, range, grain, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const size_t src = row_begin + i;
        double acc = 0.0;
        for (size_t p = a.RowBegin(src); p < a.RowEnd(src); ++p) {
          acc += a.values()[p] * bv[a.col_idx()[p]];
        }
        c.At(i, 0) = acc;
      }
    });
    return;
  }
  c.Fill(0.0);
  ParallelForChunks(pool, range, grain, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double* crow = c.Row(i);
      const size_t src = row_begin + i;
      for (size_t p = a.RowBegin(src); p < a.RowEnd(src); ++p) {
        Axpy(a.values()[p], b.Row(a.col_idx()[p]), crow, k);
      }
    }
  });
}

void SparseTransposeMultiplyRangeInto(const SparseMatrix& a, size_t row_begin,
                                      size_t row_end, const DenseMatrix& m,
                                      DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(row_begin <= row_end && row_end <= a.rows());
  DMML_CHECK_EQ(row_end - row_begin, m.rows());
  DMML_CHECK(out != &m);
  const size_t range = row_end - row_begin, d = a.cols(), k = m.cols();
  EnsureOut(out, d, k);
  out->Fill(0.0);  // ReduceRows accumulates into a pre-zeroed output.
  const size_t grain = GrainFor(SparseRowWork(a));
  if (k == 1) {
    // One column: scatter each scalar of m over its row (gevm), skipping
    // zeros.
    const double* mv = m.data();
    ReduceRows(pool, range, grain, d, out->data(),
               [&a, mv, row_begin](size_t begin, size_t end, double* g) {
                 for (size_t i = begin; i < end; ++i) {
                   const double mi = mv[i];
                   if (mi == 0.0) continue;
                   const size_t src = row_begin + i;
                   for (size_t p = a.RowBegin(src); p < a.RowEnd(src); ++p) {
                     g[a.col_idx()[p]] += mi * a.values()[p];
                   }
                 }
               });
    return;
  }
  ReduceRows(pool, range, grain, d * k, out->data(),
             [&a, &m, row_begin, k](size_t begin, size_t end, double* g) {
               for (size_t i = begin; i < end; ++i) {
                 const double* mr = m.Row(i);
                 const size_t src = row_begin + i;
                 for (size_t p = a.RowBegin(src); p < a.RowEnd(src); ++p) {
                   Axpy(a.values()[p], mr, g + a.col_idx()[p] * k, k);
                 }
               }
             });
}

void SparseGramRangeInto(const SparseMatrix& s, size_t row_begin,
                         size_t row_end, DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(row_begin <= row_end && row_end <= s.rows());
  const size_t d = s.cols();
  EnsureOut(out, d, d);
  out->Fill(0.0);
  DMML_COUNTER_INC("la.gram.calls");
  // A row with m nonzeros adds m(m+1)/2 products to the upper triangle.
  const size_t avg = s.rows() ? s.nnz() / s.rows() + 1 : 1;
  ReduceRows(pool, row_end - row_begin, GrainFor(avg * avg), d * d, out->data(),
             [&s, row_begin, d](size_t begin, size_t end, double* g) {
               const uint32_t* cols = s.col_idx().data();
               const double* vals = s.values().data();
               for (size_t i = row_begin + begin; i < row_begin + end; ++i) {
                 const size_t stop = s.RowEnd(i);
                 // Column indices increase within a row, so (p, q ≥ p) lands
                 // on or above the diagonal.
                 for (size_t p = s.RowBegin(i); p < stop; ++p) {
                   double* grow = g + cols[p] * d;
                   const double v = vals[p];
                   for (size_t q = p; q < stop; ++q) grow[cols[q]] += v * vals[q];
                 }
               }
             });
  MirrorUpperTriangle(out);
}

double SparseSum(const SparseMatrix& a) {
  double acc = 0.0;
  for (double v : a.values()) acc += v;
  return acc;
}

void SparseRowSumsInto(const SparseMatrix& a, DenseMatrix* out) {
  EnsureOut(out, a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (size_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) acc += a.values()[k];
    out->At(r, 0) = acc;
  }
}

void SparseColumnSumsInto(const SparseMatrix& a, DenseMatrix* out) {
  EnsureOut(out, 1, a.cols());
  out->Fill(0.0);
  double* acc = out->data();
  for (size_t k = 0; k < a.nnz(); ++k) acc[a.col_idx()[k]] += a.values()[k];
}

void SparseRowSquaredNormsInto(const SparseMatrix& a, DenseMatrix* out) {
  EnsureOut(out, a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (size_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      acc += a.values()[k] * a.values()[k];
    }
    out->At(r, 0) = acc;
  }
}

SparseMatrix SparseTranspose(const SparseMatrix& a) {
  // Two-pass counting transpose (CSR -> CSC reinterpretation): count entries
  // per output row, prefix-sum into offsets, then scatter. Input rows are
  // walked in order, so each output row receives its columns already sorted.
  const size_t nnz = a.nnz();
  std::vector<size_t> row_ptr(a.cols() + 1, 0);
  for (size_t k = 0; k < nnz; ++k) row_ptr[a.col_idx()[k] + 1]++;
  for (size_t c = 0; c < a.cols(); ++c) row_ptr[c + 1] += row_ptr[c];

  std::vector<uint32_t> col_idx(nnz);
  std::vector<double> values(nnz);
  std::vector<size_t> next = row_ptr;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      const size_t slot = next[a.col_idx()[k]]++;
      col_idx[slot] = static_cast<uint32_t>(r);
      values[slot] = a.values()[k];
    }
  }
  return SparseMatrix::FromCsr(a.cols(), a.rows(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

// ---------------------------------------------------------------------------
// GLM residuals and loss
// ---------------------------------------------------------------------------

namespace {

using V4u = uint64_t __attribute__((vector_size(32)));

inline V4 Splat(double v) { return V4{v, v, v, v}; }

// Loads `lanes` (1 to 4) doubles; a short vector is padded with zeros, so a
// partial vector runs the same code as a full one.
inline V4 LoadLanes(const double* p, size_t lanes) {
  if (lanes == 4) return LoadV4(p);
  V4 v = Splat(0.0);
  for (size_t j = 0; j < lanes; ++j) v[j] = p[j];
  return v;
}

inline void StoreLanes(double* p, V4 v, size_t lanes) {
  if (lanes == 4) {
    StoreV4(p, v);
    return;
  }
  for (size_t j = 0; j < lanes; ++j) p[j] = v[j];
}

constexpr double kLn2Hi = 0x1.62e42feep-1;  // Trailing zeros: k·kLn2Hi is exact.
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// exp(x) for x ≤ 0: Cody–Waite reduction x = k·ln2 + r with |r| ≤ ln2/2,
// then exp(r) as its degree-13 Taylor polynomial (truncation error 6e-18
// relative). Within 1 ulp of libm; NaN gives NaN.
inline V4 ExpNonPositive(V4 x) {
  // exp rounds to 0 below −746. Clamping there (−Inf included) keeps k in
  // [−1076, 0]; a NaN fails the compare and stays NaN.
  x = x < -746.0 ? Splat(-746.0) : x;
  // Adding 1.5·2^52 rounds x/ln2 to the integer k held in the low mantissa
  // bits, so k is read from the bits: no float-to-int conversion.
  constexpr double kShifter = 0x1.8p52;
  const V4 t = x * 0x1.71547652b82fep0 + kShifter;
  const V4 k = t - kShifter;
  const V4 r = (x - k * kLn2Hi) - k * kLn2Lo;
  constexpr double kInvFactorial[] = {
      1.0,           1.0,            1.0 / 2,         1.0 / 6,
      1.0 / 24,      1.0 / 120,      1.0 / 720,       1.0 / 5040,
      1.0 / 40320,   1.0 / 362880,   1.0 / 3628800,   1.0 / 39916800,
      1.0 / 479001600, 1.0 / 6227020800.0};
  V4 p = Splat(kInvFactorial[13]);
  for (int n = 12; n >= 0; --n) p = p * r + kInvFactorial[n];
  // 2^k as 2^(k+600) · 2^−600: both factors are normal numbers, so a
  // subnormal result is rounded once, by the last multiply.
  const V4u kbits = std::bit_cast<V4u>(t) - std::bit_cast<V4u>(Splat(kShifter));
  const V4 scale = std::bit_cast<V4>((kbits + (1023 + 600)) << 52);
  return p * scale * 0x1p-600;
}

// log1p(z) for z in [0, 1], given u = 1 + z as rounded: fdlibm's log kernel
// on u plus the rounding term (z − (u − 1))/u. NaN gives NaN.
inline V4 Log1pGivenSum(V4 z, V4 u) {
  const V4 c = (z - (u - 1.0)) / u;
  // u = 2^k · (1 + f) with 1 + f in [√2/2, √2); u − 1 and u/2 − 1 are exact.
  const auto above_sqrt2 = u > 0x1.6a09e667f3bcdp0;
  const V4 k = above_sqrt2 ? Splat(1.0) : Splat(0.0);
  const V4 f = (above_sqrt2 ? u * 0.5 : u) - 1.0;
  const V4 hfsq = 0.5 * f * f;
  const V4 s = f / (2.0 + f);
  const V4 w = s * s;
  const V4 poly =
      w * (0x1.5555555555593p-1 +
           w * (0x1.999999997fa04p-2 +
                w * (0x1.2492494229359p-2 +
                     w * (0x1.c71c51d8e78afp-3 +
                          w * (0x1.7466496cb03dep-3 +
                               w * (0x1.39a09d078c69fp-3 +
                                    w * 0x1.2f112df3e5244p-3))))));
  return k * kLn2Hi - ((hfsq - (s * (hfsq + poly) + (k * kLn2Lo + c))) - f);
}

// One vector of cells: score s (intercept added) and label y in, residual
// and loss term out.
template <GlmFamily kFamily>
inline void GlmCells(V4 s, V4 y, V4* r, V4* loss) {
  if constexpr (kFamily == GlmFamily::kGaussian) {
    *r = s - y;
    *loss = 0.5 * *r * *r;
  } else {
    const V4 z = ExpNonPositive(s < 0.0 ? s : -s);
    const V4 u = 1.0 + z;
    *r = (s >= 0.0 ? Splat(1.0) : z) / u - y;
    const V4 m = y > 0.5 ? s : -s;
    *loss = (m < 0.0 ? -m : Splat(0.0)) + Log1pGivenSum(z, u);
  }
}

// A one-column block: the lanes are four consecutive rows, and the two sums
// stay in registers. They take the lanes one at a time, in row order.
template <GlmFamily kFamily>
void GlmResidualsOfColumn(const double* scores, size_t n, double intercept,
                          const double* y, double* resid, double* loss_sum,
                          double* resid_sum) {
  const V4 b = Splat(intercept);
  double loss = *loss_sum, bias = *resid_sum;
  for (size_t i = 0; i < n; i += 4) {
    const size_t lanes = std::min<size_t>(4, n - i);
    V4 r, l;
    GlmCells<kFamily>(LoadLanes(scores + i, lanes) + b, LoadLanes(y + i, lanes),
                      &r, &l);
    StoreLanes(resid + i, r, lanes);
    for (size_t j = 0; j < lanes; ++j) {
      loss += l[j];
      bias += r[j];
    }
  }
  *loss_sum = loss;
  *resid_sum = bias;
}

// A wider block, row by row: the lanes are four consecutive columns, and
// each lane is added to its column's sums on its own, as in the one-column
// loop, so a column's sums are the same chain of scalar additions.
template <GlmFamily kFamily>
void GlmResidualsOfRows(const DenseMatrix& scores, const double* intercepts,
                        const double* y, DenseMatrix* resid, double* loss_sums,
                        double* resid_sums) {
  const size_t k = scores.cols();
  for (size_t i = 0; i < scores.rows(); ++i) {
    const double* srow = scores.Row(i);
    double* rrow = resid->Row(i);
    const V4 yi = Splat(y[i]);
    for (size_t c = 0; c < k; c += 4) {
      const size_t lanes = std::min<size_t>(4, k - c);
      V4 r, l;
      GlmCells<kFamily>(
          LoadLanes(srow + c, lanes) + LoadLanes(intercepts + c, lanes), yi,
          &r, &l);
      StoreLanes(rrow + c, r, lanes);
      for (size_t j = 0; j < lanes; ++j) {
        loss_sums[c + j] += l[j];
        resid_sums[c + j] += r[j];
      }
    }
  }
}

}  // namespace

void GlmResidualsInto(const DenseMatrix& scores, const double* intercepts,
                      const double* y, GlmFamily family, DenseMatrix* resid,
                      double* loss_sums, double* resid_sums) {
  DMML_CHECK(resid->rows() == scores.rows() && resid->cols() == scores.cols());
  const bool gaussian = family == GlmFamily::kGaussian;
  if (scores.cols() == 1) {
    const auto run = gaussian ? GlmResidualsOfColumn<GlmFamily::kGaussian>
                              : GlmResidualsOfColumn<GlmFamily::kBinomial>;
    run(scores.data(), scores.rows(), intercepts[0], y, resid->data(),
        loss_sums, resid_sums);
  } else {
    const auto run = gaussian ? GlmResidualsOfRows<GlmFamily::kGaussian>
                              : GlmResidualsOfRows<GlmFamily::kBinomial>;
    run(scores, intercepts, y, resid, loss_sums, resid_sums);
  }
}

// ---------------------------------------------------------------------------
// Elementwise cell programs
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kCellBlock = 512;

// dst = op(x, y) over one block. An in-place dst (== x) gets its own loop,
// so the compiler's alias check only has to separate dst from y.
template <typename Op>
void CellBlock(double* dst, const double* x, const double* y, size_t len, Op op) {
  if (dst == x) {
    for (size_t j = 0; j < len; ++j) dst[j] = op(dst[j], y[j]);
  } else {
    for (size_t j = 0; j < len; ++j) dst[j] = op(x[j], y[j]);
  }
}

}  // namespace

size_t CellProgramDepth(const CellProgram& program) {
  size_t depth = 0;
  size_t max_depth = 0;
  for (const CellOp& op : program) {
    if (op.code == CellOp::kLoad) max_depth = std::max(max_depth, ++depth);
    if (op.code != CellOp::kLoad && op.code != CellOp::kScale) --depth;
  }
  return max_depth;
}

void CellProgramInto(const CellProgram& program,
                     const std::vector<const DenseMatrix*>& inputs,
                     DenseMatrix* out, ThreadPool* pool) {
  DMML_CHECK(!inputs.empty() && !program.empty());
  const size_t rows = inputs[0]->rows();
  const size_t cols = inputs[0]->cols();
  for (const DenseMatrix* in : inputs) {
    DMML_CHECK(in->rows() == rows && in->cols() == cols && in != out);
  }
  EnsureOut(out, rows, cols);
  const size_t depth = CellProgramDepth(program);
  double* out_data = out->data();
  ParallelForChunks(pool, out->size(), GrainFor(program.size()),
                    [&](size_t, size_t begin, size_t end) {
    // Stack level s of a block is scratch row s, or an input's cells when
    // the level holds a plain load; the last instruction writes into `out`.
    std::vector<double> scratch(depth * kCellBlock);
    std::vector<const double*> stack(depth);
    for (size_t b = begin; b < end; b += kCellBlock) {
      const size_t len = std::min(kCellBlock, end - b);
      size_t top = 0;
      for (size_t k = 0; k < program.size(); ++k) {
        const CellOp& op = program[k];
        if (op.code == CellOp::kLoad) {
          stack[top++] = inputs[op.input]->data() + b;
          continue;
        }
        if (op.code != CellOp::kScale) --top;
        const size_t pos = top - 1;  // The result's level (and x's).
        double* dst = k + 1 == program.size() ? out_data + b
                                              : scratch.data() + pos * kCellBlock;
        const double* x = stack[pos];
        const double* y = op.code == CellOp::kScale ? x : stack[top];
        const double alpha = op.alpha;
        switch (op.code) {
          case CellOp::kScale:
            CellBlock(dst, x, y, len, [alpha](double u, double) { return alpha * u; });
            break;
          case CellOp::kAdd:
            CellBlock(dst, x, y, len, [](double u, double v) { return u + v; });
            break;
          case CellOp::kSub:
            CellBlock(dst, x, y, len, [](double u, double v) { return u - v; });
            break;
          case CellOp::kMul:
            CellBlock(dst, x, y, len, [](double u, double v) { return u * v; });
            break;
          case CellOp::kLoad:
            break;
        }
        stack[pos] = dst;
      }
      if (program.back().code == CellOp::kLoad) {
        std::copy(stack[0], stack[0] + len, out_data + b);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Naive reference kernels
// ---------------------------------------------------------------------------

namespace reference {

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  DMML_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  DenseMatrix c(m, n);
  if (m == 0 || n == 0 || k == 0) return c;
  NaiveGemmRows(a.data(), k, b.data(), n, c.data(), n, 0, m, k, n);
  return c;
}

DenseMatrix Transpose(const DenseMatrix& a) {
  DenseMatrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.Row(i);
    for (size_t j = 0; j < a.cols(); ++j) t.At(j, i) = row[j];
  }
  return t;
}

DenseMatrix Gram(const DenseMatrix& x) {
  return reference::Multiply(reference::Transpose(x), x);
}

DenseMatrix TransposeMultiply(const DenseMatrix& x, const DenseMatrix& m) {
  return reference::Multiply(reference::Transpose(x), m);
}

DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b) {
  return reference::Multiply(a, reference::Transpose(b));
}

DenseMatrix Gevm(const DenseMatrix& x, const DenseMatrix& a) {
  DMML_CHECK(x.cols() == 1);
  DMML_CHECK_EQ(a.rows(), x.rows());
  DenseMatrix y(1, a.cols());
  double* yv = y.data();
  for (size_t i = 0; i < a.rows(); ++i) {
    const double xi = x.data()[i];
    if (xi == 0.0) continue;
    Axpy(xi, a.Row(i), yv, a.cols());
  }
  return y;
}

DenseMatrix ColumnSums(const DenseMatrix& a) {
  DenseMatrix s(1, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) Axpy(1.0, a.Row(i), s.data(), a.cols());
  return s;
}

double Sum(const DenseMatrix& a) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a.data()[i];
  return acc;
}

double FrobeniusNorm(const DenseMatrix& a) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * a.data()[i];
  return std::sqrt(acc);
}

DenseMatrix SparseGevm(const DenseMatrix& x, const SparseMatrix& a) {
  DMML_CHECK(x.cols() == 1);
  DMML_CHECK_EQ(a.rows(), x.rows());
  DenseMatrix y(1, a.cols());
  double* yv = y.data();
  for (size_t i = 0; i < a.rows(); ++i) {
    const double xi = x.data()[i];
    if (xi == 0.0) continue;
    for (size_t k = a.RowBegin(i); k < a.RowEnd(i); ++k) {
      yv[a.col_idx()[k]] += xi * a.values()[k];
    }
  }
  return y;
}

SparseMatrix SparseTranspose(const SparseMatrix& a) {
  std::vector<Triplet> triplets;
  triplets.reserve(a.nnz());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      triplets.push_back({a.col_idx()[k], r, a.values()[k]});
    }
  }
  return SparseMatrix::FromTriplets(a.cols(), a.rows(), std::move(triplets));
}

}  // namespace reference

}  // namespace dmml::la
