#include "factorized/factorized_gramian.h"

#include <algorithm>
#include <unordered_map>

#include "la/kernels.h"
#include "la/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dmml::factorized {

using la::DenseMatrix;

DenseMatrix FactorizedGramian(const NormalizedMatrix& t) {
  return FactorizedGramian(t, 0, t.rows());
}

DenseMatrix FactorizedGramian(const NormalizedMatrix& t, size_t row_begin,
                              size_t row_end) {
  DMML_CHECK(row_begin <= row_end && row_end <= t.rows());
  DMML_TRACE_SPAN("factorized.gramian");
  const size_t n = row_end - row_begin;
  const auto& entity = t.entity_features();
  const size_t ds = entity.cols();
  const auto& tables = t.tables();
  const size_t d = t.cols();
  DenseMatrix g(d, d);

  // Per-table column offsets within T.
  std::vector<size_t> offsets(tables.size());
  {
    size_t off = ds;
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      offsets[ti] = off;
      off += tables[ti].features.cols();
    }
  }

  // Block XS[b:e)ᵀXS[b:e) via the windowed SYRK kernel.
  if (ds > 0) {
    DenseMatrix gs;
    la::GramRangeInto(entity, row_begin, row_end, &gs);
    for (size_t a = 0; a < ds; ++a) {
      std::copy(gs.Row(a), gs.Row(a) + ds, g.Row(a));
    }
  }

  for (size_t ti = 0; ti < tables.size(); ++ti) {
    const auto& tab = tables[ti];
    const size_t nr = tab.features.rows();
    const size_t dr = tab.features.cols();
    const size_t off = offsets[ti];

    // fk histogram over the window: counts[r] = |{i : fk[i] = r}| (KᵀK's
    // diagonal).
    std::vector<double> counts(nr, 0.0);
    for (size_t i = row_begin; i < row_end; ++i) counts[tab.fk[i]] += 1.0;

    // Block XSᵀ(K R): group-accumulate XS rows by fk (nR x dS), then fold
    // against XR.
    if (ds > 0) {
      DenseMatrix grouped(nr, ds);
      for (size_t i = row_begin; i < row_end; ++i) {
        la::Axpy(1.0, entity.Row(i), grouped.Row(tab.fk[i]), ds);
      }
      for (size_t r = 0; r < nr; ++r) {
        const double* gs = grouped.Row(r);
        const double* xr = tab.features.Row(r);
        for (size_t a = 0; a < ds; ++a) {
          if (gs[a] == 0.0) continue;
          la::Axpy(gs[a], xr, g.Row(a) + off, dr);
        }
      }
    }

    // Block RᵀKᵀKR = Rᵀ diag(counts) R.
    for (size_t r = 0; r < nr; ++r) {
      if (counts[r] == 0.0) continue;
      const double* xr = tab.features.Row(r);
      for (size_t a = 0; a < dr; ++a) {
        double scaled = counts[r] * xr[a];
        if (scaled == 0.0) continue;
        la::Axpy(scaled, xr, g.Row(off + a) + off, dr);
      }
    }

    // Cross-table blocks R_sᵀK_sᵀK_t R_t for s < t: accumulate the sparse
    // co-occurrence counts C[r_s][r_t], then fold both dictionaries.
    for (size_t si = 0; si < ti; ++si) {
      const auto& stab = tables[si];
      const size_t soff = offsets[si];
      const size_t sdr = stab.features.cols();
      std::unordered_map<uint64_t, double> cooc;
      cooc.reserve(n);
      for (size_t i = row_begin; i < row_end; ++i) {
        uint64_t key = (static_cast<uint64_t>(stab.fk[i]) << 32) | tab.fk[i];
        cooc[key] += 1.0;
      }
      for (const auto& [key, count] : cooc) {
        uint32_t rs = static_cast<uint32_t>(key >> 32);
        uint32_t rt = static_cast<uint32_t>(key & 0xffffffffu);
        const double* xs_row = stab.features.Row(rs);
        const double* xt_row = tab.features.Row(rt);
        for (size_t a = 0; a < sdr; ++a) {
          double scaled = count * xs_row[a];
          if (scaled == 0.0) continue;
          la::Axpy(scaled, xt_row, g.Row(soff + a) + off, dr);
        }
      }
    }
  }

  la::MirrorUpperTriangle(&g);

  // Materialized TᵀT is 2·n·d²; the factorized blocks touch each attribute
  // row once, so the gap is the redundancy the rewrite avoided.
  {
    double materialized =
        2.0 * static_cast<double>(n) * static_cast<double>(d) * static_cast<double>(d);
    double factorized = 2.0 * static_cast<double>(n) * static_cast<double>(ds) *
                        static_cast<double>(ds);
    for (const auto& tab : tables) {
      double nr = static_cast<double>(tab.features.rows());
      double dr = static_cast<double>(tab.features.cols());
      factorized += 2.0 * (static_cast<double>(n) * static_cast<double>(ds) +
                           nr * static_cast<double>(ds) * dr + nr * dr * dr);
    }
    if (materialized > factorized) {
      DMML_COUNTER_ADD("factorized.flops_avoided",
                       static_cast<uint64_t>(materialized - factorized));
    }
  }
  return g;
}

DenseMatrix FactorizedColumnSums(const NormalizedMatrix& t) {
  const size_t n = t.rows();
  const auto& entity = t.entity_features();
  const size_t ds = entity.cols();
  DenseMatrix sums(t.cols(), 1);
  for (size_t i = 0; i < n; ++i) {
    const double* xs = entity.Row(i);
    for (size_t j = 0; j < ds; ++j) sums.At(j, 0) += xs[j];
  }
  size_t off = ds;
  for (const auto& tab : t.tables()) {
    const size_t nr = tab.features.rows();
    const size_t dr = tab.features.cols();
    std::vector<double> counts(nr, 0.0);
    for (size_t i = 0; i < n; ++i) counts[tab.fk[i]] += 1.0;
    for (size_t r = 0; r < nr; ++r) {
      if (counts[r] == 0.0) continue;
      la::Axpy(counts[r], tab.features.Row(r), &sums.At(off, 0), dr);
    }
    off += dr;
  }
  return sums;
}

}  // namespace dmml::factorized
