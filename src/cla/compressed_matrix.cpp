#include "cla/compressed_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cla/ddc_group.h"
#include "cla/ole_group.h"
#include "cla/rle_group.h"
#include "cla/uncompressed_group.h"
#include "la/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dmml::cla {

using la::DenseMatrix;

ColumnStats CompressedMatrix::AnalyzeColumn(const DenseMatrix& dense, size_t col) {
  const size_t n = dense.rows();
  ColumnStats stats;
  std::unordered_set<double> distinct;
  size_t i = 0;
  while (i < n) {
    double v = dense.At(i, col);
    distinct.insert(v);
    size_t j = i;
    while (j + 1 < n && dense.At(j + 1, col) == v) ++j;
    if (v != 0.0) {
      stats.num_runs++;
      stats.num_nonzero += j - i + 1;
    }
    i = j + 1;
  }
  stats.cardinality = distinct.size();
  stats.uc_size = n * sizeof(double) + sizeof(uint32_t);
  stats.ddc_size = DdcGroup::EstimateSize(n, stats.cardinality, 1);
  // RLE/OLE dictionaries exclude the zero tuple.
  size_t nz_card = stats.cardinality - (distinct.count(0.0) ? 1 : 0);
  stats.rle_size = RleGroup::EstimateSize(stats.num_runs, nz_card, 1);
  stats.ole_size = OleGroup::EstimateSize(stats.num_nonzero, nz_card, 1);
  return stats;
}

ColumnStats CompressedMatrix::AnalyzeColumnSampled(const DenseMatrix& dense,
                                                   size_t col, size_t sample_rows) {
  const size_t n = dense.rows();
  if (sample_rows == 0 || sample_rows >= n) return AnalyzeColumn(dense, col);
  const size_t stride = n / sample_rows;

  // Sample statistics over evenly-spaced rows; adjacent-pair comparisons
  // estimate the run density at the sampled stride.
  std::unordered_map<double, size_t> freq;
  size_t sampled = 0, value_changes = 0, nonzero = 0;
  double prev = 0;
  bool has_prev = false;
  for (size_t i = 0; i < n; i += stride) {
    double v = dense.At(i, col);
    freq[v]++;
    ++sampled;
    if (v != 0.0) ++nonzero;
    if (has_prev && v != prev) ++value_changes;
    prev = v;
    has_prev = true;
  }

  ColumnStats stats;
  // Chao1 cardinality estimate: d_obs + f1^2 / (2 f2), capped by n.
  size_t f1 = 0, f2 = 0;
  bool zero_seen = freq.count(0.0) > 0;
  for (const auto& [_, c] : freq) {
    if (c == 1) ++f1;
    else if (c == 2) ++f2;
  }
  double chao = static_cast<double>(freq.size());
  if (f1 > 0) {
    chao += static_cast<double>(f1) * static_cast<double>(f1) /
            (2.0 * static_cast<double>(f2 > 0 ? f2 : 1));
  }
  stats.cardinality = static_cast<size_t>(std::min<double>(chao, static_cast<double>(n)));
  // Runs: the change rate among sampled neighbors scales to full length.
  double change_rate =
      sampled > 1 ? static_cast<double>(value_changes) / static_cast<double>(sampled - 1)
                  : 0.0;
  // At stride > 1 the sampled change rate overestimates per-row changes for
  // clustered data but is exact in the limit of random order — the same
  // upper-bound bias the CLA estimators accept.
  stats.num_runs = std::max<size_t>(
      1, static_cast<size_t>(change_rate * static_cast<double>(n)));
  stats.num_nonzero = static_cast<size_t>(
      static_cast<double>(nonzero) / static_cast<double>(sampled) *
      static_cast<double>(n));

  stats.uc_size = n * sizeof(double) + sizeof(uint32_t);
  stats.ddc_size = DdcGroup::EstimateSize(n, stats.cardinality, 1);
  size_t nz_card = stats.cardinality - (zero_seen ? 1 : 0);
  if (nz_card == 0) nz_card = 1;
  stats.rle_size = RleGroup::EstimateSize(stats.num_runs, nz_card, 1);
  stats.ole_size = OleGroup::EstimateSize(stats.num_nonzero, nz_card, 1);
  return stats;
}

namespace {

// Rows per chunk for the row-partitioned ops: small enough to load-balance
// skewed group costs, large enough that pool dispatch stays negligible.
constexpr size_t kRowGrain = 2048;

// Row sub-block for the k-wide forward multiply: all groups scatter into the
// same (block x k) output window before moving on, so the window stays cache
// resident instead of the whole (chunk x k) output streaming once per group.
// Per output element the group accumulation order is unchanged, so blocking
// is bit-exact.
constexpr size_t kMatrixRowBlock = 256;

// Sentinel offset for groups without a dictionary (UC, empty OLE).
constexpr size_t kNoPreagg = static_cast<size_t>(-1);

// Per-op scratch, reused across calls on the calling thread: the hoisted
// dictionary pre-aggregation buffer (one slice per group) and the flat
// per-chunk partial buffers for the reduction ops. Workers only read preaggs
// and write disjoint partial slices, so sharing via raw pointer is race-free.
struct OpScratch {
  std::vector<double> preagg;
  std::vector<size_t> preagg_off;
  std::vector<double> partials;
};
thread_local OpScratch t_scratch;

using GroupVec = std::vector<std::unique_ptr<ColumnGroup>>;

// Lays out one preagg slice per dictionary-bearing group (entry count scaled
// by `per_entry`) and fills them, fanning per-group computation on the pool.
// Returns the buffer base; offsets land in t_scratch.preagg_off.
const double* ComputePreaggs(const GroupVec& groups, size_t per_entry,
                             ThreadPool* pool,
                             const std::function<void(const ColumnGroup&, double*)>& fill) {
  auto& s = t_scratch;
  s.preagg_off.assign(groups.size(), kNoPreagg);
  size_t total = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t entries = groups[g]->DictionarySize();
    if (entries == 0) continue;
    s.preagg_off[g] = total;
    total += entries * per_entry;
  }
  if (s.preagg.size() < total) s.preagg.resize(total);
  double* base = s.preagg.data();
  ParallelFor(pool, groups.size(), [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      if (s.preagg_off[g] != kNoPreagg) fill(*groups[g], base + s.preagg_off[g]);
    }
  });
  return base;
}

double* PartialBuffer(size_t need) {
  auto& s = t_scratch;
  if (s.partials.size() < need) s.partials.resize(need);
  return s.partials.data();
}

// Reshapes `out`, counting buffer reuse the same way la::EnsureOut does for
// the dense kernels.
void EnsureClaOut(DenseMatrix* out, size_t rows, size_t cols) {
  if (out->Reshape(rows, cols)) {
    DMML_COUNTER_INC("cla.inplace.reuses");
  } else {
    DMML_COUNTER_INC("cla.inplace.allocs");
  }
}

void CountRangedCalls(size_t chunks, size_t num_groups) {
  if (chunks > 1) DMML_COUNTER_ADD("cla.ops.ranged_calls", chunks * num_groups);
}

GroupFormat BestFormat(const ColumnStats& stats, double min_gain, size_t* best_size) {
  GroupFormat fmt = GroupFormat::kUncompressed;
  size_t best = stats.uc_size;
  auto consider = [&](GroupFormat f, size_t size) {
    if (size < best) {
      best = size;
      fmt = f;
    }
  };
  consider(GroupFormat::kDdc, stats.ddc_size);
  consider(GroupFormat::kRle, stats.rle_size);
  consider(GroupFormat::kOle, stats.ole_size);
  if (static_cast<double>(best) >
      min_gain * static_cast<double>(stats.uc_size)) {
    fmt = GroupFormat::kUncompressed;
    best = stats.uc_size;
  }
  *best_size = best;
  return fmt;
}

std::unique_ptr<ColumnGroup> BuildGroup(const DenseMatrix& dense,
                                        std::vector<uint32_t> cols, GroupFormat fmt) {
  switch (fmt) {
    case GroupFormat::kDdc: return std::make_unique<DdcGroup>(dense, std::move(cols));
    case GroupFormat::kRle: return std::make_unique<RleGroup>(dense, std::move(cols));
    case GroupFormat::kOle: return std::make_unique<OleGroup>(dense, std::move(cols));
    case GroupFormat::kUncompressed:
      return std::make_unique<UncompressedGroup>(dense, std::move(cols));
  }
  return nullptr;
}

// Exact joint cardinality of a column pair.
size_t JointCardinality(const DenseMatrix& dense, uint32_t a, uint32_t b) {
  std::unordered_set<std::string> distinct;
  std::string key(2 * sizeof(double), '\0');
  for (size_t i = 0; i < dense.rows(); ++i) {
    double va = dense.At(i, a), vb = dense.At(i, b);
    std::memcpy(key.data(), &va, sizeof(double));
    std::memcpy(key.data() + sizeof(double), &vb, sizeof(double));
    distinct.insert(key);
  }
  return distinct.size();
}

// Records planner outcomes: how many columns landed in each encoding, how
// many groups were co-coded, and the achieved compression ratio.
void RecordCompressionMetrics(const CompressedMatrix& cm) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter* per_format[] = {
      reg.GetCounter("cla.columns.uncompressed"),
      reg.GetCounter("cla.columns.ddc"),
      reg.GetCounter("cla.columns.rle"),
      reg.GetCounter("cla.columns.ole"),
  };
  for (const auto& g : cm.groups()) {
    size_t f = static_cast<size_t>(g->format());
    if (f < 4) per_format[f]->Add(g->columns().size());
    if (g->columns().size() > 1) DMML_COUNTER_INC("cla.cocoded_groups");
  }
  DMML_GAUGE_SET("cla.compression_ratio", cm.CompressionRatio());
}

}  // namespace

CompressedMatrix CompressedMatrix::Compress(const DenseMatrix& dense,
                                            const CompressionOptions& options,
                                            ThreadPool* pool) {
  DMML_TRACE_SPAN("cla.compress");
  CompressedMatrix cm;
  cm.rows_ = dense.rows();
  cm.cols_ = dense.cols();

  struct Plan {
    uint32_t col;
    GroupFormat fmt;
    size_t size;
    size_t cardinality;
    bool merged = false;
  };

  // Phase 1 — per-column analysis, one independent O(n) pass per column.
  std::vector<Plan> plans(dense.cols());
  const size_t analyze_chunks = ParallelChunkCount(pool, dense.cols(), 1);
  ParallelForChunks(pool, dense.cols(), 1,
                    [&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      ColumnStats stats = options.sample_rows > 0
                              ? AnalyzeColumnSampled(dense, c, options.sample_rows)
                              : AnalyzeColumn(dense, c);
      size_t best_size = 0;
      GroupFormat fmt = BestFormat(stats, options.min_compression_gain, &best_size);
      plans[c] = {static_cast<uint32_t>(c), fmt, best_size, stats.cardinality};
    }
  });
  DMML_COUNTER_ADD("cla.compress.columns_analyzed", dense.cols());
  if (analyze_chunks > 1) {
    DMML_COUNTER_ADD("cla.compress.parallel_tasks", analyze_chunks);
  }

  // Phase 2 — greedy pairwise co-coding among DDC-compressible columns with
  // small dictionaries: merge when the joint DDC size undercuts the separate
  // plans. Pair scoring (exact joint cardinality, O(n) each) fans out per
  // candidate; picking the first qualifying partner in candidate order keeps
  // the outcome identical to the sequential greedy scan.
  std::vector<std::pair<uint32_t, uint32_t>> merges;
  if (options.enable_cocoding) {
    std::vector<size_t> candidates;
    for (size_t p = 0; p < plans.size(); ++p) {
      if (plans[p].fmt == GroupFormat::kDdc) candidates.push_back(p);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](size_t a, size_t b) {
                return plans[a].cardinality < plans[b].cardinality;
              });
    std::vector<size_t> pending;
    std::vector<char> qualifies;
    for (size_t k = 0; k + 1 < candidates.size(); k += 1) {
      size_t pa = candidates[k];
      if (plans[pa].merged) continue;
      pending.clear();
      for (size_t l = k + 1; l < candidates.size(); ++l) {
        if (!plans[candidates[l]].merged) pending.push_back(candidates[l]);
      }
      if (pending.empty()) continue;
      qualifies.assign(pending.size(), 0);
      const size_t score_chunks = ParallelChunkCount(pool, pending.size(), 1);
      ParallelForChunks(pool, pending.size(), 1,
                        [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          size_t pb = pending[i];
          size_t joint_card = JointCardinality(dense, plans[pa].col, plans[pb].col);
          size_t joint_size = DdcGroup::EstimateSize(dense.rows(), joint_card, 2);
          qualifies[i] = static_cast<double>(joint_size) <=
                         options.cocode_threshold *
                             static_cast<double>(plans[pa].size + plans[pb].size);
        }
      });
      if (score_chunks > 1) {
        DMML_COUNTER_ADD("cla.compress.parallel_tasks", score_chunks);
      }
      for (size_t i = 0; i < pending.size(); ++i) {
        if (!qualifies[i]) continue;
        size_t pb = pending[i];
        merges.emplace_back(plans[pa].col, plans[pb].col);
        plans[pa].merged = plans[pb].merged = true;
        break;
      }
    }
  }

  // Phase 3 — encode groups in a deterministic order (co-coded pairs in merge
  // order, then unmerged singles by column), each into its own slot.
  struct GroupSpec {
    std::vector<uint32_t> cols;
    GroupFormat fmt;
  };
  std::vector<GroupSpec> specs;
  specs.reserve(merges.size() + plans.size());
  for (const auto& [a, b] : merges) {
    specs.push_back({{a, b}, GroupFormat::kDdc});
  }
  for (const Plan& plan : plans) {
    if (plan.merged) continue;
    specs.push_back({{plan.col}, plan.fmt});
  }
  cm.groups_.resize(specs.size());
  const size_t encode_chunks = ParallelChunkCount(pool, specs.size(), 1);
  ParallelForChunks(pool, specs.size(), 1,
                    [&](size_t, size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      cm.groups_[s] = BuildGroup(dense, specs[s].cols, specs[s].fmt);
    }
  });
  DMML_COUNTER_ADD("cla.compress.groups_encoded", specs.size());
  if (encode_chunks > 1) {
    DMML_COUNTER_ADD("cla.compress.parallel_tasks", encode_chunks);
  }

  RecordCompressionMetrics(cm);
  return cm;
}

size_t CompressedMatrix::SizeInBytes() const {
  size_t bytes = 0;
  for (const auto& g : groups_) bytes += g->SizeInBytes();
  return bytes;
}

double CompressedMatrix::CompressionRatio() const {
  size_t dense_bytes = rows_ * cols_ * sizeof(double);
  size_t compressed = SizeInBytes();
  return compressed ? static_cast<double>(dense_bytes) /
                          static_cast<double>(compressed)
                    : 0.0;
}

Status CompressedMatrix::MultiplyVectorInto(const DenseMatrix& v,
                                            DenseMatrix* out,
                                            ThreadPool* pool) const {
  if (v.rows() != cols_ || v.cols() != 1) {
    return Status::InvalidArgument("MultiplyVector expects a (cols x 1) vector");
  }
  DMML_TRACE_SPAN("cla.matvec");
  DMML_COUNTER_INC("cla.matvec_calls");
  return MultiplyMatrixRangeInto(v, 0, rows_, out, pool);
}

Status CompressedMatrix::VectorMultiplyInto(const DenseMatrix& u,
                                            DenseMatrix* out,
                                            ThreadPool* pool) const {
  if (u.rows() != rows_ || u.cols() != 1) {
    return Status::InvalidArgument("VectorMultiply expects a (rows x 1) vector");
  }
  DMML_RETURN_IF_ERROR(TransposeMultiplyMatrixRangeInto(u, 0, rows_, out, pool));
  out->Reshape(1, cols_);  // Same contiguous values as the cols x 1 form.
  return Status::OK();
}

Status CompressedMatrix::MultiplyMatrixInto(const DenseMatrix& m,
                                            DenseMatrix* out,
                                            ThreadPool* pool) const {
  return MultiplyMatrixRangeInto(m, 0, rows_, out, pool);
}

Status CompressedMatrix::MultiplyMatrixRangeInto(const DenseMatrix& m,
                                                 size_t row_begin,
                                                 size_t row_end,
                                                 DenseMatrix* out,
                                                 ThreadPool* pool) const {
  if (m.rows() != cols_) {
    return Status::InvalidArgument("MultiplyMatrixRange expects a (cols x k) matrix");
  }
  if (row_begin > row_end || row_end > rows_) {
    return Status::InvalidArgument("MultiplyMatrixRange: bad row window");
  }
  const size_t k = m.cols();
  const size_t range = row_end - row_begin;
  EnsureClaOut(out, range, k);
  // One column is the matrix-vector product: one lookup per row into each
  // group's dictionary pre-aggregated against the vector. Wider M walks
  // fixed row sub-blocks with k-wide row updates.
  const double* pre =
      k == 1 ? ComputePreaggs(groups_, 1, pool,
                              [&](const ColumnGroup& g, double* dst) {
                                g.PreaggregateVector(m.data(), dst);
                              })
             : ComputePreaggs(groups_, k, pool,
                              [&](const ColumnGroup& g, double* dst) {
                                g.PreaggregateMatrix(m, dst);
                              });
  const auto& off = t_scratch.preagg_off;
  const size_t chunks = ParallelChunkCount(pool, range, kRowGrain);
  ParallelForChunks(pool, range, kRowGrain,
                    [&](size_t, size_t begin, size_t end) {
    if (k == 1) {
      double* y = out->data();
      std::fill(y + begin, y + end, 0.0);
      for (size_t g = 0; g < groups_.size(); ++g) {
        groups_[g]->MultiplyVectorRange(
            m.data(), off[g] == kNoPreagg ? nullptr : pre + off[g], y,
            row_begin + begin, row_begin + end, row_begin);
      }
      return;
    }
    for (size_t b = begin; b < end; b += kMatrixRowBlock) {
      const size_t e = std::min(end, b + kMatrixRowBlock);
      std::fill(out->Row(b), out->Row(b) + (e - b) * k, 0.0);
      for (size_t g = 0; g < groups_.size(); ++g) {
        groups_[g]->MultiplyMatrixRange(
            m, off[g] == kNoPreagg ? nullptr : pre + off[g], out,
            row_begin + b, row_begin + e, row_begin);
      }
    }
  });
  CountRangedCalls(chunks, groups_.size());
  return Status::OK();
}

Status CompressedMatrix::TransposeMultiplyMatrixInto(const DenseMatrix& m,
                                                     DenseMatrix* out,
                                                     ThreadPool* pool) const {
  return TransposeMultiplyMatrixRangeInto(m, 0, rows_, out, pool);
}

Status CompressedMatrix::TransposeMultiplyMatrixRangeInto(const DenseMatrix& m,
                                                          size_t row_begin,
                                                          size_t row_end,
                                                          DenseMatrix* out,
                                                          ThreadPool* pool) const {
  if (row_begin > row_end || row_end > rows_) {
    return Status::InvalidArgument("TransposeMultiplyMatrixRange: bad row window");
  }
  const size_t range = row_end - row_begin;
  if (m.rows() != range) {
    return Status::InvalidArgument(
        "TransposeMultiplyMatrixRange expects a window-relative (range x k) matrix");
  }
  const size_t k = m.cols();
  EnsureClaOut(out, cols_, k);
  double* y = out->data();
  // Accumulates window rows [begin, end) into a zeroed (cols x k) buffer,
  // one call per group. One column runs the groups' vector kernels, which
  // sum each column in the order the k-wide kernels do, so a k-wide product
  // is bit-equal per column to k one-column products.
  auto accumulate = [&](size_t begin, size_t end, double* p) {
    std::fill(p, p + cols_ * k, 0.0);
    for (const auto& g : groups_) {
      if (k == 1) {
        g->VectorMultiplyRange(m.data(), p, row_begin + begin, row_begin + end,
                               row_begin);
      } else {
        g->TransposeMultiplyMatrixRange(m, p, row_begin + begin,
                                        row_begin + end, row_begin);
      }
    }
  };
  const size_t chunks = ParallelChunkCount(pool, range, kRowGrain);
  if (chunks <= 1) {
    accumulate(0, range, y);
    return Status::OK();
  }
  // Per-chunk private (cols x k) partials, reduced serially — no atomics.
  double* partials = PartialBuffer(chunks * cols_ * k);
  ParallelForChunks(pool, range, kRowGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    accumulate(begin, end, partials + chunk * cols_ * k);
  });
  std::fill(y, y + cols_ * k, 0.0);
  for (size_t c = 0; c < chunks; ++c) {
    const double* p = partials + c * cols_ * k;
    for (size_t j = 0; j < cols_ * k; ++j) y[j] += p[j];
  }
  DMML_COUNTER_INC("cla.ops.partial_reductions");
  CountRangedCalls(chunks, groups_.size());
  return Status::OK();
}

Status CompressedMatrix::GramRangeInto(size_t row_begin, size_t row_end,
                                       DenseMatrix* out, ThreadPool* pool) const {
  if (row_begin > row_end || row_end > rows_) {
    return Status::InvalidArgument("GramRange: bad row window");
  }
  const size_t range = row_end - row_begin, d = cols_;
  EnsureClaOut(out, d, d);
  double* y = out->data();
  // Accumulates window rows [begin, end) into a zeroed upper triangle one
  // row block at a time: every group decompresses the block into this
  // thread's scratch, then the dense SYRK accumulator adds its rows.
  auto accumulate = [&](size_t begin, size_t end, double* g) {
    thread_local DenseMatrix block;
    std::fill(g, g + d * d, 0.0);
    for (size_t b = begin; b < end; b += kMatrixRowBlock) {
      const size_t e = std::min(end, b + kMatrixRowBlock);
      block.Reshape(e - b, d);
      block.Fill(0.0);  // Zero-suppressed encodings scatter nonzeros only.
      for (const auto& grp : groups_) {
        grp->DecompressRange(&block, row_begin + b, row_begin + e, row_begin + b);
      }
      la::AccumulateGramUpper(block, 0, e - b, g);
    }
  };
  const size_t chunks = ParallelChunkCount(pool, range, kRowGrain);
  if (chunks <= 1) {
    accumulate(0, range, y);
  } else {
    // Per-chunk private (d x d) partials, reduced serially — no atomics.
    double* partials = PartialBuffer(chunks * d * d);
    ParallelForChunks(pool, range, kRowGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      accumulate(begin, end, partials + chunk * d * d);
    });
    std::fill(y, y + d * d, 0.0);
    for (size_t c = 0; c < chunks; ++c) {
      const double* p = partials + c * d * d;
      for (size_t j = 0; j < d * d; ++j) y[j] += p[j];
    }
    DMML_COUNTER_INC("cla.ops.partial_reductions");
    CountRangedCalls(chunks, groups_.size());
  }
  la::MirrorUpperTriangle(out);
  return Status::OK();
}

Status CompressedMatrix::RowSquaredNormsInto(DenseMatrix* out,
                                             ThreadPool* pool) const {
  EnsureClaOut(out, rows_, 1);
  double* y = out->data();
  const double* pre = ComputePreaggs(
      groups_, 1, pool,
      [&](const ColumnGroup& g, double* dst) { g.PreaggregateSquaredNorms(dst); });
  const auto& off = t_scratch.preagg_off;
  const size_t chunks = ParallelChunkCount(pool, rows_, kRowGrain);
  ParallelForChunks(pool, rows_, kRowGrain,
                    [&](size_t, size_t begin, size_t end) {
    std::fill(y + begin, y + end, 0.0);
    for (size_t g = 0; g < groups_.size(); ++g) {
      groups_[g]->AddRowSquaredNormsRange(
          off[g] == kNoPreagg ? nullptr : pre + off[g], y, begin, end);
    }
  });
  CountRangedCalls(chunks, groups_.size());
  return Status::OK();
}

Result<DenseMatrix> CompressedMatrix::MultiplyVector(const DenseMatrix& v,
                                                     ThreadPool* pool) const {
  DenseMatrix y;
  DMML_RETURN_IF_ERROR(MultiplyVectorInto(v, &y, pool));
  return y;
}

Result<DenseMatrix> CompressedMatrix::VectorMultiply(const DenseMatrix& u,
                                                     ThreadPool* pool) const {
  DenseMatrix y;
  DMML_RETURN_IF_ERROR(VectorMultiplyInto(u, &y, pool));
  return y;
}

Result<DenseMatrix> CompressedMatrix::MultiplyMatrix(const DenseMatrix& m,
                                                     ThreadPool* pool) const {
  DenseMatrix y;
  DMML_RETURN_IF_ERROR(MultiplyMatrixInto(m, &y, pool));
  return y;
}

Result<DenseMatrix> CompressedMatrix::TransposeMultiplyMatrix(
    const DenseMatrix& m, ThreadPool* pool) const {
  DenseMatrix y;
  DMML_RETURN_IF_ERROR(TransposeMultiplyMatrixInto(m, &y, pool));
  return y;
}

DenseMatrix CompressedMatrix::RowSquaredNorms(ThreadPool* pool) const {
  DenseMatrix out;
  (void)RowSquaredNormsInto(&out, pool);  // Cannot fail: no operand shapes.
  return out;
}

double CompressedMatrix::Sum(ThreadPool* pool) const {
  const size_t chunks = ParallelChunkCount(pool, rows_, kRowGrain);
  if (chunks <= 1) {
    double acc = 0;
    for (const auto& g : groups_) acc += g->SumRange(0, rows_);
    return acc;
  }
  double* partials = PartialBuffer(chunks);
  ParallelForChunks(pool, rows_, kRowGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    double acc = 0;
    for (const auto& g : groups_) acc += g->SumRange(begin, end);
    partials[chunk] = acc;
  });
  double acc = 0;
  for (size_t c = 0; c < chunks; ++c) acc += partials[c];
  DMML_COUNTER_INC("cla.ops.partial_reductions");
  CountRangedCalls(chunks, groups_.size());
  return acc;
}

DenseMatrix CompressedMatrix::Decompress(ThreadPool* pool) const {
  // Falling back to the dense form forfeits the compressed-ops win; worth
  // watching in production workloads.
  DMML_COUNTER_INC("cla.decompress_fallback");
  DMML_TRACE_SPAN("cla.decompress");
  DenseMatrix out(rows_, cols_);
  const size_t chunks = ParallelChunkCount(pool, rows_, kRowGrain);
  ParallelForChunks(pool, rows_, kRowGrain,
                    [&](size_t, size_t begin, size_t end) {
    // Zero-suppressed encodings only scatter non-zero rows, so clear the
    // slice first (fresh matrices are already zero; reused ones may not be).
    std::fill(out.Row(begin), out.Row(begin) + (end - begin) * cols_, 0.0);
    for (const auto& g : groups_) g->DecompressRange(&out, begin, end, 0);
  });
  CountRangedCalls(chunks, groups_.size());
  return out;
}

Status CompressedMatrix::DecompressRangeInto(size_t row_begin, size_t row_end,
                                             DenseMatrix* out,
                                             ThreadPool* pool) const {
  if (row_begin > row_end || row_end > rows_) {
    return Status::InvalidArgument("DecompressRange: bad row window");
  }
  const size_t range = row_end - row_begin;
  EnsureClaOut(out, range, cols_);
  const size_t chunks = ParallelChunkCount(pool, range, kRowGrain);
  ParallelForChunks(pool, range, kRowGrain,
                    [&](size_t, size_t begin, size_t end) {
    std::fill(out->Row(begin), out->Row(begin) + (end - begin) * cols_, 0.0);
    for (const auto& g : groups_) {
      g->DecompressRange(out, row_begin + begin, row_begin + end, row_begin);
    }
  });
  CountRangedCalls(chunks, groups_.size());
  return Status::OK();
}

std::string CompressedMatrix::FormatSummary() const {
  std::ostringstream os;
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i) os << " ";
    os << "[";
    const auto& cols = groups_[i]->columns();
    for (size_t j = 0; j < cols.size(); ++j) {
      if (j) os << ",";
      os << cols[j];
    }
    os << "]:" << GroupFormatName(groups_[i]->format()) << "("
       << groups_[i]->SizeInBytes() << "B)";
  }
  return os.str();
}

}  // namespace dmml::cla
