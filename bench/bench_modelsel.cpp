// Experiment E6 — batched model selection (the Columbus / MSMS result).
//
// Part 1: cross-validated grid search over k GLM configurations, run (a) one
// config at a time and (b) as one batch sharing every data scan (one GEMM
// per epoch feeds all configurations). Expected shape: batched wins grow
// with the number of configurations, because the data-access cost is
// amortized.
//
// Part 2 (E6b): the shared-scan rung engine in isolation — one rung of k
// configs trained as a d x k weight matrix (one X·W + one Xᵀ·R per epoch)
// vs the same engine run k times at width 1, under the dense and the
// CLA-compressed binding of the same data. Timings follow the host protocol
// of EXPERIMENTS.md: the A/B arms are interleaved per round and each record
// is the per-arm minimum over the rounds.
//
// `--smoke` shrinks the dataset and grid for CI and turns on the gates:
// shared-scan must be at least at parity with the sequential arm, and a
// multi-fold rung must drive the inter-node scheduler to overlap fold
// branches (laopt.sched.max_ready_width > 1). Principal timings are emitted
// as #BENCH-JSON records in addition to the human table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "laopt/operand.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"
#include "modelsel/shared_scan.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace dmml;  // NOLINT
using bench::Fmt;
using bench::TablePrinter;

// Low-cardinality design with ~60% zeros: the compressed binding has real
// dictionary structure to pre-aggregate over.
la::DenseMatrix CompressibleDesign(size_t n, size_t d, uint64_t seed) {
  la::DenseMatrix x = data::LowCardinalityMatrix(n, d, 5, /*run_sorted=*/false, seed);
  Rng rng(seed + 99);
  for (size_t i = 0; i < x.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < 0.6) x.data()[i] = 0.0;
  }
  return x;
}

// k configurations sharing family/epochs/intercept, heterogeneous in lr,
// L2 and decay — the rung shape successive halving produces.
std::vector<ml::GlmConfig> RungConfigs(size_t k, size_t epochs) {
  std::vector<ml::GlmConfig> configs(k);
  for (size_t c = 0; c < k; ++c) {
    configs[c].family = ml::GlmFamily::kGaussian;
    configs[c].max_epochs = epochs;
    configs[c].tolerance = 0;
    configs[c].fit_intercept = true;
    configs[c].learning_rate =
        0.0005 + 0.0005 * static_cast<double>(c % 8);
    configs[c].l2 = 0.01 * static_cast<double>(c % 4);
    configs[c].lr_decay = 0.05 * static_cast<double>(c % 3);
  }
  return configs;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t n = smoke ? 4000 : 30000;
  const size_t d = smoke ? 30 : 80;
  const size_t epochs = smoke ? 5 : 15;

  dmml::bench::ObsServerScope obs_server;  // DMML_OBS_PORT exposition
  bench::BenchJsonEmitter json;
  std::printf("E6: model selection — sequential vs batched grid search%s\n",
              smoke ? " (smoke)" : "");
  std::printf("linear regression, n = %zu, d = %zu, 2-fold CV, %zu epochs/config\n\n",
              n, d, epochs);

  auto ds = data::MakeRegression(n, d, 0.1, 13);
  const std::string size = std::to_string(n) + "x" + std::to_string(d);

  TablePrinter table(
      {"num_configs", "seq_ms", "batched_ms", "speedup", "same_best"});
  for (size_t grid_side : {1, 2, 3, 4, 6}) {
    if (smoke && grid_side > 3) continue;
    modelsel::GridSpec grid;
    grid.base.family = ml::GlmFamily::kGaussian;
    grid.base.max_epochs = epochs;
    grid.base.tolerance = 0;
    grid.base.learning_rate = 0.01;
    for (size_t i = 0; i < grid_side; ++i) {
      grid.learning_rates.push_back(0.002 * static_cast<double>(i + 1));
      grid.l2_penalties.push_back(0.05 * static_cast<double>(i));
    }
    size_t num_configs = grid_side * grid_side;

    auto seq = modelsel::GridSearchSequential(ds.x, ds.y, grid, 2, 17);
    auto bat = modelsel::GridSearchBatched(ds.x, ds.y, grid, 2, 17);
    if (!seq.ok() || !bat.ok()) {
      std::fprintf(stderr, "grid search failed\n");
      return 1;
    }
    bool same_best = seq->best_index == bat->best_index;
    table.Row({bench::FmtInt(static_cast<long long>(num_configs)),
               Fmt(seq->seconds * 1e3, 0), Fmt(bat->seconds * 1e3, 0),
               Fmt(seq->seconds / bat->seconds, 2), same_best ? "yes" : "no"});
    const std::string cfg = std::to_string(num_configs) + "cfg";
    json.Record("modelsel.sequential." + cfg, size, 1, seq->seconds * 1e9, 0.0);
    json.Record("modelsel.batched." + cfg, size, 1, bat->seconds * 1e9, 0.0);
  }
  table.EmitCsv("E6_modelsel");

  // -------------------------------------------------------------------
  // E6b — shared-scan rung epochs: k-wide weight matrix vs k width-1 runs
  // of the same engine, dense and compressed bindings.
  // -------------------------------------------------------------------
  const size_t rn = smoke ? 3000 : 20000;
  const size_t rd = smoke ? 24 : 48;
  const size_t rung_epochs = smoke ? 3 : 8;
  const int rounds = 3;
  std::printf("\nE6b: shared-scan rung — one pass trains every config%s\n",
              smoke ? " (smoke)" : "");
  std::printf("rung epochs over n = %zu, d = %zu, %zu epochs, min of %d interleaved rounds\n\n",
              rn, rd, rung_epochs, rounds);

  auto xd = std::make_shared<la::DenseMatrix>(CompressibleDesign(rn, rd, 29));
  auto xc = std::make_shared<cla::CompressedMatrix>(
      cla::CompressedMatrix::Compress(*xd));
  la::DenseMatrix ry = data::GaussianMatrix(rn, 1, 30);
  const std::vector<modelsel::FoldRange> all_rows = {{rn, rn}};
  const std::string rsize = std::to_string(rn) + "x" + std::to_string(rd);
  ThreadPool* pool = GlobalThreadPool();

  struct Arm {
    const char* name;
    laopt::Operand op;
  };
  const Arm arms[] = {{"dense", laopt::Operand(xd)},
                      {"compressed", laopt::Operand(xc)}};

  double compressed_speedup_k32 = 0.0;
  TablePrinter rung_table(
      {"repr", "k", "shared_ms", "seq_ms", "speedup", "parity"});
  for (const Arm& arm : arms) {
    for (size_t k : {size_t{1}, size_t{8}, size_t{32}, size_t{128}}) {
      if (smoke && k > 32) continue;
      const std::vector<ml::GlmConfig> configs = RungConfigs(k, rung_epochs);
      double shared_s = 0.0, seq_s = 0.0;
      double worst = 0.0;
      for (int r = 0; r < rounds; ++r) {
        // Interleave the arms within each round (EXPERIMENTS.md protocol)
        // and keep the per-arm minimum across rounds.
        Stopwatch ws;
        auto shared = modelsel::SharedScanTrain(arm.op, ry, all_rows, configs, pool);
        const double st = ws.ElapsedSeconds();
        Stopwatch qs;
        std::vector<modelsel::SharedScanResult> seq;
        seq.reserve(k);
        for (size_t c = 0; c < k; ++c) {
          auto one = modelsel::SharedScanTrain(arm.op, ry, all_rows,
                                               {configs[c]}, pool);
          if (!one.ok()) {
            std::fprintf(stderr, "sequential rung failed: %s\n",
                         one.status().message().c_str());
            return 1;
          }
          seq.push_back(std::move(*one));
        }
        const double qt = qs.ElapsedSeconds();
        if (!shared.ok()) {
          std::fprintf(stderr, "shared rung failed: %s\n",
                       shared.status().message().c_str());
          return 1;
        }
        shared_s = r == 0 ? st : std::min(shared_s, st);
        seq_s = r == 0 ? qt : std::min(seq_s, qt);
        if (r == 0) {
          const la::DenseMatrix& w = shared->folds[0].weights;
          for (size_t c = 0; c < k; ++c) {
            const la::DenseMatrix& wc = seq[c].folds[0].weights;
            for (size_t j = 0; j < w.rows(); ++j) {
              worst = std::max(worst,
                               std::fabs(w.At(j, c) - wc.At(j, 0)));
            }
          }
        }
      }
      const double speedup = seq_s / shared_s;
      if (std::strcmp(arm.name, "compressed") == 0 && k == 32) {
        compressed_speedup_k32 = speedup;
      }
      if (worst > 1e-9) {
        std::fprintf(stderr,
                     "shared vs sequential rung diverged (%s, k=%zu): %g\n",
                     arm.name, k, worst);
        return 1;
      }
      rung_table.Row({arm.name, bench::FmtInt(static_cast<long long>(k)),
                      Fmt(shared_s * 1e3, 1), Fmt(seq_s * 1e3, 1),
                      Fmt(speedup, 2), worst == 0.0 ? "bit-equal" : "<=1e-9"});
      const std::string tag =
          std::string("modelsel.rung.") + arm.name + "." + std::to_string(k) + "cfg";
      json.Record(tag + ".shared", rsize, 1, shared_s * 1e9, 0.0);
      json.Record(tag + ".sequential", rsize, 1, seq_s * 1e9, 0.0);
    }
  }
  rung_table.EmitCsv("E6b_shared_scan");
  json.Emit("modelsel");

  // Multi-fold rung: the wide plans' per-fold branches must be overlapped by
  // the inter-node scheduler (several roots ready at once). At 4 folds and
  // 8 epochs the rung takes the statistics route, whose Gram pass runs 8
  // roots and each epoch one G·W root per fold.
  {
    const size_t fold_rows = rn / 4;
    std::vector<modelsel::FoldRange> folds;
    for (size_t f = 0; f < 4; ++f) {
      folds.push_back({f * fold_rows, (f + 1) * fold_rows});
    }
    auto cv = modelsel::SharedScanTrain(laopt::Operand(xd), ry, folds,
                                        RungConfigs(8, rung_epochs), pool);
    if (!cv.ok()) {
      std::fprintf(stderr, "multi-fold rung failed\n");
      return 1;
    }
  }
  const double ready_width = obs::MetricsRegistry::Global()
                                 .GetGauge("laopt.sched.max_ready_width")
                                 ->Value();
  std::printf("\nmulti-fold rung peak ready width: %.0f\n", ready_width);

  if (smoke) {
    if (compressed_speedup_k32 < 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: shared-scan below parity on compressed k=32 "
                   "(speedup %.2f)\n",
                   compressed_speedup_k32);
      return 1;
    }
    // The width gate asserts the inter-node scheduler overlaps fold
    // branches; if the caller disabled the scheduler via its kill switch,
    // width 0 is the expected reading, not a failure.
    const char* inter_env = std::getenv("DMML_INTER_NODE");
    const bool inter_node_off = inter_env != nullptr &&
                                std::strcmp(inter_env, "0") == 0;
    if (inter_node_off) {
      std::printf("width gate skipped: DMML_INTER_NODE=0\n");
    } else if (ready_width <= 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: multi-fold rung never had >1 node in flight "
                   "(max_ready_width %.0f)\n",
                   ready_width);
      return 1;
    }
    std::printf("smoke gates passed: shared >= parity at k=32 compressed "
                "(%.2fx), rung branches overlap (width %.0f)\n",
                compressed_speedup_k32, ready_width);
  }

  std::printf(
      "\nExpected shape (Columbus/MSMS): speedup ~1 with a single\n"
      "configuration, growing with the number of configurations as scans\n"
      "are shared; both grid-search strategies select the same best config,\n"
      "and the shared rung matches the sequential rung weight-for-weight.\n");
  dmml::bench::EmitMetrics("modelsel");
  return 0;
}
