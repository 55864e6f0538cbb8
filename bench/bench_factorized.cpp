// Experiment E1 — factorized vs materialized GLM training over normalized
// data (the Orion / Morpheus result).
//
// Sweeps the two knobs that drive the published speedups:
//   * tuple ratio   nS / nR  (entity rows per attribute row)
//   * feature ratio dR / dS  (join-side features per entity feature)
// Both training paths run the one batch-gradient trainer
// (ml::TrainGlmOnOperand): bound to the factorized operand, or to the dense
// matrix of the materialized join, which the materialized path additionally
// pays for and then scans. Expected shape: speedup ~1 at ratio <= 1,
// growing with both ratios.
//
// `--smoke` shrinks the sweeps for CI; either way every cell lands in the
// #BENCH-JSON block (one record per training path) for bench_compare.sh,
// and the bench exits 1 if the two paths' models differ by more than 1e-9
// in any cell.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "data/generators.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "ml/unified_trainers.h"
#include "util/stopwatch.h"

namespace {

using namespace dmml;  // NOLINT
using bench::BenchJsonEmitter;
using bench::Fmt;
using bench::TablePrinter;

// The two paths must agree to this bound on every weight and the intercept.
constexpr double kParityBound = 1e-9;

struct CellResult {
  double fact_ms;
  double mat_ms;
  double redundancy;
  double max_diff;  // Largest |Δ| between the two models' parameters.
};

double MaxModelDiff(const ml::GlmModel& a, const ml::GlmModel& b) {
  double worst = std::fabs(a.intercept - b.intercept);
  for (size_t j = 0; j < a.weights.rows(); ++j) {
    worst = std::max(worst, std::fabs(a.weights.At(j, 0) - b.weights.At(j, 0)));
  }
  return worst;
}

CellResult RunCell(size_t ns, size_t nr, size_t ds_cols, size_t dr, size_t epochs,
                   uint64_t seed, BenchJsonEmitter* json) {
  data::StarSchemaOptions options;
  options.ns = ns;
  options.nr = nr;
  options.ds = ds_cols;
  options.dr = dr;
  auto dataset = data::MakeStarSchema(options, seed);
  auto nm = std::make_shared<const factorized::NormalizedMatrix>(
      *factorized::NormalizedMatrix::Make(dataset.xs, {{dataset.xr, dataset.fk}}));

  ml::GlmConfig config;
  config.family = ml::GlmFamily::kGaussian;
  config.learning_rate = 0.01;
  config.max_epochs = epochs;
  config.tolerance = 0;  // Fixed work per cell.

  Stopwatch w1;
  auto fact =
      ml::TrainGlmOnOperand(factorized::MakeFactorizedOperand(nm), dataset.y, config);
  double fact_ms = w1.ElapsedMillis();
  Stopwatch w2;
  const la::DenseMatrix joined = nm->Materialize();
  auto mat = ml::TrainGlmOnOperand(ml::BorrowOperand(joined), dataset.y, config);
  double mat_ms = w2.ElapsedMillis();
  if (!fact.ok() || !mat.ok()) {
    std::fprintf(stderr, "training failed: %s %s\n",
                 fact.status().ToString().c_str(), mat.status().ToString().c_str());
    std::exit(1);
  }
  std::string size = "ns" + std::to_string(ns) + "_nr" + std::to_string(nr) +
                     "_ds" + std::to_string(ds_cols) + "_dr" + std::to_string(dr);
  double inv_epochs = 1.0 / static_cast<double>(epochs);
  json->Record("factorized_glm_epoch", size, 1, fact_ms * 1e6 * inv_epochs, 0.0);
  json->Record("materialized_glm_epoch", size, 1, mat_ms * 1e6 * inv_epochs, 0.0);
  return {fact_ms, mat_ms, nm->RedundancyRatio(), MaxModelDiff(*fact, *mat)};
}

}  // namespace

int main(int argc, char** argv) {
  dmml::bench::ObsServerScope obs_server;  // DMML_OBS_PORT exposition
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const size_t epochs = smoke ? 5 : 20;
  const size_t base_nr = smoke ? 400 : 2000;
  std::printf("E1: factorized vs materialized GLM over a PK-FK join%s\n",
              smoke ? " (smoke)" : "");
  std::printf("Both paths: identical %zu-epoch batch-gradient linear regression.\n\n",
              epochs);

  BenchJsonEmitter json;
  double max_diff = 0;

  std::printf("Sweep A: tuple ratio (nR = %zu, dS = 2, dR = 20 fixed)\n", base_nr);
  {
    TablePrinter table(
        {"tuple_ratio", "nS", "redundancy", "fact_ms", "mat_ms", "speedup"});
    const std::vector<size_t> ratios =
        smoke ? std::vector<size_t>{1, 5} : std::vector<size_t>{1, 2, 5, 10, 20};
    for (size_t ratio : ratios) {
      size_t nr = base_nr;
      size_t ns = nr * ratio;
      auto r = RunCell(ns, nr, 2, 20, epochs, 100 + ratio, &json);
      max_diff = std::max(max_diff, r.max_diff);
      table.Row({Fmt(ratio, 0), bench::FmtInt(static_cast<long long>(ns)),
                 Fmt(r.redundancy, 2), Fmt(r.fact_ms, 1), Fmt(r.mat_ms, 1),
                 Fmt(r.mat_ms / r.fact_ms, 2)});
    }
    table.EmitCsv("E1A_tuple_ratio");
  }

  const size_t b_ns = smoke ? 4000 : 20000;
  std::printf("\nSweep B: feature ratio (nS = %zu, nR = %zu, dS = 4 fixed)\n", b_ns,
              base_nr);
  {
    TablePrinter table(
        {"feat_ratio", "dR", "redundancy", "fact_ms", "mat_ms", "speedup"});
    const std::vector<size_t> ratios =
        smoke ? std::vector<size_t>{1, 5} : std::vector<size_t>{1, 2, 5, 10, 25};
    for (size_t ratio : ratios) {
      size_t dr = 4 * ratio;
      auto r = RunCell(b_ns, base_nr, 4, dr, epochs, 200 + ratio, &json);
      max_diff = std::max(max_diff, r.max_diff);
      table.Row({Fmt(ratio, 0), bench::FmtInt(static_cast<long long>(dr)),
                 Fmt(r.redundancy, 2), Fmt(r.fact_ms, 1), Fmt(r.mat_ms, 1),
                 Fmt(r.mat_ms / r.fact_ms, 2)});
    }
    table.EmitCsv("E1B_feature_ratio");
  }

  std::printf(
      "\nExpected shape (Orion/Morpheus): speedup ~1 at low ratios, growing\n"
      "with tuple ratio and feature ratio as join redundancy grows.\n");
  json.Emit("factorized");
  dmml::bench::EmitMetrics("factorized");
  std::printf("\nparity: max |factorized - materialized| = %.3g (bound %.0e)\n",
              max_diff, kParityBound);
  if (!(max_diff <= kParityBound)) {
    std::fprintf(stderr, "PARITY FAIL: the two paths' models differ by %.3g\n",
                 max_diff);
    return 1;
  }
  return 0;
}
