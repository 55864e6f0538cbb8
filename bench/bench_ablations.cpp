// Ablation benchmarks for the design choices DESIGN.md calls out:
//   A1  hash join vs sort-merge join
//   A2  CLA planner: exact statistics vs sampling estimators
//   A3  CLA co-coding: on vs off
//   A4  factorized GLM solvers: gradient descent vs closed-form Gramian,
//       factorized vs materialized
//   A5  LA executor: common-subexpression elimination on vs off
//   A6  model search: batched grid vs successive halving
//   A7  PS gradient sparsification, A8 dense-vs-CSR training, A9 fusion
//
// `--smoke` shrinks every section for CI; all principal timings are emitted
// as #BENCH-JSON records (joinable by scripts/bench_compare.sh) in addition
// to the human tables.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "factorized/factorized_operand.h"
#include "laopt/cse.h"
#include "laopt/executor.h"
#include "laopt/optimizer.h"
#include "modelsel/model_selection.h"
#include "la/kernels.h"
#include "ml/metrics.h"
#include "ml/unified_trainers.h"
#include "modelsel/successive_halving.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "relational/sort_merge_join.h"
#include "util/stopwatch.h"

namespace {

using namespace dmml;  // NOLINT
using bench::Fmt;
using bench::TablePrinter;

struct BenchContext {
  bool smoke = false;
  bench::BenchJsonEmitter* json = nullptr;
};

std::string SizeLabel(size_t rows, size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

void JoinAblation(const BenchContext& ctx) {
  const size_t ns = ctx.smoke ? 5000 : 30000;
  std::printf("A1: hash join vs sort-merge join (nS = %zu, dS = 2, dR = 4)\n", ns);
  TablePrinter table({"nR", "hash_ms", "sortmerge_ms", "rows_out"});
  for (size_t nr : {100, 1000, 10000}) {
    if (ctx.smoke && nr > 1000) continue;
    data::StarSchemaOptions options;
    options.ns = ns;
    options.nr = nr;
    options.ds = 2;
    options.dr = 4;
    auto ds = data::MakeStarSchema(options, nr);
    Stopwatch w1;
    auto hj = relational::HashJoin(ds.s, ds.r, "fk", "rid");
    double hash_ms = w1.ElapsedMillis();
    Stopwatch w2;
    auto smj = relational::SortMergeJoin(ds.s, ds.r, "fk", "rid");
    double smj_ms = w2.ElapsedMillis();
    if (!hj.ok() || !smj.ok()) std::exit(1);
    table.Row({bench::FmtInt(static_cast<long long>(nr)), Fmt(hash_ms, 1),
               Fmt(smj_ms, 1), bench::FmtInt(static_cast<long long>(hj->num_rows()))});
    const std::string size = std::to_string(ns) + "x" + std::to_string(nr);
    ctx.json->Record("ablation.join.hash", size, 1, hash_ms * 1e6, 0.0);
    ctx.json->Record("ablation.join.sortmerge", size, 1, smj_ms * 1e6, 0.0);
  }
  table.EmitCsv("A1_join");
  std::printf("\n");
}

void PlannerAblation(const BenchContext& ctx) {
  const size_t n = ctx.smoke ? 20000 : 100000;
  std::printf("A2: CLA planner — exact vs sampling estimators (n = %zu, 8 cols)\n",
              n);
  TablePrinter table({"planner", "plan+comp_ms", "ratio", "formats_match"});
  auto m = data::LowCardinalityMatrix(n, 8, 40, false, 7);
  Stopwatch w1;
  auto exact = cla::CompressedMatrix::Compress(m);
  double exact_ms = w1.ElapsedMillis();
  cla::CompressionOptions sampled_options;
  sampled_options.sample_rows = 2000;
  Stopwatch w2;
  auto sampled = cla::CompressedMatrix::Compress(m, sampled_options);
  double sampled_ms = w2.ElapsedMillis();
  bool match = exact.groups().size() == sampled.groups().size();
  for (size_t g = 0; match && g < exact.groups().size(); ++g) {
    match = exact.groups()[g]->format() == sampled.groups()[g]->format();
  }
  table.Row({"exact", Fmt(exact_ms, 1), Fmt(exact.CompressionRatio(), 2), "-"});
  table.Row({"sampled2k", Fmt(sampled_ms, 1), Fmt(sampled.CompressionRatio(), 2),
             match ? "yes" : "no"});
  table.EmitCsv("A2_planner");
  ctx.json->Record("ablation.planner.exact", SizeLabel(n, 8), 1, exact_ms * 1e6, 0.0);
  ctx.json->Record("ablation.planner.sampled2k", SizeLabel(n, 8), 1,
                   sampled_ms * 1e6, 0.0);
  std::printf("\n");
}

void CocodingAblation(const BenchContext& ctx) {
  const size_t n = ctx.smoke ? 10000 : 50000;
  std::printf("A3: CLA co-coding — correlated column pairs (n = %zu)\n", n);
  // Columns come in perfectly correlated pairs.
  auto base = data::LowCardinalityMatrix(n, 3, 6, false, 9);
  la::DenseMatrix m(n, 6);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t p = 0; p < 3; ++p) {
      m.At(i, 2 * p) = base.At(i, p);
      m.At(i, 2 * p + 1) = base.At(i, p) * 3.0 - 1.0;
    }
  }
  TablePrinter table({"cocoding", "groups", "bytes", "ratio"});
  Stopwatch w1;
  auto plain = cla::CompressedMatrix::Compress(m);
  double plain_ms = w1.ElapsedMillis();
  cla::CompressionOptions co;
  co.enable_cocoding = true;
  Stopwatch w2;
  auto coded = cla::CompressedMatrix::Compress(m, co);
  double coded_ms = w2.ElapsedMillis();
  table.Row({"off", bench::FmtInt(static_cast<long long>(plain.groups().size())),
             bench::FmtInt(static_cast<long long>(plain.SizeInBytes())),
             Fmt(plain.CompressionRatio(), 2)});
  table.Row({"on", bench::FmtInt(static_cast<long long>(coded.groups().size())),
             bench::FmtInt(static_cast<long long>(coded.SizeInBytes())),
             Fmt(coded.CompressionRatio(), 2)});
  table.EmitCsv("A3_cocoding");
  ctx.json->Record("ablation.cocoding.off", SizeLabel(n, 6), 1, plain_ms * 1e6,
                   0.0);
  ctx.json->Record("ablation.cocoding.on", SizeLabel(n, 6), 1, coded_ms * 1e6,
                   0.0);
  std::printf("\n");
}

void SolverAblation(const BenchContext& ctx) {
  const size_t ns = ctx.smoke ? 8000 : 40000;
  std::printf("A4: GLM over a join — solver/representation matrix (nS = %zu)\n",
              ns);
  data::StarSchemaOptions options;
  options.ns = ns;
  options.nr = 2000;
  options.ds = 2;
  options.dr = 20;
  auto ds = data::MakeStarSchema(options, 11);
  auto nm = std::make_shared<const factorized::NormalizedMatrix>(
      *factorized::NormalizedMatrix::Make(ds.xs, {{ds.xr, ds.fk}}));
  const laopt::Operand fact_x = factorized::MakeFactorizedOperand(nm);
  const std::string size = SizeLabel(ns, 22);

  ml::GlmConfig gd;
  gd.learning_rate = 0.01;
  gd.max_epochs = ctx.smoke ? 5 : 20;
  gd.tolerance = 0;

  TablePrinter table({"method", "ms", "loss"});
  {
    Stopwatch w;
    auto model = ml::TrainGlmOnOperand(fact_x, ds.y, gd);
    double ms = w.ElapsedMillis();
    if (!model.ok()) std::exit(1);
    table.Row({"fact_bgd", Fmt(ms, 1), Fmt(model->loss_history.back(), 4)});
    ctx.json->Record("ablation.solver.fact_bgd", size, 1, ms * 1e6, 0.0);
  }
  {
    Stopwatch w;
    auto x = nm->Materialize();
    auto model = ml::TrainGlm(x, ds.y, gd);
    double ms = w.ElapsedMillis();
    if (!model.ok()) std::exit(1);
    table.Row({"mat_bgd", Fmt(ms, 1), Fmt(model->loss_history.back(), 4)});
    ctx.json->Record("ablation.solver.mat_bgd", size, 1, ms * 1e6, 0.0);
  }
  {
    Stopwatch w;
    ml::GlmConfig ne;
    ne.solver = ml::GlmSolver::kNormalEquations;
    ml::GlmModel model;
    Status st = ml::RunNormalEquationsOnOperand(fact_x, ds.y, ne, nullptr, &model);
    double ms = w.ElapsedMillis();
    if (!st.ok()) std::exit(1);
    table.Row({"fact_gramian", Fmt(ms, 1), Fmt(model.loss_history.back(), 4)});
    ctx.json->Record("ablation.solver.fact_gramian", size, 1, ms * 1e6, 0.0);
  }
  {
    Stopwatch w;
    auto x = nm->Materialize();
    ml::GlmConfig ne;
    ne.solver = ml::GlmSolver::kNormalEquations;
    auto model = ml::TrainGlm(x, ds.y, ne);
    double ms = w.ElapsedMillis();
    if (!model.ok()) std::exit(1);
    table.Row({"mat_gramian", Fmt(ms, 1), Fmt(model->loss_history.back(), 4)});
    ctx.json->Record("ablation.solver.mat_gramian", size, 1, ms * 1e6, 0.0);
  }
  table.EmitCsv("A4_solvers");
  std::printf("\n");
}

void CseAblation(const BenchContext& ctx) {
  std::printf("A5: executor — structural CSE on vs off\n");
  const size_t n = ctx.smoke ? 500 : 1500;
  const size_t d = ctx.smoke ? 40 : 80;
  auto xm = std::make_shared<la::DenseMatrix>(data::GaussianMatrix(n, d, 13));
  // Build t(X)*X three times independently inside one expression.
  auto make_gram = [&] {
    auto x = *laopt::ExprNode::Input(xm, "X");
    return *laopt::ExprNode::MatMul(*laopt::ExprNode::Transpose(x), x);
  };
  auto expr = *laopt::ExprNode::Add(*laopt::ExprNode::Add(make_gram(), make_gram()),
                                    make_gram());

  TablePrinter table({"cse", "ops_executed", "ms"});
  {
    laopt::ExecStats stats;
    Stopwatch w;
    auto result = laopt::Execute(expr, nullptr, &stats);
    if (!result.ok()) std::exit(1);
    double ms = w.ElapsedMillis();
    table.Row({"off", bench::FmtInt(static_cast<long long>(stats.ops_executed)),
               Fmt(ms, 1)});
    ctx.json->Record("ablation.cse.off", SizeLabel(n, d), 1, ms * 1e6, 0.0);
  }
  {
    auto deduped = laopt::EliminateCommonSubexpressions(expr);
    if (!deduped.ok()) std::exit(1);
    laopt::ExecStats stats;
    Stopwatch w;
    auto result = laopt::Execute(*deduped, nullptr, &stats);
    if (!result.ok()) std::exit(1);
    double ms = w.ElapsedMillis();
    table.Row({"on", bench::FmtInt(static_cast<long long>(stats.ops_executed)),
               Fmt(ms, 1)});
    ctx.json->Record("ablation.cse.on", SizeLabel(n, d), 1, ms * 1e6, 0.0);
  }
  table.EmitCsv("A5_cse");
  std::printf("\n");
}

void HalvingAblation(const BenchContext& ctx) {
  const size_t n = ctx.smoke ? 1500 : 8000;
  const size_t epochs = ctx.smoke ? 16 : 64;
  std::printf("A6: model search — batched grid vs successive halving (16 configs)\n");
  auto ds = data::MakeClassification(n, 20, 0.05, 15);
  std::vector<ml::GlmConfig> configs;
  for (size_t i = 0; i < 16; ++i) {
    ml::GlmConfig c;
    c.family = ml::GlmFamily::kBinomial;
    c.learning_rate = 0.001 * static_cast<double>(1 << (i % 8));
    c.l2 = (i < 8) ? 0.0 : 0.01;
    c.max_epochs = epochs;
    c.tolerance = 0;
    configs.push_back(c);
  }
  const std::string size = SizeLabel(n, 20);

  TablePrinter table({"strategy", "wall_ms", "epoch_equiv", "winner_lr"});
  {
    Stopwatch w;
    auto models = modelsel::BatchedTrainGlm(ds.x, ds.y, configs);
    if (!models.ok()) std::exit(1);
    double ms = w.ElapsedMillis();
    // Pick by final loss.
    size_t best = 0;
    for (size_t c = 1; c < models->size(); ++c) {
      if ((*models)[c].loss_history.back() < (*models)[best].loss_history.back()) {
        best = c;
      }
    }
    table.Row({"grid_batched", Fmt(ms, 0),
               bench::FmtInt(static_cast<long long>(16 * epochs)),
               Fmt(configs[best].learning_rate, 3)});
    ctx.json->Record("ablation.search.grid_batched", size, 1, ms * 1e6, 0.0);
  }
  {
    modelsel::HalvingConfig hc;
    hc.min_epochs = ctx.smoke ? 4 : 8;
    hc.eta = 2.0;
    Stopwatch w;
    auto result = modelsel::SuccessiveHalving(ds.x, ds.y, configs, hc);
    if (!result.ok()) std::exit(1);
    double ms = w.ElapsedMillis();
    table.Row({"halving", Fmt(ms, 0),
               bench::FmtInt(static_cast<long long>(result->total_epoch_equivalents)),
               Fmt(configs[result->best_index].learning_rate, 3)});
    ctx.json->Record("ablation.search.halving", size, 1, ms * 1e6, 0.0);
  }
  table.EmitCsv("A6_halving");
}

void SparsePushAblation(const BenchContext& ctx) {
  std::printf(
      "\nA7: PS gradient sparsification — top-k pushes with error feedback\n");
  const size_t n = ctx.smoke ? 1500 : 6000;
  auto ds = data::MakeClassification(n, 100, 0.05, 17);
  TablePrinter table({"topk_frac", "coords_pushed", "final_loss", "accuracy"});
  for (double frac : {1.0, 0.25, 0.05, 0.01}) {
    if (ctx.smoke && frac != 1.0 && frac != 0.05) continue;
    ps::PsConfig config;
    config.num_workers = 2;
    config.epochs = ctx.smoke ? 5 : 20;
    config.batch_size = 64;
    config.learning_rate = 0.3;
    config.family = ml::GlmFamily::kBinomial;
    config.topk_fraction = frac;
    Stopwatch w;
    auto result = ps::TrainGlmParameterServer(ds.x, ds.y, config);
    if (!result.ok()) std::exit(1);
    double ms = w.ElapsedMillis();
    auto labels = result->model.PredictLabels(ds.x);
    double acc = labels.ok() ? *ml::Accuracy(ds.y, *labels) : 0.0;
    table.Row({Fmt(frac, 2),
               bench::FmtInt(static_cast<long long>(result->total_coordinates_pushed)),
               Fmt(result->loss_per_epoch.back(), 4), Fmt(acc, 4)});
    ctx.json->Record("ablation.ps.topk_" + Fmt(frac, 2), SizeLabel(n, 100), 2,
                     ms * 1e6, 0.0);
  }
  table.EmitCsv("A7_sparse_push");
}

void SparseTrainingAblation(const BenchContext& ctx) {
  std::printf("\nA8: GLM training — dense kernels vs CSR kernels by density\n");
  const size_t n = ctx.smoke ? 2000 : 10000;
  const size_t d = ctx.smoke ? 80 : 200;
  TablePrinter table({"density", "dense_ms", "sparse_ms", "speedup"});
  for (double density : {0.01, 0.05, 0.2, 0.5}) {
    if (ctx.smoke && density > 0.05) continue;
    auto sparse = data::SparseGaussianMatrix(n, d, density, 19);
    auto dense = sparse.ToDense();
    Rng rng(20);
    la::DenseMatrix w_true(d, 1);
    for (size_t j = 0; j < d; ++j) w_true.At(j, 0) = rng.Normal();
    la::DenseMatrix y = la::SparseGemv(sparse, w_true);

    ml::GlmConfig config;
    config.learning_rate = 0.2;
    config.max_epochs = ctx.smoke ? 5 : 15;
    config.tolerance = 0;
    Stopwatch w1;
    auto dense_model = ml::TrainGlm(dense, y, config);
    double dense_ms = w1.ElapsedMillis();
    const laopt::Operand csr(std::make_shared<const la::SparseMatrix>(std::move(sparse)));
    Stopwatch w2;
    auto sparse_model = ml::TrainGlmOnOperand(csr, y, config);
    double sparse_ms = w2.ElapsedMillis();
    if (!dense_model.ok() || !sparse_model.ok()) std::exit(1);
    table.Row({Fmt(density, 2), Fmt(dense_ms, 1), Fmt(sparse_ms, 1),
               Fmt(dense_ms / sparse_ms, 2)});
    const std::string size = SizeLabel(n, d) + "@" + Fmt(density, 2);
    ctx.json->Record("ablation.glm.dense", size, 1, dense_ms * 1e6, 0.0);
    ctx.json->Record("ablation.glm.sparse", size, 1, sparse_ms * 1e6, 0.0);
  }
  table.EmitCsv("A8_sparse_training");
}

void FusionAblation(const BenchContext& ctx) {
  std::printf("\nA9: executor — elementwise fusion on vs off (7-op chain)\n");
  const size_t n = ctx.smoke ? 500 : 2000;
  const size_t d = ctx.smoke ? 200 : 500;
  auto a = std::make_shared<la::DenseMatrix>(data::GaussianMatrix(n, d, 21));
  auto b = std::make_shared<la::DenseMatrix>(data::GaussianMatrix(n, d, 22));
  auto c = std::make_shared<la::DenseMatrix>(data::GaussianMatrix(n, d, 23));
  auto ea = *laopt::ExprNode::Input(a, "A");
  auto eb = *laopt::ExprNode::Input(b, "B");
  auto ec = *laopt::ExprNode::Input(c, "C");
  // 2A + B.*C - 0.5B + A.*A: seven elementwise ops. The "off" arm runs the
  // DAG as built, one op (and one written buffer) at a time; the "on" arm
  // runs Optimize's plan, where the chain is one fused node.
  auto expr = *laopt::ExprNode::Add(
      *laopt::ExprNode::Subtract(
          *laopt::ExprNode::Add(*laopt::ExprNode::ScalarMul(2.0, ea),
                                *laopt::ExprNode::ElemMul(eb, ec)),
          *laopt::ExprNode::ScalarMul(0.5, eb)),
      *laopt::ExprNode::ElemMul(ea, ea));
  auto fused = laopt::Optimize(expr);
  if (!fused.ok()) std::exit(1);

  // Serial executors, one per arm, held across reps: the first run sizes
  // the buffers (counted as allocs), the timed reps reuse them.
  obs::Counter* allocs = obs::MetricsRegistry::Global().GetCounter("la.inplace.allocs");
  const int reps = ctx.smoke ? 5 : 20;
  TablePrinter table({"fusion", "ms_per_eval", "ops", "buffers", "allocs"});
  struct Arm {
    const char* name;
    laopt::ExprPtr plan;
    laopt::BufferedExecutor executor;
    const la::DenseMatrix* out = nullptr;
  };
  std::vector<Arm> arms(2);
  arms[0].name = "off";
  arms[0].plan = expr;
  arms[1].name = "on";
  arms[1].plan = *fused;
  for (Arm& arm : arms) {
    laopt::ExecStats stats;
    const uint64_t allocs_before = allocs->Value();
    if (!arm.executor.Run(arm.plan, &stats).ok()) std::exit(1);
    const uint64_t first_run_allocs = allocs->Value() - allocs_before;
    Stopwatch w;
    for (int r = 0; r < reps; ++r) {
      auto result = arm.executor.Run(arm.plan);
      if (!result.ok()) std::exit(1);
      arm.out = *result;
    }
    const double ms = w.ElapsedMillis() / reps;
    table.Row({arm.name, Fmt(ms, 2), std::to_string(stats.ops_executed),
               std::to_string(arm.executor.num_buffers()),
               std::to_string(first_run_allocs)});
    ctx.json->Record(std::string("ablation.fusion.") + arm.name, SizeLabel(n, d),
                     1, ms * 1e6, 0.0);
  }
  table.EmitCsv("A9_fusion");
  const la::DenseMatrix& off = *arms[0].out;
  const la::DenseMatrix& on = *arms[1].out;
  if (off.rows() != on.rows() || off.cols() != on.cols() ||
      std::memcmp(off.data(), on.data(), off.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "A9: fused and unfused results differ\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) ctx.smoke = true;
  }
  bench::BenchJsonEmitter json;
  ctx.json = &json;

  dmml::bench::ObsServerScope obs_server;  // DMML_OBS_PORT exposition
  std::printf("Ablation experiments over dmml design choices%s\n\n",
              ctx.smoke ? " (smoke)" : "");
  JoinAblation(ctx);
  PlannerAblation(ctx);
  CocodingAblation(ctx);
  SolverAblation(ctx);
  CseAblation(ctx);
  HalvingAblation(ctx);
  SparsePushAblation(ctx);
  SparseTrainingAblation(ctx);
  FusionAblation(ctx);
  json.Emit("ablations");
  dmml::bench::EmitMetrics("ablations");
  return 0;
}
