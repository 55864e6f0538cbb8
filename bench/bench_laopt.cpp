// Experiment E3 — linear-algebra plan rewrites (the SystemML result).
//
// Times characteristic expressions with the optimizer off vs on:
//   * t(X)·X·t(X)·v evaluated left-to-right vs DP-reordered
//   * the Gram-vector pattern t(X)·(X·v) mis-associated as (t(X)·X)·v
//   * a skewed 4-matrix chain
// Expected shape: order-of-magnitude wins when the chain passes through a
// skinny intermediate; rewrites never change results.
//
// Also checks the representation-polymorphic execution overhead: the unified
// operand GLM trainer bound to a CompressedMatrix must stay within ~10% of a
// hand-coded loop over the same compressed kernels (it dispatches to the
// identical MultiplyVector / VectorMultiply ops, so the delta is pure
// executor overhead). `--smoke` shrinks every section for CI.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cla/compressed_matrix.h"
#include "data/generators.h"
#include "laopt/analysis.h"
#include "laopt/executor.h"
#include "laopt/expr.h"
#include "laopt/operand.h"
#include "laopt/optimizer.h"
#include "laopt/profile.h"
#include "ml/glm.h"
#include "ml/unified_trainers.h"
#include "util/stopwatch.h"

namespace {

using namespace dmml;  // NOLINT
using bench::Fmt;
using bench::TablePrinter;
using laopt::ExprNode;
using laopt::ExprPtr;

ExprPtr Leaf(la::DenseMatrix m, const char* name) {
  return *ExprNode::Input(std::make_shared<la::DenseMatrix>(std::move(m)), name);
}

void RunCase(TablePrinter* table, bench::BenchJsonEmitter* json,
             const std::string& size, const char* name, const ExprPtr& expr,
             int reps) {
  laopt::OptimizerReport report;
  auto optimized = laopt::Optimize(expr, {}, &report);
  if (!optimized.ok()) std::exit(1);

  Stopwatch w1;
  for (int r = 0; r < reps; ++r) {
    auto result = laopt::Execute(expr);
    if (!result.ok()) std::exit(1);
  }
  double naive_ms = w1.ElapsedMillis() / reps;
  Stopwatch w2;
  for (int r = 0; r < reps; ++r) {
    auto result = laopt::Execute(*optimized);
    if (!result.ok()) std::exit(1);
  }
  double opt_ms = w2.ElapsedMillis() / reps;

  table->Row({name, Fmt(report.flops_before / 1e6, 1), Fmt(report.flops_after / 1e6, 1),
              Fmt(naive_ms, 2), Fmt(opt_ms, 2), Fmt(naive_ms / opt_ms, 2)});
  json->Record(std::string(name) + ".naive", size, 1, naive_ms * 1e6,
               report.flops_before / (naive_ms * 1e6));
  json->Record(std::string(name) + ".optimized", size, 1, opt_ms * 1e6,
               report.flops_after / (opt_ms * 1e6));
}

// The pre-refactor hand-written compressed GLM epoch loop (Gaussian batch
// gradient on the raw CompressedMatrix kernels) — kept here as the baseline
// the unified operand trainer is measured against.
double HandCodedCompressedGlmMsPerEpoch(const cla::CompressedMatrix& x,
                                        const la::DenseMatrix& y,
                                        const ml::GlmConfig& config) {
  const size_t n = x.rows(), d = x.cols();
  const double inv_n = 1.0 / static_cast<double>(n);
  la::DenseMatrix w(d, 1);
  double intercept = 0;
  la::DenseMatrix scores;
  la::DenseMatrix grad;
  Stopwatch watch;
  for (size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (!x.MultiplyVectorInto(w, &scores, nullptr).ok()) std::exit(1);
    double loss = 0;
    double bias_grad = 0;
    for (size_t i = 0; i < n; ++i) {
      double r = scores.At(i, 0) + intercept - y.At(i, 0);
      loss += 0.5 * r * r;
      scores.At(i, 0) = r;
      bias_grad += r;
    }
    loss *= inv_n;
    if (!x.VectorMultiplyInto(scores, &grad, nullptr).ok()) std::exit(1);
    double lr =
        config.learning_rate / (1.0 + config.lr_decay * static_cast<double>(epoch));
    for (size_t j = 0; j < d; ++j) {
      w.At(j, 0) -= lr * (grad.At(0, j) * inv_n + config.l2 * w.At(j, 0));
    }
    if (config.fit_intercept) intercept -= lr * bias_grad * inv_n;
    (void)loss;
  }
  return watch.ElapsedMillis() / static_cast<double>(config.max_epochs);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The demo EXPLAIN ANALYZE profile outlives the exposition-server scope
  // below (destruction is reverse order), so a scraper arriving during the
  // DMML_OBS_HOLD_SECS window still sees `/profiles` → "bench.glm_epoch".
  auto epoch_profile = std::make_shared<laopt::PlanProfile>();
  obs::ScopedProfileRegistration epoch_profile_reg;
  bench::ObsServerScope obs_server;  // no-op unless DMML_OBS_PORT is set

  std::printf("E3: LA expression rewrites — naive plan vs optimized plan%s\n\n",
              smoke ? " (smoke)" : "");
  TablePrinter table({"expression", "mflops_pre", "mflops_post", "naive_ms",
                      "opt_ms", "speedup"},
                     13);

  const size_t n = smoke ? 1200 : 4000;
  const size_t d = smoke ? 40 : 60;
  const std::string size = std::to_string(n) + "x" + std::to_string(d);
  auto x = Leaf(data::GaussianMatrix(n, d, 1), "X");
  auto v = Leaf(data::GaussianMatrix(n, 1, 2), "v");
  auto xt = *ExprNode::Transpose(x);

  bench::BenchJsonEmitter json;

  // Gram-vector pattern mis-associated: (t(X)*X)*(t(X)*v).
  auto gram_bad = *ExprNode::MatMul(*ExprNode::MatMul(xt, x), *ExprNode::MatMul(xt, v));
  RunCase(&table, &json, size, "gram_vector", gram_bad, smoke ? 2 : 5);

  // Skewed chain: X(n x d) B(d x n) C(n x 1). Left-to-right builds an
  // n x n intermediate; the optimal order never leaves skinny shapes.
  auto b = Leaf(data::GaussianMatrix(d, n, 4), "B");
  auto c = Leaf(data::GaussianMatrix(n, 1, 5), "C");
  auto chain = *ExprNode::MatMul(*ExprNode::MatMul(x, b), c);
  RunCase(&table, &json, size, "skewed_chain", chain, smoke ? 1 : 2);

  // Scalar + transpose clutter: 2*(3*(t(t(X)) * v2)) with v2 (d x 1).
  auto v2 = Leaf(data::GaussianMatrix(d, 1, 6), "v2");
  auto cluttered = *ExprNode::ScalarMul(
      2.0, *ExprNode::ScalarMul(
               3.0, *ExprNode::MatMul(*ExprNode::Transpose(xt), v2)));
  RunCase(&table, &json, size, "scalar_clutter", cluttered, smoke ? 5 : 20);

  // Representation-polymorphic overhead: unified operand trainer bound to a
  // CompressedMatrix vs the hand-coded epoch loop over the same kernels.
  // Five epochs keep both sizes on the engine's scan route (the statistics
  // pass would cost n·d(d+1), more than 5 epochs of 4·n·d scans), so the
  // two arms run the same kernels; the statistics route is timed apart.
  {
    const size_t gn = smoke ? 4000 : 20000;
    const size_t gd = 30;
    const size_t epochs = 5;
    const size_t statistics_epochs = 20;
    auto dense = data::LowCardinalityMatrix(gn, gd, 6, /*run_sorted=*/false, 9);
    auto y = data::GaussianMatrix(gn, 1, 10);
    auto compressed = cla::CompressedMatrix::Compress(dense);

    ml::GlmConfig config;
    config.family = ml::GlmFamily::kGaussian;
    config.learning_rate = 0.01;
    config.max_epochs = epochs;
    config.tolerance = 0;  // Fixed work: every run does `epochs` epochs.

    // Best-of-3 per variant: single 5-epoch timings are too noisy for the
    // smoke gate below, and "best" is the right estimator for pure-overhead
    // comparisons (noise only ever adds time).
    const int trials = 3;
    double hand_ms = std::numeric_limits<double>::infinity();
    double unified_ms = std::numeric_limits<double>::infinity();
    double profiled_ms = std::numeric_limits<double>::infinity();
    laopt::Operand operand(std::shared_ptr<const cla::CompressedMatrix>(
        std::shared_ptr<void>(), &compressed));
    obs::Counter* statistics_runs =
        obs::MetricsRegistry::Global().GetCounter("ml.glm.route.statistics");
    const uint64_t statistics_before = statistics_runs->Value();
    for (int t = 0; t < trials; ++t) {
      hand_ms = std::min(hand_ms,
                         HandCodedCompressedGlmMsPerEpoch(compressed, y, config));

      Stopwatch watch;
      auto unified = ml::TrainGlmOnOperand(operand, y, config);
      if (!unified.ok()) std::exit(1);
      unified_ms = std::min(
          unified_ms, watch.ElapsedMillis() / static_cast<double>(unified->epochs_run));

      Stopwatch pwatch;
      auto profiled =
          ml::TrainGlmOnOperand(operand, y, config, nullptr, epoch_profile.get());
      if (!profiled.ok()) std::exit(1);
      profiled_ms = std::min(
          pwatch.ElapsedMillis() / static_cast<double>(profiled->epochs_run),
          profiled_ms);
    }
    if (statistics_runs->Value() != statistics_before) {
      std::fprintf(stderr,
                   "compressed GLM: the unified arm left the scan route, so it "
                   "no longer runs the hand-coded loop's kernels\n");
      return 1;
    }
    epoch_profile_reg = laopt::RegisterProfile("bench.glm_epoch", epoch_profile);

    // The same matrix for 20 epochs: the route rule picks the statistics
    // route (one Gram pass, then d×d work per epoch).
    ml::GlmConfig stats_config = config;
    stats_config.max_epochs = statistics_epochs;
    double statistics_ms = std::numeric_limits<double>::infinity();
    for (int t = 0; t < trials; ++t) {
      Stopwatch watch;
      auto trained = ml::TrainGlmOnOperand(operand, y, stats_config);
      if (!trained.ok()) std::exit(1);
      statistics_ms = std::min(
          statistics_ms, watch.ElapsedMillis() / static_cast<double>(trained->epochs_run));
    }
    if (statistics_runs->Value() != statistics_before + trials) {
      std::fprintf(stderr, "compressed GLM: the 20-epoch arm did not take the "
                           "statistics route\n");
      return 1;
    }

    const std::string gsize = std::to_string(gn) + "x" + std::to_string(gd);
    json.Record("compressed_glm_epoch.handcoded", gsize, 1, hand_ms * 1e6, 0.0);
    json.Record("compressed_glm_epoch.unified", gsize, 1, unified_ms * 1e6, 0.0);
    json.Record("compressed_glm_epoch.profiled", gsize, 1, profiled_ms * 1e6, 0.0);
    json.Record("compressed_glm_epoch.statistics", gsize, 1, statistics_ms * 1e6, 0.0);
    std::printf(
        "\ncompressed GLM (%s, %zu epochs, scan route): hand-coded %.2f ms/epoch,\n"
        "unified operand path %.2f ms/epoch (overhead %+.1f%%; same MultiplyVector /\n"
        "VectorMultiply kernels, delta is executor dispatch), with EXPLAIN\n"
        "ANALYZE profiling attached %.2f ms/epoch (%+.1f%% over unified)\n"
        "statistics route (%zu epochs, Gram pass included): %.2f ms/epoch\n",
        gsize.c_str(), epochs, hand_ms, unified_ms,
        (unified_ms / hand_ms - 1.0) * 100.0, profiled_ms,
        (profiled_ms / unified_ms - 1.0) * 100.0, statistics_epochs, statistics_ms);

    if (smoke) {
      // CI gate: with no profile attached, the executor's per-node cost is a
      // single pointer test. The unified path carries ~10% dispatch overhead
      // over the hand-coded loop by construction (measured before the
      // profiler existed), so the bound leaves noise headroom above that and
      // trips on any real profiler-off regression stacked on top.
      const char* env = std::getenv("DMML_SMOKE_PROFILER_BOUND");
      double bound = (env != nullptr && env[0] != '\0') ? std::atof(env) : 1.25;
      double ratio = unified_ms / hand_ms;
      if (ratio > bound) {
        std::fprintf(stderr,
                     "SMOKE FAIL: profiler-disabled unified epoch %.3f ms vs "
                     "hand-coded %.3f ms (ratio %.3f > bound %.3f)\n",
                     unified_ms, hand_ms, ratio, bound);
        return 1;
      }
      std::printf("smoke: profiler-off overhead ratio %.3f within bound %.3f\n",
                  ratio, bound);
    }

    std::printf("\nEXPLAIN ANALYZE (GLM epoch plans, %" PRIu64 " profiled runs):\n%s\n",
                epoch_profile->runs(), epoch_profile->ExplainAnalyzeText().c_str());
  }

  // Liveness-driven buffer sharing: a wide add-tree over independent X*w_i
  // products has many short-lived intermediates. The static schedule
  // (laopt::ComputeSchedule) packs them into ~max_live buffers; results must
  // stay bit-identical to the dedicated-buffer executor.
  {
    const size_t bn = smoke ? 512 : 2048;
    const size_t bd = smoke ? 16 : 32;
    const int fan = 16;
    auto xm = std::make_shared<la::DenseMatrix>(data::GaussianMatrix(bn, bd, 40));
    auto xleaf = *ExprNode::Input(xm, "X");
    std::vector<ExprPtr> layer;
    std::vector<std::shared_ptr<la::DenseMatrix>> keep;
    for (int i = 0; i < fan; ++i) {
      auto w =
          std::make_shared<la::DenseMatrix>(data::GaussianMatrix(bd, 1, 41 + i));
      keep.push_back(w);
      layer.push_back(*ExprNode::MatMul(xleaf, *ExprNode::Input(w, "w")));
    }
    while (layer.size() > 1) {
      std::vector<ExprPtr> next;
      for (size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(*ExprNode::Add(layer[i], layer[i + 1]));
      }
      layer = std::move(next);
    }
    ExprPtr wide = layer[0];

    laopt::BufferedExecutor dedicated;
    dedicated.set_buffer_sharing(false);
    laopt::BufferedExecutor pooled;
    auto baseline = dedicated.Run(wide);
    if (!baseline.ok()) std::exit(1);
    la::DenseMatrix expected = **baseline;
    auto pooled_out = pooled.Run(wide);
    if (!pooled_out.ok()) std::exit(1);
    for (size_t i = 0; i < expected.size(); ++i) {
      if ((*pooled_out)->data()[i] != expected.data()[i]) {
        std::fprintf(stderr,
                     "FAIL: buffer sharing changed results at element %zu\n", i);
        return 1;
      }
    }

    const int reps = smoke ? 10 : 50;
    Stopwatch wd;
    for (int r = 0; r < reps; ++r) {
      if (!dedicated.Run(wide).ok()) std::exit(1);
    }
    double dedicated_ms = wd.ElapsedMillis() / reps;
    Stopwatch ws;
    for (int r = 0; r < reps; ++r) {
      if (!pooled.Run(wide).ok()) std::exit(1);
    }
    double pooled_ms = ws.ElapsedMillis() / reps;

    auto schedule = laopt::ComputeSchedule(wide);
    if (!schedule.ok()) std::exit(1);
    const std::string bsize = std::to_string(bn) + "x" + std::to_string(bd) +
                              "x" + std::to_string(fan);
    std::printf(
        "\nbuffer sharing (wide DAG %s): dedicated %zu buffers %.3f ms/run, "
        "shared %zu buffers %.3f ms/run (levels %zu, max_live %zu)\n",
        bsize.c_str(), dedicated.num_buffers(), dedicated_ms,
        pooled.num_buffers(), pooled_ms, schedule->num_levels(),
        schedule->max_live());
    json.Record("buffer_sharing.dedicated", bsize, 1, dedicated_ms * 1e6, 0.0);
    json.Record("buffer_sharing.shared", bsize, 1, pooled_ms * 1e6, 0.0);

    // Counter-asserted acceptance gate: liveness sharing must actually reduce
    // the number of distinct buffers behind this plan.
    if (pooled.num_buffers() >= dedicated.num_buffers()) {
      std::fprintf(stderr,
                   "FAIL: buffer sharing did not reduce buffers (%zu vs %zu)\n",
                   pooled.num_buffers(), dedicated.num_buffers());
      return 1;
    }
  }

  // Inter-node DAG scheduling: 8 independent subtrees (a Gram colSums and a
  // GLM-epoch-style gradient t(X)·(X·w) each) joined by one add-tree. The
  // dataflow executor launches every ready node as its inputs complete;
  // serial and inter-node runs must stay bit-identical, and the wavefront
  // gauge must show real overlap. On a 1-CPU host the speedup column is
  // expected to hover near 1.0x — the parity and width gates still bite.
  {
    const size_t sn = smoke ? 384 : 1536;
    const size_t sd = smoke ? 24 : 48;
    const int fan = 8;
    std::vector<ExprPtr> parts;
    for (int i = 0; i < fan; ++i) {
      auto xi = Leaf(data::GaussianMatrix(sn, sd, 60 + i), "Xs");
      auto wi = Leaf(data::GaussianMatrix(sd, 1, 80 + i), "ws");
      auto xit = *ExprNode::Transpose(xi);
      auto gram = *ExprNode::MatMul(xit, xi);                       // d x d
      auto grad = *ExprNode::MatMul(xit, *ExprNode::MatMul(xi, wi));  // d x 1
      parts.push_back(*ExprNode::Add(*ExprNode::ColSums(gram),
                                     *ExprNode::Transpose(grad)));
    }
    while (parts.size() > 1) {
      std::vector<ExprPtr> next;
      for (size_t i = 0; i + 1 < parts.size(); i += 2) {
        next.push_back(*ExprNode::Add(parts[i], parts[i + 1]));
      }
      parts = std::move(next);
    }
    ExprPtr wide = parts[0];

    laopt::BufferedExecutor serial;
    serial.set_inter_node(false);
    if (!serial.Run(wide).ok()) std::exit(1);  // Warm-up: plan preparation.

    const int reps = smoke ? 5 : 30;
    Stopwatch wserial;
    for (int r = 0; r < reps; ++r) {
      if (!serial.Run(wide).ok()) std::exit(1);
    }
    double serial_ms = wserial.ElapsedMillis() / reps;
    const std::string ssize = std::to_string(sn) + "x" + std::to_string(sd) +
                              "x" + std::to_string(fan);
    json.Record("sched_wide.serial", ssize, 1, serial_ms * 1e6, 0.0);

    std::printf(
        "\ninter-node scheduling (wide DAG %s): serial %.3f ms/run\n",
        ssize.c_str(), serial_ms);
    bool parity_ok = true;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ThreadPool pool(threads);
      // Parity gate versus the same pool with inter-node scheduling off:
      // kernel chunking depends on pool size (a morsel property that
      // predates the scheduler), but for a fixed pool the dataflow schedule
      // must not change a single bit.
      laopt::BufferedExecutor intra_only(&pool);
      intra_only.set_inter_node(false);
      auto intra_out = intra_only.Run(wide);
      if (!intra_out.ok()) std::exit(1);
      la::DenseMatrix intra_expected = **intra_out;
      laopt::BufferedExecutor sched(&pool);
      sched.set_inter_node(true);
      auto out = sched.Run(wide);
      if (!out.ok()) std::exit(1);
      for (size_t i = 0; i < intra_expected.size(); ++i) {
        if ((*out)->data()[i] != intra_expected.data()[i]) {
          std::fprintf(stderr,
                       "FAIL: inter-node run (%zu threads) diverged at "
                       "element %zu\n",
                       threads, i);
          parity_ok = false;
          break;
        }
      }
      Stopwatch wpar;
      for (int r = 0; r < reps; ++r) {
        if (!sched.Run(wide).ok()) std::exit(1);
      }
      double par_ms = wpar.ElapsedMillis() / reps;
      std::printf("  inter-node %zu threads: %.3f ms/run (%.2fx)\n", threads,
                  par_ms, serial_ms / par_ms);
      json.Record("sched_wide.inter_node", ssize, threads, par_ms * 1e6, 0.0);
    }
    const double peak_width = obs::MetricsRegistry::Global()
                                  .GetGauge("laopt.sched.max_ready_width")
                                  ->Value();
    const auto conflicts = obs::MetricsRegistry::Global()
                               .GetCounter("laopt.sched.buffer_conflicts")
                               ->Value();
    std::printf("  peak wavefront width %.0f, buffer conflicts %llu\n",
                peak_width, static_cast<unsigned long long>(conflicts));
    if (!parity_ok || peak_width <= 1.0 || conflicts != 0) {
      std::fprintf(stderr,
                   "%s: inter-node gate (parity %d, width %.0f, conflicts "
                   "%llu)\n",
                   smoke ? "SMOKE FAIL" : "FAIL", parity_ok ? 1 : 0, peak_width,
                   static_cast<unsigned long long>(conflicts));
      return 1;
    }
  }

  table.EmitCsv("E3_laopt");
  json.Emit("E3_laopt");

  // Static-analyzer throughput: shape/sparsity/footprint inference over a
  // deep elementwise DAG. Plan-time analysis must stay negligible next to
  // even one kernel launch.
  {
    ExprPtr deep = x;
    for (int i = 0; i < 200; ++i) {
      deep = *ExprNode::Add(deep, *ExprNode::ScalarMul(0.5, x));
    }
    Stopwatch w;
    auto analysis = laopt::AnalyzeDag(deep);
    double us = w.ElapsedMillis() * 1000.0;
    if (!analysis.ok()) std::exit(1);
    const auto* root_info = analysis->Find(deep.get());
    std::printf(
        "\nanalysis: %zu nodes in %.1f us (%.2f us/node), root estimate %s, "
        "%.0f MB\n",
        analysis->NumAnalyzed(), us, us / analysis->NumAnalyzed(),
        root_info->shape.ToString().c_str(),
        static_cast<double>(root_info->est_bytes) / (1024.0 * 1024.0));
  }

  std::printf(
      "\nExpected shape (SystemML): large wins whenever the optimizer routes a\n"
      "chain through skinny intermediates (gram_vector, skewed_chain);\n"
      "no regression on already-cheap plans (scalar_clutter).\n");
  dmml::bench::EmitMetrics("laopt");
  return 0;
}
