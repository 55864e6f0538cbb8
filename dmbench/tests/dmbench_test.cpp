// Tests of the benchmark itself: its statistics, its failure accounting, the
// replay-parity check, and a tiny-size pass over every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "runner.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace dmbench {
namespace {

std::string WorkDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "dmbench_test_work" / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Stats, TrimmedMeanDropsATenthAtEachEnd) {
  std::vector<double> v = {100, 1, 2, 3, 4, 5, 6, 7, 8, -50};
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.1), 4.5);  // -50 and 100 dropped.
  v.resize(9);
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.1), 136.0 / 9);  // Too few to drop any.
  EXPECT_EQ(TrimmedMean({}, 0.1), 0);
  // Two modes: the median sits on one; the trimmed mean moves with the mix.
  const std::vector<double> modes = {1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(Median(modes), 2);
  EXPECT_NEAR(TrimmedMean(modes, 0.1), 14.0 / 9, 1e-12);
}

TEST(Stats, TailP90KeepsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  double pct = 0;
  EXPECT_EQ(TailP90(v, &pct), 90);  // Ten samples (91..100) beyond it.
  EXPECT_EQ(pct, 90);

  v.resize(50);
  EXPECT_EQ(TailP90(v, &pct), 40);  // p90 would leave only five beyond.
  EXPECT_EQ(pct, 80);

  v.resize(15);
  EXPECT_EQ(TailP90(v, &pct), 8);  // Too few for any tail: the median.
  EXPECT_EQ(pct, 50);
}

TEST(Stats, RateIsTotalWorkOverTotalTime) {
  // A stalled op (10 s for 1 unit) drags the rate down even though the
  // median op time would not move.
  EXPECT_DOUBLE_EQ(RatePerSecond({1, 1, 1}, {1, 1, 10}), 3.0 / 12.0);
  EXPECT_EQ(RatePerSecond({1}, {0}), 0);
}

TEST(Stats, MaxRelDiffRejectsShapeAndNonFinite) {
  EXPECT_EQ(MaxRelDiff({1, 2}, {1, 2}), 0);
  EXPECT_DOUBLE_EQ(MaxRelDiff({100.5}, {100}), 0.005);
  EXPECT_DOUBLE_EQ(MaxRelDiff({0.5}, {0}), 0.5);  // Absolute below 1.
  EXPECT_TRUE(std::isinf(MaxRelDiff({1}, {1, 2})));
  EXPECT_TRUE(std::isinf(MaxRelDiff({std::nan("")}, {1})));
}

TEST(Stats, HistogramDeltaPercentileUsesOnlyNewObservations) {
  const std::vector<double> bounds = {10, 20, 40};
  // Old observations in the first bucket must not count.
  EXPECT_DOUBLE_EQ(
      HistogramDeltaPercentile(bounds, {5, 0, 0, 0}, {5, 2, 2, 0}, 50), 20);
  EXPECT_DOUBLE_EQ(
      HistogramDeltaPercentile(bounds, {0, 0, 0, 0}, {0, 0, 0, 3}, 50), 40);
  EXPECT_EQ(HistogramDeltaPercentile(bounds, {1, 1, 1, 1}, {1, 1, 1, 1}, 50), 0);
}

// A tiny workload run up to one op, with its output.
struct OneOp {
  dmml::ThreadPool pool{2};
  std::unique_ptr<Workload> w;
  OpOutput out;

  explicit OneOp(const std::string& name) {
    WorkloadContext ctx;
    ctx.pool = &pool;
    ctx.seed = 7;
    ctx.workdir = WorkDir("oneop-" + name);
    ctx.tiny = true;
    w = std::move(MakeWorkload(name, ctx)).ValueOrDie();
    Values values;
    EXPECT_TRUE(w->Prologue().ok());
    EXPECT_TRUE(w->PrepareOp(0).ok());
    EXPECT_TRUE(w->Setup(&values).ok());
    Result<OpOutput> r = w->RunOp(0);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out = *r;
  }
};

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, PerturbedOrShortModelIsAFailedOp) {
  OneOp one(GetParam());
  ASSERT_TRUE(one.w->CheckOp(0, one.out).ok());

  RunReport report;
  RecordOutcome(one.w->CheckOp(0, one.out), "op", &report);
  EXPECT_EQ(report.failed, 0u);

  OpOutput perturbed = one.out;
  perturbed.model[perturbed.model.size() / 2] += 1e-6;
  RecordOutcome(one.w->CheckOp(0, perturbed), "op", &report);

  OpOutput stopped_early = one.out;
  stopped_early.iterations -= 1;
  RecordOutcome(one.w->CheckOp(0, stopped_early), "op", &report);

  EXPECT_EQ(report.attempted, 3u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_FALSE(report.correct);
  EXPECT_EQ(report.errors.size(), 2u);
}

TEST_P(EveryWorkload, ReplayReproducesThePlainModel) {
  OneOp one(GetParam());
  SpanRecorder spans;
  Values values;
  spans.BeginOp(0);
  Result<OpOutput> replay = one.w->ReplayOp(0, one.out, &spans, &values);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(ReplayMatches(one.out, *replay).ok());
  EXPECT_FALSE(spans.spans().empty());

  OpOutput off = *replay;
  off.model[0] += 1e-9;
  EXPECT_FALSE(ReplayMatches(one.out, off).ok());
  off = *replay;
  off.iterations += 1;
  EXPECT_FALSE(ReplayMatches(one.out, off).ok());
}

TEST_P(EveryWorkload, TinyRunHasNoFailedOpAndFiniteMetrics) {
  for (bool trace : {false, true}) {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 3;
    o.seconds = 0;  // Only the minimum number of ops.
    o.trace = trace;
    o.tiny = true;
    o.workdir = WorkDir("run");
    Result<RunReport> r = RunBenchmark(o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->correct);
    EXPECT_EQ(r->failed, 0u);
    // Set-ups' warm-up ops, plain ops, and one replay per plain op.
    EXPECT_EQ(r->attempted, kSetups + kMinOps * (trace ? 2 : 1));

    for (const auto& [name, value] : r->metrics) {
      EXPECT_TRUE(std::isfinite(value)) << name;
    }
    if (trace) {
      EXPECT_EQ(r->metrics.at("laopt.sched.pool_shared_runs"), 0);
      EXPECT_GT(r->metrics.at("op.wall_s_p50"), 0);
      EXPECT_GT(r->metrics.at("op.wall_s_p90"), 0);
    } else {
      ASSERT_EQ(r->metrics.size(), 4u);
      for (const char* name : {"op_cpu_s_trim10", "row_epochs_per_cpu_s", "peak_rss_mb", "setup_s"}) {
        EXPECT_GT(r->metrics.at(name), 0) << name;
      }
    }
    EXPECT_EQ(r->ToJson().find("nan"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::ValuesIn(WorkloadNames()));

// The chooser factorizes star_factorized today; if it ever picks the
// materialized route, the replay must follow it rather than rebuild the
// factorized one.
TEST(StarFactorized, ReplayFollowsTheMaterializedRoute) {
  OneOp one("star_factorized");
  ASSERT_EQ(one.out.route, "factorized");
  OpOutput plain = one.out;
  plain.route = "materialized";
  SpanRecorder spans;
  Values values;
  spans.BeginOp(0);
  Result<OpOutput> replay = one.w->ReplayOp(0, plain, &spans, &values);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->route, "materialized");
  EXPECT_EQ(spans.Seconds(0, "factorized.build"), 0);
  EXPECT_GT(spans.Seconds(0, "storage.to_matrix"), 0);
  // The check's reference is the pipeline forced onto this route.
  EXPECT_TRUE(one.w->CheckOp(0, *replay).ok());
}

TEST(Workloads, UnknownNameIsRejected) {
  WorkloadContext ctx;
  EXPECT_FALSE(MakeWorkload("nope", ctx).ok());
}

}  // namespace
}  // namespace dmbench
