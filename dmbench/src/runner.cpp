#include "runner.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "probe.h"
#include "stats.h"

namespace dmbench {

namespace {

// A replay makes the same calls on the same inputs, so its model matches the
// plain op's up to floating-point noise.
constexpr double kReplayTolerance = 1e-12;
constexpr size_t kMaxErrors = 5;
// Share of samples dropped at each end of a trimmed mean.
constexpr double kTrim = 0.1;

// Everything measured about one timed op.
struct OpSample {
  double wall_s = 0;
  double cpu_s = 0;
  double minor_faults = 0;
  double peak_rss_mb = 0;
  Values counters;
  Result<OpOutput> output = Status::Internal("not run");
};

OpSample TimeOp(Workload* w, size_t op) {
  OpSample s;
  const ObsSnapshot before = ObsSnapshot::Take();
  ResetReadyWidthPeak();
  const ProcessSample p0 = SampleProcess();
  ResetPeakRss();
  const uint64_t t0 = NowNs();
  s.output = w->RunOp(op);
  s.wall_s = SecondsSince(t0);
  const ProcessSample p1 = SampleProcess();
  s.peak_rss_mb = PeakRssMb();
  s.counters = ObsDelta(before, ObsSnapshot::Take());
  s.cpu_s = p1.cpu_s - p0.cpu_s;
  s.minor_faults = p1.minor_faults - p0.minor_faults;
  return s;
}

// One set-up sample: the program's set-up calls plus a warm-up op, in CPU
// seconds of the whole process. Set-up layer values go to `values`.
Result<double> TimeSetup(Workload* w, size_t op, Values* values, RunReport* report) {
  DMML_RETURN_IF_ERROR(w->PrepareOp(op));
  const CallerPin pin(op);
  const ProcessSample p0 = SampleProcess();
  DMML_RETURN_IF_ERROR(w->Setup(values));
  Result<OpOutput> warm = w->RunOp(op);
  const double seconds = SampleProcess().cpu_s - p0.cpu_s;
  RecordOutcome(warm.ok() ? w->CheckOp(op, *warm) : warm.status(),
                "warm-up op " + std::to_string(op), report);
  ReleaseFreedMemory();
  return seconds;
}

// Inputs are regenerated from the seed on every run; never leave them.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::filesystem::path dir) : dir_(std::move(dir)) {}
  ~RemoveOnExit() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::filesystem::path dir_;
};

double PoolSharedRuns() {
  return static_cast<double>(dmml::obs::MetricsRegistry::Global()
                                 .GetCounter("laopt.sched.pool_shared_runs")
                                 ->Value());
}

// Median over the samples that have `name`; false when none has it.
bool MedianOf(const std::vector<Values>& samples, const std::string& name,
              double* out) {
  std::vector<double> v;
  for (const Values& s : samples) {
    auto it = s.find(name);
    if (it != s.end()) v.push_back(it->second);
  }
  if (v.empty()) return false;
  *out = Median(std::move(v));
  return true;
}

void AppendJsonNumber(std::ostringstream* os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *os << buf;
}

}  // namespace

std::string RunReport::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (auto it = metrics.begin(); it != metrics.end(); ++it) {
    os << (it == metrics.begin() ? "" : ", ") << "\"" << it->first << "\": ";
    AppendJsonNumber(&os, it->second);
  }
  os << "}}";
  return os.str();
}

void RecordOutcome(const Status& status, const std::string& what,
                   RunReport* report) {
  ++report->attempted;
  if (status.ok()) return;
  ++report->failed;
  report->correct = false;
  if (report->errors.size() < kMaxErrors) {
    report->errors.push_back(what + ": " + status.ToString());
  }
}

Status ReplayMatches(const OpOutput& plain, const OpOutput& replay) {
  if (replay.iterations != plain.iterations) {
    return Status::Internal("replay ran " + std::to_string(replay.iterations) +
                            " iterations, plain op " +
                            std::to_string(plain.iterations));
  }
  const double diff = MaxRelDiff(replay.model, plain.model);
  if (!(diff <= kReplayTolerance)) {
    return Status::Internal("replayed model differs from the plain op's by " +
                            std::to_string(diff));
  }
  return Status::OK();
}

Result<RunReport> RunBenchmark(const RunOptions& options) {
  // Workers plus the calling thread never exceed the cores this process may
  // run on; every call gets this pool, so no call falls back to
  // GlobalThreadPool().
  const unsigned nproc = AllowedCores();
  dmml::ThreadPool pool(std::max(1u, nproc - 1));
  std::fprintf(stderr, "dmbench: %s seed %llu, %zu pool workers (nproc %u)\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), pool.num_threads(),
               nproc);

  namespace fs = std::filesystem;
  const std::string tag = options.workload + "-seed" + std::to_string(options.seed) +
                          (options.trace ? "-trace" : "");
  const fs::path inputs =
      fs::path(options.workdir) / ("inputs-" + tag + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(inputs, ec);
  if (ec) return Status::IOError("cannot create " + inputs.string());
  const RemoveOnExit remove_inputs(inputs);

  WorkloadContext ctx;
  ctx.pool = &pool;
  ctx.seed = options.seed;
  ctx.workdir = inputs.string();
  ctx.tiny = options.tiny;
  DMML_ASSIGN_OR_RETURN(std::unique_ptr<Workload> w,
                        MakeWorkload(options.workload, ctx));
  const double shared_runs_start = PoolSharedRuns();
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "dmbench: /proc/self/clear_refs is not writable; peak_rss_mb "
                 "includes the prologue\n");
  }

  // ---- Untimed prologue: inputs and references. ----
  DMML_RETURN_IF_ERROR(w->Prologue());
  ReleaseFreedMemory();

  RunReport report;
  size_t op = 0;

  // ---- Closed loop of timed ops (alternating with replays when tracing).
  // Set-up is sampled kSetups times, spread evenly over the loop, so the
  // samples see the same host drift as the ops. The loop's clock leaves the
  // samples out. ----
  std::vector<double> setup_s;
  std::vector<Values> setup_values;
  SpanRecorder spans;
  std::vector<OpSample> plain;
  std::vector<double> replay_wall, glue;
  std::vector<Values> layer;  // Per replayed op that reproduced its plain op.
  std::set<std::string> routes;
  double densify_fallbacks = 0;
  std::ofstream oplog(fs::path(options.workdir) / ("ops-" + tag + ".jsonl"));
  double clock_s = 0;
  while (clock_s < options.seconds || plain.size() < kMinOps ||
         setup_s.size() < kSetups) {
    if (setup_s.size() < kSetups &&
        clock_s >= options.seconds * static_cast<double>(setup_s.size()) / kSetups) {
      Values values;
      DMML_ASSIGN_OR_RETURN(const double seconds,
                            TimeSetup(w.get(), op, &values, &report));
      setup_s.push_back(seconds);
      setup_values.push_back(std::move(values));
      ++op;
      continue;
    }
    const uint64_t t0 = NowNs();
    DMML_RETURN_IF_ERROR(w->PrepareOp(op));
    const CallerPin pin(op);  // A plain op and its replay share a core.
    OpSample s = TimeOp(w.get(), op);
    Status st = s.output.ok() ? w->CheckOp(op, *s.output) : s.output.status();
    ReleaseFreedMemory();  // Reference data from the check, before the next op.
    if (st.ok() && s.counters["laopt.sched.buffer_conflicts"] > 0) {
      st = Status::Internal("pool-buffer write conflict");
    }
    RecordOutcome(st, "op " + std::to_string(op), &report);
    if (s.output.ok()) routes.insert(s.output->route);
    densify_fallbacks += s.counters["laopt.repr.densify_fallbacks"];
    oplog << "{\"op\":" << op << ",\"wall_s\":" << s.wall_s << ",\"cpu_s\":" << s.cpu_s
          << ",\"peak_rss_mb\":" << s.peak_rss_mb << ",\"route\":\""
          << (s.output.ok() ? s.output->route : "") << "\",\"ok\":"
          << (st.ok() ? "true" : "false") << ",\"counters\":{";
    for (auto it = s.counters.begin(); it != s.counters.end(); ++it) {
      oplog << (it == s.counters.begin() ? "" : ",") << "\"" << it->first
            << "\":" << it->second;
    }
    oplog << "}}\n";

    // A failed plain op is already counted; there is no model to reproduce.
    if (options.trace && s.output.ok()) {
      Values values;
      const ObsSnapshot before = ObsSnapshot::Take();
      ResetReadyWidthPeak();
      spans.BeginOp(op);
      const size_t op_span = spans.Open("op");
      Result<OpOutput> replay = w->ReplayOp(op, *s.output, &spans, &values);
      spans.Close(op_span);
      Values counters = ObsDelta(before, ObsSnapshot::Take());
      Status rst = replay.ok() ? w->ProbeKernels(&spans) : replay.status();
      if (rst.ok()) rst = ReplayMatches(*s.output, *replay);
      RecordOutcome(rst, "replay of op " + std::to_string(op), &report);
      if (rst.ok()) {
        replay_wall.push_back(spans.Seconds(op, "op"));
        if (w->ThroughPipeline()) glue.push_back(s.wall_s - spans.ChildSeconds(op_span));
        for (const auto& [name, t] : spans.SecondsByName(op, "op")) {
          values[name + "_s"] = t;
        }
        values.insert(counters.begin(), counters.end());
        layer.push_back(std::move(values));
      }
    }
    plain.push_back(std::move(s));
    ++op;
    clock_s += SecondsSince(t0);
  }
  if (PoolSharedRuns() != shared_runs_start) {
    report.correct = false;
    report.errors.push_back(
        "laopt.sched.pool_shared_runs moved: a call ran on GlobalThreadPool()");
  }

  // ---- Metrics. ----
  std::vector<double> walls, work, peaks, cpu, faults;
  for (const OpSample& s : plain) {
    walls.push_back(s.wall_s);
    work.push_back(s.output.ok() ? s.output->work : 0.0);
    peaks.push_back(s.peak_rss_mb);
    cpu.push_back(s.cpu_s);
    faults.push_back(s.minor_faults);
  }
  const double wall_p50 = Median(walls);
  const double cpu_trim = TrimmedMean(cpu, kTrim);
  double tail_pct = 0;
  const double tail = TailP90(walls, &tail_pct);

  std::map<std::string, double>& value = report.metrics;
  if (!options.trace) {
    // Times are the process's CPU seconds. A guest kernel leaves steal out
    // of them: the time the host hands a VM's cores to other tenants. On a
    // 4-vCPU guest of a shared Xeon host, steal moved an op's wall time by
    // up to half within minutes while its CPU time held within a few
    // percent. Ops rotate over cores that can run at two speeds, so op times
    // are bimodal and their median jumps between the modes; a trimmed mean
    // follows the mix of cores smoothly. Wall times are reported per layer.
    value["op_cpu_s_trim10"] = cpu_trim;
    value["row_epochs_per_cpu_s"] = RatePerSecond(work, cpu);
    // Median of the ops' own high-water marks: the maximum over a run
    // depends on how many ops it happened to fit.
    value["peak_rss_mb"] = Median(peaks);
    value["setup_s"] = TrimmedMean(setup_s, kTrim);
  } else {
    // Each layer value is the median over the replayed ops, or over the
    // set-up samples for a value only set-up measures.
    std::set<std::string> names;
    for (const std::vector<Values>* samples : {&layer, &setup_values}) {
      for (const Values& v : *samples) {
        for (const auto& entry : v) names.insert(entry.first);
      }
    }
    for (const std::string& name : names) {
      if (!MedianOf(layer, name, &value[name])) MedianOf(setup_values, name, &value[name]);
    }
    // Properties of the op itself come from the plain ops.
    value["op.wall_s_p50"] = wall_p50;
    value["op.minor_faults"] = Median(faults);
    value["op.wall_s_p90"] = tail;
    value["laopt.sched.pool_shared_runs"] = PoolSharedRuns() - shared_runs_start;
    if (!glue.empty()) value["pipeline.glue_s"] = Median(glue);
    value["trace.overhead_pct"] =
        replay_wall.empty() ? 0.0 : 100.0 * (Median(replay_wall) - wall_p50) / wall_p50;
  }
  for (auto& [name, v] : value) {
    if (!std::isfinite(v)) {
      report.correct = false;
      report.errors.push_back(name + " is not finite");
      v = 0;
    }
  }

  // ---- Run summary (stderr) and trace output. ----
  std::string route_list;
  for (const std::string& r : routes) route_list += (route_list.empty() ? "" : ",") + r;
  std::fprintf(stderr,
               "dmbench: %zu timed ops, cpu trimmed mean %.4f s, wall p50 %.4f s, wall p%.0f "
               "%.4f s, setup %zu x trimmed mean %.4f cpu s, routes [%s], densify "
               "fallbacks %.0f\n",
               plain.size(), cpu_trim, wall_p50, tail_pct, tail, setup_s.size(),
               TrimmedMean(setup_s, kTrim), route_list.c_str(), densify_fallbacks);
  for (const std::string& e : report.errors) std::fprintf(stderr, "dmbench: FAIL %s\n", e.c_str());
  if (options.trace) {
    const fs::path path = fs::path(options.workdir) / ("spans-" + tag + ".json");
    if (!spans.WriteJson(path.string())) {
      std::fprintf(stderr, "dmbench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "dmbench: spans written to %s\n", path.c_str());
    }
  }
  return report;
}

}  // namespace dmbench
