#include "probe.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "stats.h"

namespace dmbench {

namespace {

// Counters read as per-op deltas; each is reported under its own name.
constexpr const char* kCounters[] = {
    "relational.join.build_us",      "relational.join.probe_us",
    "relational.join.rows_emitted",  "factorized.multiply_calls",
    "modelsel.shared.epochs_saved",  "cla.ops.ranged_calls",
    "cla.inplace.allocs",            "laopt.sched.nodes_launched",
    "laopt.sched.buffer_conflicts",  "laopt.sched.pool_shared_runs",
    "laopt.rewrite.chains_reordered", "laopt.optimize.chains_costed",
    "la.gemm.blocked_calls",         "la.inplace.allocs",
    "laopt.repr.densify_fallbacks",
};

constexpr const char* kMisestimate = "relational.stats.misestimate_pct";
constexpr const char* kTaskWait = "threadpool.task_wait_us";
constexpr const char* kReadyWidth = "laopt.sched.max_ready_width";

dmml::obs::Histogram* FindHistogram(const char* name) {
  // Placeholder bounds only matter if the program never registered it.
  return dmml::obs::MetricsRegistry::Global().GetHistogram(name, {1.0});
}

}  // namespace

ProcessSample SampleProcess() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  s.minor_faults = static_cast<double>(ru.ru_minflt);
  return s;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

ObsSnapshot ObsSnapshot::Take() {
  dmml::obs::MetricsRegistry& reg = dmml::obs::MetricsRegistry::Global();
  ObsSnapshot s;
  for (const char* name : kCounters) {
    s.counters[name] = static_cast<double>(reg.GetCounter(name)->Value());
  }
  for (const char* name : {kMisestimate, kTaskWait}) {
    dmml::obs::Histogram* h = FindHistogram(name);
    std::vector<double>& b = s.buckets[name];
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      b.push_back(static_cast<double>(h->BucketCount(i)));
    }
    s.histogram_sums[name] = h->Sum();
  }
  s.counters[kReadyWidth] = reg.GetGauge(kReadyWidth)->Value();
  return s;
}

std::map<std::string, double> ObsDelta(const ObsSnapshot& before,
                                       const ObsSnapshot& after) {
  std::map<std::string, double> d;
  for (const char* name : kCounters) {
    d[name] = after.counters.at(name) - before.counters.at(name);
  }
  // A gauge holding the peak since ResetReadyWidthPeak(), not a delta.
  d[kReadyWidth] = after.counters.at(kReadyWidth);

  auto count = [](const std::vector<double>& b) {
    double n = 0;
    for (double v : b) n += v;
    return n;
  };
  const double mis_n =
      count(after.buckets.at(kMisestimate)) - count(before.buckets.at(kMisestimate));
  const double mis_sum = after.histogram_sums.at(kMisestimate) -
                         before.histogram_sums.at(kMisestimate);
  d["relational.misestimate_pct"] = mis_n > 0 ? mis_sum / mis_n : 0.0;

  const std::vector<double>& wb = before.buckets.at(kTaskWait);
  const std::vector<double>& wa = after.buckets.at(kTaskWait);
  d["threadpool.tasks"] = count(wa) - count(wb);
  d["threadpool.task_wait_us_p50"] =
      HistogramDeltaPercentile(FindHistogram(kTaskWait)->bounds(), wb, wa, 50.0);
  return d;
}

unsigned AllowedCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

CallerPin::CallerPin(size_t slot) {
  cpu_set_t old;
  CPU_ZERO(&old);
  if (sched_getaffinity(0, sizeof(old), &old) != 0) return;
  const int allowed = CPU_COUNT(&old);
  if (allowed <= 1) return;
  // The (slot mod allowed)-th core this thread may run on.
  int skip = static_cast<int>(slot % static_cast<size_t>(allowed));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &old) && skip-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  saved_.resize(sizeof(old));
  std::memcpy(saved_.data(), &old, sizeof(old));
  restore_ = true;
}

CallerPin::~CallerPin() {
  if (!restore_) return;
  cpu_set_t old;
  std::memcpy(&old, saved_.data(), sizeof(old));
  sched_setaffinity(0, sizeof(old), &old);
}

void ResetReadyWidthPeak() {
  dmml::obs::MetricsRegistry::Global().GetGauge(kReadyWidth)->Reset();
}

}  // namespace dmbench
