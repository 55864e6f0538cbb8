// The benchmark's workloads. Each is one closed-loop op repeated by one
// caller: the next op starts when the previous one returns.
#ifndef DMBENCH_WORKLOAD_H_
#define DMBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmbench {

using dmml::Result;
using dmml::Status;

/// What every workload is built from.
struct WorkloadContext {
  dmml::ThreadPool* pool = nullptr;  ///< Passed to every call that takes one.
  uint64_t seed = 0;                 ///< All inputs derive from it.
  std::string workdir;               ///< Input files are written here.
  bool tiny = false;                 ///< Test-sized inputs.
};

/// One op's result, flattened so the runner can compare models generically.
struct OpOutput {
  std::vector<double> model;    ///< Fitted parameters, in a fixed order.
  size_t iterations = 0;        ///< Epochs / iterations / steps actually run.
  double work = 0;              ///< Σ rows × iterations × models trained.
  std::string route;            ///< Physical route chosen (recorded only).
  std::vector<double> history;  ///< Inertia per iteration (k-means).
  std::vector<int> labels;      ///< Cluster assignment per row (k-means).
};

/// Named per-op or set-up values reported beside spans and counters.
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed: makes the inputs from the seed, writes input files and
  /// computes every reference the checks need.
  virtual Status Prologue() = 0;
  /// Untimed preparation of op `op` (for example a new input version).
  virtual Status PrepareOp(size_t /*op*/) { return Status::OK(); }
  /// Timed as set-up: the program's own set-up calls, replacing any state a
  /// previous Setup built. Set-up layer values go to `values`.
  virtual Status Setup(Values* values) = 0;
  /// The op as a user makes it.
  virtual Result<OpOutput> RunOp(size_t op) = 0;
  /// The same op made through the layers' public calls, in the order the op
  /// makes them internally, each wrapped in a span named after its layer.
  /// `plain` is the plain op's output; the replay takes the route it took.
  /// Values that spans cannot give (profile self times, sizes) go to
  /// `values`.
  virtual Result<OpOutput> ReplayOp(size_t op, const OpOutput& plain,
                                    SpanRecorder* spans, Values* values) = 0;
  /// Kernel probes a traced run makes after the replayed op; they are not
  /// part of the op, so they stay out of its replay time.
  virtual Status ProbeKernels(SpanRecorder* /*spans*/) { return Status::OK(); }
  /// True when the op is one pipeline::Pipeline call, so its time beyond
  /// the replayed layer calls is pipeline glue (chooser, key maps, EXPLAIN).
  virtual bool ThroughPipeline() const { return false; }
  /// Untimed check of op `op`'s output; an error marks the op failed.
  virtual Status CheckOp(size_t op, const OpOutput& out) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload; InvalidArgument for an unknown name.
Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               const WorkloadContext& ctx);

std::unique_ptr<Workload> MakeStarFactorized(const WorkloadContext& ctx);
std::unique_ptr<Workload> MakeStarRefresh(const WorkloadContext& ctx);
std::unique_ptr<Workload> MakeSelectCla(const WorkloadContext& ctx);
std::unique_ptr<Workload> MakeScriptGd(const WorkloadContext& ctx);

/// Error unless `out` ran exactly `budget` iterations.
Status CheckIterations(const OpOutput& out, size_t budget);
/// Error unless `out.model` matches `reference` to `tol` (MaxRelDiff).
Status CheckModel(const OpOutput& out, const std::vector<double>& reference,
                  double tol, const char* what);

}  // namespace dmbench

#endif  // DMBENCH_WORKLOAD_H_
