// The closed loop: set-up, timed ops, checks, and the metrics the
// benchmark prints.
#ifndef DMBENCH_RUNNER_H_
#define DMBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace dmbench {

/// Plain ops a run makes even when `seconds` is shorter.
constexpr size_t kMinOps = 3;
/// Set-up samples per run, spread evenly over the loop; setup_s is their
/// trimmed mean.
constexpr size_t kSetups = 7;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;    ///< Loop time outside the set-up samples.
  bool trace = false;     ///< Alternate plain ops with traced replays.
  std::string workdir;    ///< Inputs, spans and the per-op log go here.
  bool tiny = false;      ///< Test-sized inputs.
};

struct RunReport {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  /// Metric name -> value. An untraced run has the end-to-end metrics; a
  /// traced one has every per-layer value it measured. run.py adds the units
  /// from BENCHMARK.json and reports 0 for a layer the workload never reaches.
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  ///< Why ops failed (first few).

  /// The one-line result object: correct, attempted, failed, metrics.
  std::string ToJson() const;
};

/// Error when the run cannot start (unknown workload, input or set-up
/// failure); op failures are counted in the report instead.
Result<RunReport> RunBenchmark(const RunOptions& options);

/// Accounting of one op's outcome: an error from the op itself or its check
/// marks it failed; the first few reasons are kept.
void RecordOutcome(const Status& status, const std::string& what,
                   RunReport* report);

/// Whether a replayed op reproduced the plain op's model and iteration count.
Status ReplayMatches(const OpOutput& plain, const OpOutput& replay);

}  // namespace dmbench

#endif  // DMBENCH_RUNNER_H_
