// What the benchmark reads from outside the timed calls: process resource
// usage and the program's own obs counters. Nothing here is timed work.
#ifndef DMBENCH_PROBE_H_
#define DMBENCH_PROBE_H_

#include <map>
#include <string>
#include <vector>

namespace dmbench {

/// CPU seconds (user + system, all threads) and minor page faults so far.
struct ProcessSample {
  double cpu_s = 0;
  double minor_faults = 0;
};
ProcessSample SampleProcess();

/// Resets the kernel's resident-set high-water mark to the current RSS
/// (writes 5 to /proc/self/clear_refs). False when the file is not writable.
bool ResetPeakRss();

/// Resident-set high-water mark (VmHWM) in MB since the last reset.
double PeakRssMb();

/// Returns freed heap memory to the kernel, so reference data an untimed
/// step freed does not stay resident under the next timed op.
void ReleaseFreedMemory();

/// Values of the obs instruments the benchmark reads, at one instant.
/// Take() only after the workload has run once: registry lookups are
/// create-or-find, so reading an instrument before the program registers it
/// would register it with the benchmark's placeholder bucket bounds.
struct ObsSnapshot {
  std::map<std::string, double> counters;
  /// Histogram name -> per-bucket counts (overflow bucket last).
  std::map<std::string, std::vector<double>> buckets;
  std::map<std::string, double> histogram_sums;

  static ObsSnapshot Take();
};

/// Per-op deltas (`after` − `before`) of the snapshot's instruments, keyed by
/// the per-layer metric names they feed.
std::map<std::string, double> ObsDelta(const ObsSnapshot& before,
                                       const ObsSnapshot& after);

/// Cores this process may run on (what nproc prints), at least 1.
unsigned AllowedCores();

/// Moves the calling thread to the (`slot` mod n)-th of the n cores it may
/// run on, until the destructor restores the affinity it had before. The
/// closed loop moves its caller to another core before every op: on a shared
/// host an op can take 30% longer on one core than on another for tens of
/// seconds at a time, in CPU time as well as wall time, and a caller left on
/// one core would carry that core's speed into the whole run. Threads started earlier
/// (the pool's workers) keep their own affinity.
class CallerPin {
 public:
  explicit CallerPin(size_t slot);
  ~CallerPin();
  CallerPin(const CallerPin&) = delete;
  CallerPin& operator=(const CallerPin&) = delete;

 private:
  bool restore_ = false;
  std::vector<unsigned char> saved_;  ///< The previous cpu_set_t, as bytes.
};

/// Resets the scheduler's peak-ready-width gauge so the next op reports its
/// own peak rather than the process-wide one.
void ResetReadyWidthPeak();

}  // namespace dmbench

#endif  // DMBENCH_PROBE_H_
