// The one /proc sampler every workload shares. A sample is a point-in-time
// read of the process's own memory, mapping, fault and write counters; the
// workloads take one before and one after their measured phase.

#ifndef VMSV_PERFBENCH_PROC_SAMPLER_H_
#define VMSV_PERFBENCH_PROC_SAMPLER_H_

#include <cstdint>

namespace perfbench {

struct ProcSample {
  /// Proportional set size (smaps_rollup "Pss"): a column page mapped by
  /// the base arena and by several views counts once, unlike RSS.
  uint64_t pss_kb = 0;
  /// Page-table bytes ("VmPTE" in /proc/self/status).
  uint64_t pte_kb = 0;
  /// Live VMAs of the process (rewiring/maps_parser.h CountProcessVmas).
  uint64_t vmas = 0;
  /// Minor page faults of all threads so far (getrusage).
  uint64_t minor_faults = 0;
  /// Bytes passed to write-type syscalls and their count (/proc/self/io).
  uint64_t wchar = 0;
  uint64_t syscw = 0;

  /// The end-to-end memory metric: PSS plus page tables, in MB.
  double MemMb() const {
    return static_cast<double>(pss_kb + pte_kb) / 1024.0;
  }
};

/// Reads every counter above. A file that cannot be read leaves its fields
/// 0 and returns false, so a host without the file is visible, not hidden.
bool SampleProc(ProcSample* out);

}  // namespace perfbench

#endif  // VMSV_PERFBENCH_PROC_SAMPLER_H_
