// The benchmark workloads. Each one makes a different engine layer do most
// of the work (README.md in this directory says which and why):
//
//   drift_adapt   one serial client, 64 MiB in-memory sine column, a
//                 phase-shifting 1% query stream that outgrows a 16-view
//                 pool — adaptation (full scan, candidate build, rewiring,
//                 eviction) dominates;
//   shard_scan    three closed-loop clients full-scanning a 64 MiB, 4-shard
//                 hash-partitioned column — the shard fan-out of whole
//                 shard scans (ShardPool queues, merge) dominates.
//                 Runnable, not in BENCHMARK.json: its query_p99_ms spreads
//                 past the bound between runs;
//   ingest_rw     one closed-loop reader beside one open-loop writer on a
//                 durable 32 MiB column — journal, group commit, reader
//                 exclusion, alignment and checkpoint dominate;
//   shard_fanout  three closed-loop clients on the same 4-shard column
//                 answered from warm views — shard hand-off, merge and
//                 per-shard routing dominate. Runnable, not in
//                 BENCHMARK.json: the ShardPool WaitGroup race fails some
//                 of its runs.
//
// A run sets up, measures for a fixed time, checks every answer it can
// against the full-scan oracle (untimed), and returns its metrics.

#ifndef VMSV_PERFBENCH_WORKLOADS_H_
#define VMSV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vmsv.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Drives every generated input: data jitter, query positions, client
  /// picks, update rows and values.
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10;
  /// Traced run: trace a seeded half of the measured operations, run the
  /// probes, and report per-layer metrics.
  bool trace = false;
  /// Directory for the durable table (created and removed by the run).
  std::string work_dir = ".";
  /// Where a traced run dumps its spans (CSV). Empty: no dump.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  /// False when any answer disagreed with the oracle or any call failed.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Reported by an untraced run (and printed by a traced one).
  std::vector<Metric> end_to_end;
  /// Metrics the JSON contract has no slot for (update latency,
  /// error rate): printed with their unit, never gated.
  std::vector<Metric> extra;
  /// Reported by a traced run.
  std::vector<Metric> per_layer;
};

/// Workload names: the gated ones in BENCHMARK.json order, then the
/// runnable, ungated ones.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. An error Status means the run could not be set up or
/// measured at all; wrong answers come back as result.correct == false.
vmsv::StatusOr<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // VMSV_PERFBENCH_WORKLOADS_H_
