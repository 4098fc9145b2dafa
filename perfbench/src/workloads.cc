#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/adaptive_layer.h"
#include "exec/scan_kernels.h"
#include "proc_sampler.h"
#include "storage/storage_io.h"
#include "trace.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"

namespace perfbench {

namespace {

using vmsv::CandidateDecision;
using vmsv::Db;
using vmsv::DbOptions;
using vmsv::QueryExecution;
using vmsv::RangeQuery;
using vmsv::SampleStats;
using vmsv::Status;
using vmsv::StatusOr;
using vmsv::Table;
using vmsv::Value;

// ---------------------------------------------------------------------------
// Sizes and rates. Each is recorded in BENCHMARK.json's `why` lines and in
// README.md; change them only together with those.

constexpr Value kDomainHi = 100'000'000;
constexpr uint64_t kPageBytes = vmsv::kValuesPerPage * sizeof(Value);

// drift_adapt: 64 MiB fits in L3. At 512 MiB the full scans were DRAM-bound
// as in the paper, and the memory traffic of other tenants of the host made
// qps swing 2x between runs of the same code.
constexpr uint64_t kDriftPages = 16384;
constexpr size_t kDriftMaxViews = 16;
constexpr uint64_t kDriftPhases = 32;
constexpr uint64_t kDriftQueriesPerPhase = 128;
// Engine counters are taken over the first queries of a run: one serial
// client makes them repeat exactly for a seed.
constexpr uint64_t kDriftCountQueries = 1024;
constexpr double kDriftSelectivity = 0.01;
// Every kDriftCheckStride-th query of the sequence is re-answered by the
// full-scan oracle after the measured phase.
constexpr uint64_t kDriftCheckStride = 16;

// shard_fanout and shard_scan: 64 MiB fits in L3.
constexpr uint64_t kSmallPages = 16384;
constexpr uint32_t kFanoutShards = 4;
constexpr int kFanoutClients = 3;
constexpr size_t kWarmRanges = 32;
constexpr double kWarmSelectivity = 0.05;
constexpr size_t kSmallMaxViews = 64;

// ingest_rw: 32 MiB, so a 5% view scan (about 1200 pages) stays under the
// scanner's serial cutoff (2048 pages) and the reader scans on its own
// thread. At 64 MiB two readers' scans queued on the shared scan pool, and
// query_p99_ms swung by half between runs of the same code.
constexpr uint64_t kIngestPages = 8192;
// One reader: in four interleaved runs, update_p99_ms ranged 0.7-3.2 ms with
// two readers and 0.6-0.9 ms with one.
constexpr int kIngestReaders = 1;
// ingest_rw writer: open loop at a fixed rate well below saturation. At
// 400 updates/s query_p99_ms was bimodal in one of two ten-run sets; at 200
// it was not (README.md "Writer rate").
constexpr double kWriterRatePerSec = 200;
constexpr uint64_t kFlushEvery = 256;
// At 200 updates/s a writer checkpoint falls about every 10 s, so a 30 s
// window holds two or three.
constexpr uint64_t kCheckpointEvery = 2048;
constexpr uint64_t kGroupCommitBatch = 32;
// Update jitter: +-0.1% of the domain, so warm views keep covering.
constexpr Value kUpdateJitter = kDomainHi / 1000;
// Acknowledged but never flushed before the kill-style close, so the
// reopen has journal records to replay.
constexpr uint64_t kUnflushedTail = 100;

// Every run.
constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 1.0;
// An untraced time-based window is reported as the median of this many
// equal sub-windows (see RunClosedLoop).
constexpr int kSubWindows = 6;
constexpr int kFanoutProbes = 16;
constexpr int kKernelPasses = 3;

struct Answer {
  uint64_t count = 0;
  Value sum = 0;

  bool operator==(const Answer& o) const {
    return count == o.count && sum == o.sum;
  }
};

Answer AnswerOf(const QueryExecution& e) { return Answer{e.match_count, e.sum}; }

vmsv::DistributionSpec SineSpec(uint64_t seed) {
  vmsv::DistributionSpec spec;
  spec.kind = vmsv::DataDistribution::kSine;
  spec.max_value = kDomainHi;
  spec.seed = seed;
  return spec;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  SampleStats stats;
  for (const double v : values) stats.Add(v);
  return stats.Median();
}

/// `count` query ranges of `selectivity` width on an evenly spaced grid
/// over the domain, shifted by a seeded offset. Evenly spaced rather than
/// uniform so every seed overlaps its ranges alike.
std::vector<RangeQuery> MakeWarmRanges(uint64_t seed, size_t count,
                                       double selectivity) {
  const Value width = static_cast<Value>(selectivity * kDomainHi);
  const Value step = (kDomainHi - width) / count;
  vmsv::Rng rng(vmsv::MixHash(seed, 0x5741524d));  // "WARM"
  const Value offset = rng.Below(step);
  std::vector<RangeQuery> ranges;
  for (size_t i = 0; i < count; ++i) {
    const Value lo = offset + i * step;
    ranges.push_back(RangeQuery{lo, lo + width});
  }
  return ranges;
}

/// Counts one call outcome; prints the first few failures.
struct FailureLog {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Ok() { attempted.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const char* what, const std::string& detail) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (failed.fetch_add(1, std::memory_order_relaxed) < 10) {
      std::fprintf(stderr, "[perfbench] FAILED %s: %s\n", what, detail.c_str());
    }
  }
  void Check(bool ok, const char* what, const std::string& detail) {
    if (ok) {
      Ok();
    } else {
      Fail(what, detail);
    }
  }
};

std::string Describe(const RangeQuery& q, const Answer& got,
                     const Answer& want) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "[%llu, %llu] got (%llu, %llu) want (%llu, %llu)",
                static_cast<unsigned long long>(q.lo),
                static_cast<unsigned long long>(q.hi),
                static_cast<unsigned long long>(got.count),
                static_cast<unsigned long long>(got.sum),
                static_cast<unsigned long long>(want.count),
                static_cast<unsigned long long>(want.sum));
  return buf;
}

// ---------------------------------------------------------------------------
// The measured phase: closed-loop clients under one controller.

struct OpRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool traced = false;
};

struct LoopResult {
  /// The end-to-end query metrics over untraced operations: medians over
  /// the window's sub-windows (see RunClosedLoop) of each sub-window's qps
  /// and latency percentiles.
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Untraced operations inside the window: the samples behind the above.
  uint64_t untraced_ops = 0;
  /// Traced run: mean latency of untraced / traced operations. In a closed
  /// loop their ratio is the ratio of traced to untraced qps.
  double untraced_mean_ms = 0;
  double traced_mean_ms = 0;
  /// Every operation any client ran, warm-up and window edges included.
  uint64_t executed_ops = 0;
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  /// Live /proc sample taken at the window's end.
  ProcSample window_end;
};

/// One client operation; its latency is the time the call takes.
using ClientOp = std::function<void(int client, vmsv::Rng* rng)>;

/// Runs `clients` closed-loop threads of `op` plus an optional `background`
/// thread (stopped through the same flag): kWarmupSeconds of warm-up, then
/// the measured window of `seconds`. In a traced run each operation is
/// traced on a seeded coin flip of its own, so traced and untraced operations
/// sample the workload alike; a parity rule would trace the same positions
/// of an even-length query cycle on every pass. With `cycle` > 0 (one client
/// running a cyclic query sequence) the window stays open past `seconds`
/// until the client has run a whole number of cycles inside it, so every
/// part of the sequence weighs the same in every run.
///
/// An untraced window is cut into parts, and qps, p50 and p99 are the
/// medians of the parts' values: a stall of the shared host that lasts less
/// than a third of the window then moves none of them, while a stall the
/// program causes in every part still does. A time-based window has
/// kSubWindows equal parts; a cycle window has one part per whole cycle,
/// because the parts of one cycle are not alike.
LoopResult RunClosedLoop(int clients, uint64_t seed, double seconds,
                         bool trace, const ClientOp& op, uint64_t cycle = 0,
                         const std::function<void(const std::atomic<bool>&)>&
                             background = nullptr) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> window_start{0};
  std::atomic<bool> past_seconds{false};
  std::atomic<int64_t> cycle_end{0};
  std::vector<std::vector<OpRecord>> records(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    records[c].reserve(1 << 18);
    threads.emplace_back([&, c] {
      vmsv::Rng rng(vmsv::MixHash(seed, 0x434c4e54 + c));   // "CLNT"
      vmsv::Rng coin(vmsv::MixHash(seed, 0x54524345 + c));  // "TRCE"
      uint64_t in_window = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        OpScope scope(SpanName::kQueryOp, Phase::kMeasure,
                      trace && coin.Below(2) == 1);
        OpRecord rec;
        rec.traced = scope.traced();
        rec.start_ns = NowNs();
        op(c, &rng);
        rec.end_ns = NowNs();
        records[c].push_back(rec);
        const int64_t start = window_start.load();
        if (cycle == 0 || start == 0 || rec.start_ns < start) continue;
        if (++in_window % cycle == 0 && past_seconds.load()) {
          cycle_end.store(rec.end_ns);
          break;
        }
      }
    });
  }
  std::thread background_thread;
  if (background) background_thread = std::thread([&] { background(stop); });

  LoopResult result;
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  result.window_start_ns = NowNs();
  window_start.store(result.window_start_ns);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  past_seconds.store(true);
  while (cycle > 0 && cycle_end.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.window_end_ns = cycle > 0 ? cycle_end.load() : NowNs();
  SampleProc(&result.window_end);
  stop.store(true);
  for (auto& t : threads) t.join();
  if (background_thread.joinable()) background_thread.join();

  const int64_t window_ns = result.window_end_ns - result.window_start_ns;
  int parts = trace ? 1 : kSubWindows;
  if (cycle > 0 && !trace) {
    uint64_t in_window = 0;
    for (const OpRecord& rec : records[0]) {
      in_window += rec.start_ns >= result.window_start_ns &&
                   rec.end_ns <= result.window_end_ns;
    }
    parts = static_cast<int>(std::max<uint64_t>(1, in_window / cycle));
  }
  std::vector<SampleStats> part_latency(parts);
  std::vector<double> part_s(parts, static_cast<double>(window_ns) / 1e9 / parts);
  SampleStats traced_latency;
  for (const auto& client : records) {
    result.executed_ops += client.size();
    uint64_t index = 0;  // among the window's operations
    int64_t part_start_ns = result.window_start_ns;
    for (const OpRecord& rec : client) {
      if (rec.start_ns < result.window_start_ns ||
          rec.end_ns > result.window_end_ns) {
        continue;
      }
      const double ms = static_cast<double>(rec.end_ns - rec.start_ns) / 1e6;
      if (rec.traced) {
        traced_latency.Add(ms);
        continue;
      }
      ++result.untraced_ops;
      int part = 0;
      if (parts > 1 && cycle > 0) {
        // Part k is cycle k of the window; it lasts from the end of the
        // previous cycle's last query to the end of its own.
        part = static_cast<int>(std::min<uint64_t>(index / cycle, parts - 1));
        if (++index % cycle == 0) {
          part_s[part] = static_cast<double>(rec.end_ns - part_start_ns) / 1e9;
          part_start_ns = rec.end_ns;
        }
      } else if (parts > 1) {
        part = static_cast<int>(
            (rec.start_ns - result.window_start_ns) * parts / window_ns);
      }
      part_latency[std::min(part, parts - 1)].Add(ms);
    }
  }
  // A traced run's qps counts both halves, so it stays a rate of the load
  // the clients offered; it is printed, never reported.
  std::vector<double> qps, p50, p99;
  for (int part = 0; part < parts; ++part) {
    SampleStats& latency = part_latency[part];
    qps.push_back(static_cast<double>(latency.Count() + traced_latency.Count()) /
                  part_s[part]);
    p50.push_back(latency.Percentile(50));
    p99.push_back(latency.Percentile(99));
  }
  result.qps = Median(qps);
  result.p50_ms = Median(p50);
  result.p99_ms = Median(p99);
  if (trace) {
    result.untraced_mean_ms = part_latency[0].Mean();
    result.traced_mean_ms = traced_latency.Mean();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Set-up: run several times, report the median, keep the last table.

using SetupFn = std::function<StatusOr<std::unique_ptr<Table>>()>;

StatusOr<std::unique_ptr<Table>> TimedSetup(const SetupFn& setup, int reps,
                                            double* median_s) {
  std::vector<double> seconds;
  std::unique_ptr<Table> table;
  for (int rep = 0; rep < reps; ++rep) {
    table.reset();  // one table alive at a time
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::unique_ptr<Table>> made = [&] {
      OpScope scope(SpanName::kSetupOp, Phase::kSetup);
      return setup();
    }();
    if (!made.ok()) return made.status();
    seconds.push_back(SecondsSince(start));
    table = std::move(made).ValueOrDie();
  }
  *median_s = Median(seconds);
  return table;
}

std::unique_ptr<Table> Traced(std::unique_ptr<Table> table) {
  return std::make_unique<TracedTable>(std::move(table));
}

/// Executes every range once (the warm-up that builds the view pool).
Status WarmRanges(Table* table, const std::vector<RangeQuery>& ranges) {
  for (const RangeQuery& q : ranges) {
    auto r = table->Execute(q);
    if (!r.ok()) return r.status();
  }
  return vmsv::OkStatus();
}

// ---------------------------------------------------------------------------
// Probes of a traced run: fan-out (table full scan vs each shard's) and the
// single-thread kernel pass. Both also check answers.

struct ProbeResult {
  std::vector<double> fanout_ms;     // table full scan - slowest shard scan
  std::vector<double> parallel_eff;  // sum(shard) / (shards * table)
                                     // (both empty on a 1-shard table)
  std::vector<double> fullscan_ms;   // table full scan
  std::vector<double> kernel_ms;     // one ScanPage pass over every page
};

/// Answers `q` with a single-thread ScanPage pass over every base page of
/// every shard: the kernel alone, no engine path in between.
Answer KernelPass(Table* table, const RangeQuery& q) {
  Answer total;
  for (uint32_t s = 0; s < table->num_shards(); ++s) {
    Span span(SpanName::kScanPagePass);
    const vmsv::PhysicalColumn& column = table->shard(s)->column();
    for (uint64_t p = 0; p < column.num_pages(); ++p) {
      const vmsv::PageScanResult r =
          vmsv::ScanPage(column.PageData(p), vmsv::kValuesPerPage, q);
      total.count += r.match_count;
      total.sum += r.sum;
    }
    span.SetArgs(column.num_pages(), s);
  }
  return total;
}

ProbeResult RunProbes(Table* table, const std::vector<RangeQuery>& queries,
                      FailureLog* log) {
  ProbeResult probe;
  const uint32_t shards = table->num_shards();
  for (int i = 0; i < kFanoutProbes; ++i) {
    const RangeQuery& q = queries[i % queries.size()];
    OpScope scope(SpanName::kFanoutProbe, Phase::kProbe);
    int64_t start = NowNs();
    auto whole = table->ExecuteFullScan(q);
    const double table_ms = static_cast<double>(NowNs() - start) / 1e6;
    double slowest = 0;
    double total = 0;
    Answer merged;
    bool ok = whole.ok();
    for (uint32_t s = 0; s < shards && ok; ++s) {
      Span span(SpanName::kShardFullScan);
      start = NowNs();
      auto part = table->shard(s)->ExecuteFullScan(q);
      const double ms = static_cast<double>(NowNs() - start) / 1e6;
      ok = part.ok();
      if (!ok) break;
      span.SetArgs(part->stats.scanned_pages, s);
      slowest = std::max(slowest, ms);
      total += ms;
      merged.count += part->match_count;
      merged.sum += part->sum;
    }
    if (!ok) {
      log->Fail("probe.fanout", "full scan returned an error");
      continue;
    }
    log->Check(merged == AnswerOf(*whole), "probe.fanout",
               Describe(q, merged, AnswerOf(*whole)));
    probe.fullscan_ms.push_back(table_ms);
    // A 1-shard table bypasses the router: there is no fan-out to measure,
    // and both fan-out metrics read 0.
    if (shards == 1) continue;
    probe.fanout_ms.push_back(table_ms - slowest);
    probe.parallel_eff.push_back(total / (shards * table_ms));
  }

  const RangeQuery& q = queries.front();
  for (int pass = 0; pass < kKernelPasses; ++pass) {
    OpScope scope(SpanName::kKernelProbe, Phase::kProbe);
    const int64_t start = NowNs();
    const Answer total = KernelPass(table, q);
    probe.kernel_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    auto oracle = table->ExecuteFullScan(q);
    log->Check(oracle.ok() && AnswerOf(*oracle) == total, "probe.kernel",
               oracle.ok() ? Describe(q, total, AnswerOf(*oracle))
                           : std::string("full scan error"));
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Metrics shared by every workload.

struct Counters {
  /// Engine counters over the counting window (see each workload).
  vmsv::CumulativeStats engine;
  uint64_t compactions = 0;
  /// Quiescent /proc samples bracketing the measured phase.
  ProcSample before;
  ProcSample after;
  /// Queries run between the two quiescent samples.
  uint64_t queries = 0;
  /// Durable tables: journal counters bracketing the measured phase and
  /// the updates sent in between.
  vmsv::DurabilityStats durable_before;
  vmsv::DurabilityStats durable_after;
  /// Syncs the storage layer asked for in the same span.
  uint64_t syncs = 0;
  uint64_t updates = 0;
  double send_late_ms_p99 = 0;
};

uint64_t SumCompactions(Table* table) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < table->num_shards(); ++s) {
    total += table->shard(s)->lifecycle_stats().compactions;
  }
  return total;
}

vmsv::CumulativeStats Delta(const vmsv::CumulativeStats& a,
                            const vmsv::CumulativeStats& b) {
  vmsv::CumulativeStats d;
  d.queries = b.queries - a.queries;
  d.scanned_pages = b.scanned_pages - a.scanned_pages;
  d.views_created = b.views_created - a.views_created;
  d.views_evicted = b.views_evicted - a.views_evicted;
  d.candidates_dropped = b.candidates_dropped - a.candidates_dropped;
  return d;
}

void AddEndToEnd(const LoopResult& loop, double setup_s, RunResult* out) {
  out->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"query_qps", loop.qps, "1/s"},
      {"query_p50_ms", loop.p50_ms, "ms"},
      {"query_p99_ms", loop.p99_ms, "ms"},
      {"mem_mb", loop.window_end.MemMb(), "MB"},
  };
  out->extra.push_back(
      {"query_samples", static_cast<double>(loop.untraced_ops), "count"});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics from the spans of a traced run plus the counters.
void AddPerLayer(const LoopResult& loop, const ProbeResult& probe,
                 const Counters& counters, uint64_t table_bytes,
                 RunResult* out) {
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  const std::vector<double> self_ms = SelfTimesMs(spans);
  SampleStats view_ms, adapt_ms, flush_ms, checkpoint_ms, update_ms;
  uint64_t measured_executes = 0, hits = 0, pages = 0, align_pages = 0;
  double view_bytes = 0, view_time_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const bool measured = s.phase == Phase::kMeasure;
    switch (s.name) {
      case SpanName::kExecute: {
        const bool hit = static_cast<CandidateDecision>(s.arg1) ==
                         CandidateDecision::kAnsweredFromView;
        if (!hit) adapt_ms.Add(self_ms[i]);
        if (!measured) break;
        ++measured_executes;
        pages += s.arg0;
        if (hit) {
          ++hits;
          view_ms.Add(self_ms[i]);
          view_bytes += static_cast<double>(s.arg0 * kPageBytes);
          view_time_ms += self_ms[i];
        }
        break;
      }
      case SpanName::kFlushUpdates:
        if (!measured) break;
        flush_ms.Add(self_ms[i]);
        align_pages += s.arg0;
        break;
      case SpanName::kCheckpoint:  // the writer's, not set-up's
        if (measured) checkpoint_ms.Add(self_ms[i]);
        break;
      case SpanName::kUpdate:
        if (measured) update_ms.Add(self_ms[i]);
        break;
      default:
        break;
    }
  }
  const double gb = 1e9;
  const double updates = static_cast<double>(counters.updates);
  out->per_layer = {
      {"core.view_hit_ratio",
       Ratio(static_cast<double>(hits), static_cast<double>(measured_executes)),
       "ratio"},
      {"core.view_query_ms_p50", view_ms.Percentile(50), "ms"},
      {"core.adapt_query_ms_p50", adapt_ms.Percentile(50), "ms"},
      {"core.pages_per_query",
       Ratio(static_cast<double>(pages), static_cast<double>(measured_executes)),
       "pages"},
      {"core.views_created", static_cast<double>(counters.engine.views_created),
       "count"},
      {"core.views_evicted", static_cast<double>(counters.engine.views_evicted),
       "count"},
      {"core.candidates_dropped",
       static_cast<double>(counters.engine.candidates_dropped), "count"},
      {"core.shard_fanout_ms_p50", Median(probe.fanout_ms), "ms"},
      {"core.shard_parallel_eff", Median(probe.parallel_eff), "ratio"},
      {"core.flush_ms_p50", flush_ms.Percentile(50), "ms"},
      {"core.flush_ms_max", flush_ms.Max(), "ms"},
      {"core.align_pages_per_flush",
       Ratio(static_cast<double>(align_pages),
             static_cast<double>(flush_ms.Count())),
       "pages"},
      {"core.compactions", static_cast<double>(counters.compactions), "count"},
      {"exec.kernel_gbps",
       Ratio(static_cast<double>(table_bytes), Median(probe.kernel_ms) / 1e3) /
           gb,
       "GB/s"},
      {"exec.fullscan_gbps",
       Ratio(static_cast<double>(table_bytes),
             Median(probe.fullscan_ms) / 1e3) /
           gb,
       "GB/s"},
      {"exec.view_scan_gbps", Ratio(view_bytes, view_time_ms / 1e3) / gb,
       "GB/s"},
      {"rewiring.vmas", static_cast<double>(loop.window_end.vmas), "count"},
      {"rewiring.page_table_kb", static_cast<double>(loop.window_end.pte_kb),
       "KiB"},
      {"rewiring.minor_faults_per_query",
       Ratio(static_cast<double>(counters.after.minor_faults -
                                 counters.before.minor_faults),
             static_cast<double>(counters.queries)),
       "count"},
      {"storage.update_call_ms_p50", update_ms.Percentile(50), "ms"},
      {"storage.update_call_ms_p99", update_ms.Percentile(99), "ms"},
      {"storage.fsyncs_per_update",
       Ratio(static_cast<double>(counters.durable_after.journal_group_commits -
                                 counters.durable_before.journal_group_commits),
             static_cast<double>(counters.durable_after.journal_appends -
                                 counters.durable_before.journal_appends)),
       "ratio"},
      {"storage.syncs_per_update",
       Ratio(static_cast<double>(counters.syncs), updates), "ratio"},
      {"storage.write_bytes_per_update",
       Ratio(static_cast<double>(counters.after.wchar - counters.before.wchar),
             updates),
       "B"},
      {"storage.write_syscalls_per_update",
       Ratio(static_cast<double>(counters.after.syscw - counters.before.syscw),
             updates),
       "count"},
      {"storage.checkpoint_ms_p50", checkpoint_ms.Percentile(50), "ms"},
      {"bench.send_late_ms_p99", counters.send_late_ms_p99, "ms"},
      {"bench.trace_overhead", Ratio(loop.untraced_mean_ms, loop.traced_mean_ms),
       "ratio"},
  };
  out->extra.push_back(
      {"bench.spans", static_cast<double>(spans.size()), "count"});
}

/// Collects the quiescent "before" counters.
Counters CountersBefore(Table* table) {
  Counters c;
  SampleProc(&c.before);
  c.durable_before = table->Durability();
  c.compactions = SumCompactions(table);
  return c;
}

void CountersAfter(Table* table, Counters* c) {
  SampleProc(&c->after);
  c->durable_after = table->Durability();
  c->compactions = SumCompactions(table) - c->compactions;
}

void Finish(const FailureLog& log, RunResult* out) {
  out->attempted = log.attempted.load();
  out->failed = log.failed.load();
  out->correct = out->failed == 0;
  out->extra.push_back(
      {"error_rate", Ratio(static_cast<double>(out->failed),
                           static_cast<double>(out->attempted)),
       "ratio"});
}

// ---------------------------------------------------------------------------
// drift_adapt

StatusOr<RunResult> RunDriftAdapt(const RunOptions& options) {
  const uint64_t rows = kDriftPages * vmsv::kValuesPerPage;
  vmsv::QueryWorkloadSpec wspec;
  wspec.num_queries = kDriftPhases * kDriftQueriesPerPhase;
  wspec.domain_hi = kDomainHi;
  wspec.seed = vmsv::MixHash(options.seed, 0x44524654);  // "DRFT"
  const std::vector<RangeQuery> sequence =
      vmsv::MakePhaseShiftWorkload(wspec, kDriftSelectivity, kDriftPhases);

  DbOptions db;
  db.column.mode = vmsv::QueryMode::kMultiView;
  db.column.cost_based_routing = true;
  db.column.max_views = kDriftMaxViews;
  const vmsv::ValueGenerator gen(SineSpec(options.seed), rows);

  double setup_s = 0;
  auto made = TimedSetup(
      [&]() -> StatusOr<std::unique_ptr<Table>> {
        auto table = Db::Create(rows, gen, db);
        if (!table.ok()) return table.status();
        return Traced(std::move(table).ValueOrDie());
      },
      options.trace ? 1 : kSetupReps, &setup_s);
  if (!made.ok()) return made.status();
  std::unique_ptr<Table> table = std::move(made).ValueOrDie();

  FailureLog log;
  // Answers of the sampled sequence positions, every occurrence.
  std::vector<std::pair<uint64_t, Answer>> sampled;
  sampled.reserve(1 << 16);
  const vmsv::CumulativeStats at_start = table->Metrics();
  vmsv::CumulativeStats counted;
  bool counted_done = false;
  uint64_t cursor = 0;

  Counters counters = CountersBefore(table.get());
  const LoopResult loop = RunClosedLoop(
      1, options.seed, options.seconds, options.trace,
      [&](int, vmsv::Rng*) {
        const uint64_t pos = cursor % sequence.size();
        auto r = table->Execute(sequence[pos]);
        ++cursor;
        if (!r.ok()) {
          log.Fail("Execute", r.status().ToString());
          return;
        }
        log.Ok();
        if (pos % kDriftCheckStride == 0) sampled.emplace_back(pos, AnswerOf(*r));
        if (cursor == kDriftCountQueries) {
          counted = Delta(at_start, table->Metrics());
          counted_done = true;
        }
      },
      /*cycle=*/sequence.size());
  CountersAfter(table.get(), &counters);
  counters.queries = loop.executed_ops;
  counters.engine = counted;
  if (!counted_done) {
    log.Fail("drift_adapt", "the run ended before its counting window");
  }

  // Oracle: one full scan per distinct sampled position.
  std::map<uint64_t, Answer> oracle;
  for (const auto& [pos, got] : sampled) {
    auto it = oracle.find(pos);
    if (it == oracle.end()) {
      OpScope scope(SpanName::kCheckOp, Phase::kCheck);
      auto want = table->ExecuteFullScan(sequence[pos]);
      if (!want.ok()) {
        log.Fail("ExecuteFullScan", want.status().ToString());
        continue;
      }
      it = oracle.emplace(pos, AnswerOf(*want)).first;
    }
    log.Check(got == it->second, "drift_adapt answer",
              Describe(sequence[pos], got, it->second));
  }

  RunResult out;
  AddEndToEnd(loop, setup_s, &out);
  if (options.trace) {
    std::vector<RangeQuery> probes;
    for (size_t i = 0; i < sequence.size(); i += sequence.size() / kFanoutProbes) {
      probes.push_back(sequence[i]);
    }
    const ProbeResult probe = RunProbes(table.get(), probes, &log);
    AddPerLayer(loop, probe, counters, rows * sizeof(Value), &out);
  }
  Finish(log, &out);
  return out;
}

// ---------------------------------------------------------------------------
// shard_fanout

StatusOr<RunResult> RunShardFanout(const RunOptions& options) {
  const uint64_t rows = kSmallPages * vmsv::kValuesPerPage;
  const std::vector<RangeQuery> ranges =
      MakeWarmRanges(options.seed, kWarmRanges, kWarmSelectivity);
  DbOptions db;
  db.column.max_views = kSmallMaxViews;
  db.shards = kFanoutShards;
  db.partition = vmsv::PartitionKind::kHash;
  const vmsv::ValueGenerator gen(SineSpec(options.seed), rows);

  double setup_s = 0;
  auto made = TimedSetup(
      [&]() -> StatusOr<std::unique_ptr<Table>> {
        auto created = Db::Create(rows, gen, db);
        if (!created.ok()) return created.status();
        auto table = Traced(std::move(created).ValueOrDie());
        const Status warmed = WarmRanges(table.get(), ranges);
        if (!warmed.ok()) return warmed;
        return table;
      },
      options.trace ? 1 : kSetupReps, &setup_s);
  if (!made.ok()) return made.status();
  std::unique_ptr<Table> table = std::move(made).ValueOrDie();

  FailureLog log;
  std::vector<Answer> oracle;
  for (const RangeQuery& q : ranges) {
    OpScope scope(SpanName::kCheckOp, Phase::kCheck);
    auto want = table->ExecuteFullScan(q);
    if (!want.ok()) return want.status();
    oracle.push_back(AnswerOf(*want));
  }

  const vmsv::CumulativeStats at_start = table->Metrics();
  Counters counters = CountersBefore(table.get());
  const LoopResult loop = RunClosedLoop(
      kFanoutClients, options.seed, options.seconds, options.trace,
      [&](int, vmsv::Rng* rng) {
        const size_t pick = rng->Below(ranges.size());
        auto r = table->Execute(ranges[pick]);
        if (!r.ok()) {
          log.Fail("Execute", r.status().ToString());
          return;
        }
        log.Check(AnswerOf(*r) == oracle[pick], "shard_fanout answer",
                  Describe(ranges[pick], AnswerOf(*r), oracle[pick]));
      });
  CountersAfter(table.get(), &counters);
  counters.queries = loop.executed_ops;
  counters.engine = Delta(at_start, table->Metrics());

  RunResult out;
  AddEndToEnd(loop, setup_s, &out);
  if (options.trace) {
    const ProbeResult probe = RunProbes(table.get(), ranges, &log);
    AddPerLayer(loop, probe, counters, rows * sizeof(Value), &out);
  }
  Finish(log, &out);
  return out;
}

// ---------------------------------------------------------------------------
// shard_scan

StatusOr<RunResult> RunShardScan(const RunOptions& options) {
  const uint64_t rows = kSmallPages * vmsv::kValuesPerPage;
  const std::vector<RangeQuery> ranges =
      MakeWarmRanges(options.seed, kWarmRanges, kWarmSelectivity);
  DbOptions db;
  db.shards = kFanoutShards;
  db.partition = vmsv::PartitionKind::kHash;
  const vmsv::ValueGenerator gen(SineSpec(options.seed), rows);

  double setup_s = 0;
  auto made = TimedSetup(
      [&]() -> StatusOr<std::unique_ptr<Table>> {
        auto created = Db::Create(rows, gen, db);
        if (!created.ok()) return created.status();
        return Traced(std::move(created).ValueOrDie());
      },
      options.trace ? 1 : kSetupReps, &setup_s);
  if (!made.ok()) return made.status();
  std::unique_ptr<Table> table = std::move(made).ValueOrDie();

  // The oracle is the kernel alone, so it shares no engine path with the
  // fan-out it checks.
  FailureLog log;
  std::vector<Answer> oracle;
  for (const RangeQuery& q : ranges) {
    OpScope scope(SpanName::kCheckOp, Phase::kCheck);
    oracle.push_back(KernelPass(table.get(), q));
  }

  const vmsv::CumulativeStats at_start = table->Metrics();
  Counters counters = CountersBefore(table.get());
  const LoopResult loop = RunClosedLoop(
      kFanoutClients, options.seed, options.seconds, options.trace,
      [&](int, vmsv::Rng* rng) {
        const size_t pick = rng->Below(ranges.size());
        auto r = table->ExecuteFullScan(ranges[pick]);
        if (!r.ok()) {
          log.Fail("ExecuteFullScan", r.status().ToString());
          return;
        }
        log.Check(AnswerOf(*r) == oracle[pick], "shard_scan answer",
                  Describe(ranges[pick], AnswerOf(*r), oracle[pick]));
      });
  CountersAfter(table.get(), &counters);
  counters.queries = loop.executed_ops;
  counters.engine = Delta(at_start, table->Metrics());

  RunResult out;
  AddEndToEnd(loop, setup_s, &out);
  if (options.trace) {
    const ProbeResult probe = RunProbes(table.get(), ranges, &log);
    AddPerLayer(loop, probe, counters, rows * sizeof(Value), &out);
  }
  Finish(log, &out);
  return out;
}

// ---------------------------------------------------------------------------
// ingest_rw

/// The writer's view of every row it changed: the value of its last
/// acknowledged update.
class Shadow {
 public:
  explicit Shadow(const vmsv::ValueGenerator& gen) : gen_(gen) {}

  Value Get(uint64_t row) const {
    const auto it = values_.find(row);
    return it == values_.end() ? gen_(row) : it->second;
  }
  void Set(uint64_t row, Value v) { values_[row] = v; }
  const std::unordered_map<uint64_t, Value>& values() const { return values_; }

 private:
  const vmsv::ValueGenerator& gen_;
  std::unordered_map<uint64_t, Value> values_;
};

/// The durable table's file layer: tmpfs behaviour inside the checkout.
/// Writes, renames and truncates reach the checkout's file system as usual.
/// Every fdatasync, directory fsync and sync_file_range the engine asks for
/// is counted and acknowledged at once, which is what tmpfs does with
/// them. The benchmark may write only inside its checkout, and that sits on
/// a shared disk whose fsync latency swings by two orders of magnitude from
/// one minute to the next; with real syncs, reader qps moved 4x between
/// runs of the same code. A process kill keeps the page cache, so the
/// kill-style reopen still sees every acknowledged update.
class TmpfsLikeIo : public vmsv::StorageIo {
 public:
  Status Write(int fd, const void* data, size_t len, const char* what) override {
    return real_->Write(fd, data, len, what);
  }
  Status Pwrite(int fd, const void* data, size_t len, uint64_t offset,
                const char* what) override {
    return real_->Pwrite(fd, data, len, offset, what);
  }
  Status Fsync(int, const char*) override { return Count(); }
  Status FsyncDir(const std::string&) override { return Count(); }
  Status Rename(const std::string& from, const std::string& to) override {
    return real_->Rename(from, to);
  }
  Status Truncate(int fd, uint64_t len, const char* what) override {
    return real_->Truncate(fd, len, what);
  }
  Status SyncFileRange(int, const char*) override { return Count(); }

  /// Syncs requested so far.
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  Status Count() {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return vmsv::OkStatus();
  }

  vmsv::StorageIo* const real_ = vmsv::RealStorageIo();
  std::atomic<uint64_t> syncs_{0};
};

/// The next jittered point update: a seeded row and its value moved by at
/// most kUpdateJitter, clamped to the domain.
std::pair<uint64_t, Value> NextUpdate(vmsv::Rng* rng, uint64_t rows,
                                      const Shadow& shadow) {
  const uint64_t row = rng->Below(rows);
  const Value old_value = shadow.Get(row);
  const Value step = rng->Below(2 * kUpdateJitter + 1);
  Value v = old_value + step;
  v = v < kUpdateJitter ? 0 : v - kUpdateJitter;
  return {row, std::min(v, kDomainHi)};
}

StatusOr<RunResult> RunIngestRw(const RunOptions& options) {
  const uint64_t rows = kIngestPages * vmsv::kValuesPerPage;
  const std::vector<RangeQuery> ranges =
      MakeWarmRanges(options.seed, kWarmRanges, kWarmSelectivity);
  TmpfsLikeIo io;  // outlives every table below
  DbOptions db;
  db.column.max_views = kSmallMaxViews;
  db.column.storage.group_commit_batch = kGroupCommitBatch;
  db.column.storage.data_flush = vmsv::FlushPolicy::kSync;
  db.column.storage.io = &io;
  const vmsv::DistributionSpec spec = SineSpec(options.seed);
  const vmsv::ValueGenerator gen(spec, rows);
  const std::string dir = options.work_dir + "/ingest_rw." +
                          std::to_string(static_cast<long>(::getpid()));
  struct DirGuard {
    std::string path;
    ~DirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } guard{dir};

  double setup_s = 0;
  std::unique_ptr<Table> table;
  {
    auto made = TimedSetup(
        [&]() -> StatusOr<std::unique_ptr<Table>> {
          std::error_code ec;
          std::filesystem::remove_all(dir, ec);
          auto created = Db::CreateDurable(dir, rows, db);
          if (!created.ok()) return created.status();
          auto table = Traced(std::move(created).ValueOrDie());
          vmsv::FillColumn(spec, table->shard(0)->mutable_column());
          Status st = table->Checkpoint();
          if (!st.ok()) return st;
          st = WarmRanges(table.get(), ranges);
          if (!st.ok()) return st;
          return table;
        },
        options.trace ? 1 : kSetupReps, &setup_s);
    if (!made.ok()) return made.status();
    table = std::move(made).ValueOrDie();
  }

  FailureLog log;
  Shadow shadow(gen);
  vmsv::Rng writer_rng(vmsv::MixHash(options.seed, 0x57524954));  // "WRIT"
  struct UpdateRecord {
    int64_t due_ns;
    int64_t send_ns;
    int64_t end_ns;
  };
  std::vector<UpdateRecord> updates;
  updates.reserve(1 << 16);

  auto send_update = [&]() {
    const auto [row, value] = NextUpdate(&writer_rng, rows, shadow);
    const Status st = table->Update(row, value);
    if (!st.ok()) {
      log.Fail("Update", st.ToString());
      return;
    }
    log.Ok();
    shadow.Set(row, value);
    const uint64_t sent = updates.size() + 1;
    if (sent % kFlushEvery == 0) {
      auto flushed = table->FlushUpdates();
      if (flushed.ok()) {
        log.Ok();
      } else {
        log.Fail("FlushUpdates", flushed.status().ToString());
      }
    }
    if (sent % kCheckpointEvery == 0) {
      const Status cp = table->Checkpoint();
      if (cp.ok()) {
        log.Ok();
      } else {
        log.Fail("Checkpoint", cp.ToString());
      }
    }
  };

  const vmsv::CumulativeStats at_start = table->Metrics();
  Counters counters = CountersBefore(table.get());
  const uint64_t syncs_before = io.syncs();
  const LoopResult loop = RunClosedLoop(
      kIngestReaders, options.seed, options.seconds, options.trace,
      [&](int, vmsv::Rng* rng) {
        auto r = table->Execute(ranges[rng->Below(ranges.size())]);
        if (r.ok()) {
          log.Ok();
        } else {
          log.Fail("Execute", r.status().ToString());
        }
      },
      /*cycle=*/0,
      [&](const std::atomic<bool>& stop) {
        // Open loop: update i is due at start + i / rate, whether or not
        // the previous one has returned.
        const int64_t start = NowNs();
        const double period_ns = 1e9 / kWriterRatePerSec;
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const int64_t due = start + static_cast<int64_t>(i * period_ns);
          const int64_t wait = due - NowNs();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          OpScope scope(SpanName::kUpdateOp, Phase::kMeasure);
          UpdateRecord rec{due, NowNs(), 0};
          send_update();
          rec.end_ns = NowNs();
          updates.push_back(rec);
        }
      });
  CountersAfter(table.get(), &counters);
  counters.syncs = io.syncs() - syncs_before;
  counters.queries = loop.executed_ops;
  counters.updates = updates.size();
  counters.engine = Delta(at_start, table->Metrics());

  // Update latency, like query latency, is the median over the window's
  // kSubWindows parts (by due time) of each part's percentiles.
  std::vector<SampleStats> update_ms(kSubWindows);
  SampleStats late_ms;
  uint64_t update_samples = 0;
  const int64_t window_ns = loop.window_end_ns - loop.window_start_ns;
  for (const UpdateRecord& u : updates) {
    if (u.due_ns < loop.window_start_ns || u.end_ns > loop.window_end_ns) continue;
    const int64_t part = (u.due_ns - loop.window_start_ns) * kSubWindows / window_ns;
    update_ms[std::min<int64_t>(part, kSubWindows - 1)].Add(
        static_cast<double>(u.end_ns - u.due_ns) / 1e6);
    late_ms.Add(static_cast<double>(u.send_ns - u.due_ns) / 1e6);
    ++update_samples;
  }
  std::vector<double> update_p50, update_p99;
  for (SampleStats& part : update_ms) {
    update_p50.push_back(part.Percentile(50));
    update_p99.push_back(part.Percentile(99));
  }
  counters.send_late_ms_p99 = late_ms.Percentile(99);

  // Quiescent end: every warm range against the full-scan oracle.
  auto check_ranges = [&](const char* what) {
    for (const RangeQuery& q : ranges) {
      OpScope scope(SpanName::kCheckOp, Phase::kCheck);
      auto got = table->Execute(q);
      auto want = table->ExecuteFullScan(q);
      if (!got.ok() || !want.ok()) {
        log.Fail(what, "query returned an error");
        continue;
      }
      log.Check(AnswerOf(*got) == AnswerOf(*want), what,
                Describe(q, AnswerOf(*got), AnswerOf(*want)));
    }
  };
  check_ranges("ingest_rw quiescent answer");

  // Acknowledged updates that no flush covers, then a kill-style close:
  // the table is destroyed without a checkpoint and reopened from disk.
  for (uint64_t i = 0; i < kUnflushedTail; ++i) {
    const auto [row, value] = NextUpdate(&writer_rng, rows, shadow);
    const Status st = table->Update(row, value);
    if (!st.ok()) {
      log.Fail("Update", st.ToString());
      continue;
    }
    log.Ok();
    shadow.Set(row, value);
  }

  RunResult out;
  ProbeResult probe;
  if (options.trace) probe = RunProbes(table.get(), ranges, &log);

  table.reset();
  {
    auto reopened = Db::Open(dir, db);
    if (!reopened.ok()) {
      log.Fail("Db::Open", reopened.status().ToString());
    } else {
      table = Traced(std::move(reopened).ValueOrDie());
      const uint64_t replayed = table->Durability().journal_replayed;
      log.Check(replayed >= kUnflushedTail, "ingest_rw journal replay",
                std::to_string(replayed) + " records replayed");
      check_ranges("ingest_rw answer after reopen");
      const vmsv::PhysicalColumn& column = table->shard(0)->column();
      for (const auto& [row, value] : shadow.values()) {
        log.Check(column.Get(row) == value, "ingest_rw acknowledged update",
                  "row " + std::to_string(row));
      }
    }
  }

  AddEndToEnd(loop, setup_s, &out);
  out.extra.push_back({"update_p50_ms", Median(update_p50), "ms"});
  out.extra.push_back({"update_p99_ms", Median(update_p99), "ms"});
  out.extra.push_back(
      {"update_samples", static_cast<double>(update_samples), "count"});
  out.extra.push_back({"writer_rate", kWriterRatePerSec, "1/s"});
  if (options.trace) {
    AddPerLayer(loop, probe, counters, rows * sizeof(Value), &out);
  }
  Finish(log, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "drift_adapt", "ingest_rw", "shard_scan", "shard_fanout"};
  return names;
}

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  Tracer::Get().SetEnabled(options.trace);
  StatusOr<RunResult> result = vmsv::InvalidArgument(
      "unknown workload '" + options.workload + "'");
  if (options.workload == "drift_adapt") result = RunDriftAdapt(options);
  if (options.workload == "shard_scan") result = RunShardScan(options);
  if (options.workload == "shard_fanout") result = RunShardFanout(options);
  if (options.workload == "ingest_rw") result = RunIngestRw(options);
  Tracer::Get().SetEnabled(false);
  if (result.ok() && options.trace && !options.spans_path.empty() &&
      !Tracer::Get().Dump(options.spans_path)) {
    return vmsv::IoError("cannot write spans to " + options.spans_path);
  }
  return result;
}

}  // namespace perfbench
