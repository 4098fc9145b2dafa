// Benchmark-side tracing: spans recorded around every call the benchmark
// makes into a layer's public functions, kept in memory per thread and
// dumped when the run ends.
//
// A span carries its own id, the id of the span that caused it (0 for a
// root), the id of the operation it belongs to (one client query, one
// update, one probe), a phase tag and two integer attributes (for
// Execute: scanned pages and the candidate decision). Per-layer metrics are
// computed from span SELF time: a span's duration minus the part of it its
// child spans cover.
//
// Tracing is decided per operation: OpScope samples the global switch (or
// takes the caller's decision) when the operation starts, and every nested
// Span of that operation follows it. With tracing off a Span costs one thread-local
// load.

#ifndef VMSV_PERFBENCH_TRACE_H_
#define VMSV_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "vmsv.h"

namespace perfbench {

enum class SpanName : uint8_t {
  // Roots: one benchmark operation each.
  kQueryOp,       // a client's query: pick a range, Execute, check
  kUpdateOp,      // the writer's update (plus its flush/checkpoint cadence)
  kSetupOp,       // create + fill + warm
  kCheckOp,       // one oracle comparison
  kFanoutProbe,   // table full scan, then each shard's full scan
  kKernelProbe,   // single-thread ScanPage pass over the base pages
  // Layer calls.
  kExecute,          // Table::Execute (core)
  kExecuteFullScan,  // Table::ExecuteFullScan (core)
  kUpdate,           // Table::Update (core -> storage journal)
  kFlushUpdates,     // Table::FlushUpdates (core align + storage sync)
  kCheckpoint,       // Table::Checkpoint (storage)
  kOtherTableCall,   // Health / Metrics / Durability / ExecuteBatch
  kShardFullScan,    // shard(i)->ExecuteFullScan (core, one shard)
  kScanPagePass,     // exec ScanPage over every base page of one shard
};

const char* SpanNameString(SpanName name);

enum class Phase : uint8_t { kSetup, kMeasure, kCheck, kProbe };

const char* PhaseString(Phase phase);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint32_t thread = 0;
  SpanName name = SpanName::kOtherTableCall;
  Phase phase = Phase::kMeasure;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide switch and span store.
class Tracer {
 public:
  static Tracer& Get();

  /// Global switch sampled by each new OpScope.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, all threads. Call with no operation in
  /// flight.
  std::vector<SpanRecord> Collect() const;

  /// Writes Collect() as CSV to `path`. False on an I/O error.
  bool Dump(const std::string& path) const;

  /// Registers a new buffer for the calling thread (once per thread, on its
  /// first span) and returns it with the thread's index.
  std::vector<SpanRecord>* ThreadBuffer(uint32_t* thread_index);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// RAII span. Records only inside a traced operation, and takes its op id,
/// parent and phase from the enclosing one.
class Span {
 public:
  explicit Span(SpanName name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void SetArgs(uint64_t arg0, uint64_t arg1) {
    record_.arg0 = arg0;
    record_.arg1 = arg1;
  }

 private:
  bool active_ = false;
  uint64_t saved_parent_ = 0;
  SpanRecord record_;
};

/// RAII root of one benchmark operation: decides whether it is traced
/// (the tracer switch, or the caller's choice), assigns an op id, and
/// records the root span. Operations do not nest.
class OpScope {
 public:
  OpScope(SpanName name, Phase phase)
      : OpScope(name, phase, Tracer::Get().enabled()) {}
  OpScope(SpanName name, Phase phase, bool traced);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool traced() const { return traced_; }

 private:
  bool traced_ = false;
  std::optional<Span> span_;
};

/// Duration minus the union of direct children's intervals, per span (same
/// order as `spans`).
std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans);

/// A Table decorator that records one span around every call. Owns the
/// wrapped table, so destroying it is the table's close.
class TracedTable : public vmsv::Table {
 public:
  explicit TracedTable(std::unique_ptr<vmsv::Table> inner)
      : inner_(std::move(inner)) {}

  vmsv::StatusOr<vmsv::QueryExecution> Execute(
      const vmsv::RangeQuery& q) override;
  vmsv::StatusOr<vmsv::BatchExecution> ExecuteBatch(
      const std::vector<vmsv::RangeQuery>& queries) override;
  vmsv::StatusOr<vmsv::QueryExecution> ExecuteFullScan(
      const vmsv::RangeQuery& q) const override;
  vmsv::Status Update(uint64_t row, vmsv::Value new_value) override;
  vmsv::StatusOr<vmsv::UpdateApplyStats> FlushUpdates() override;
  vmsv::Status Checkpoint() override;
  vmsv::TableHealth Health() const override;
  vmsv::CumulativeStats Metrics() const override;
  vmsv::DurabilityStats Durability() const override;

  uint64_t num_rows() const override { return inner_->num_rows(); }
  uint64_t num_pages() const override { return inner_->num_pages(); }
  uint32_t num_shards() const override { return inner_->num_shards(); }
  bool is_durable() const override { return inner_->is_durable(); }
  vmsv::AdaptiveColumn* shard(uint32_t i) override { return inner_->shard(i); }

 private:
  std::unique_ptr<vmsv::Table> inner_;
};

}  // namespace perfbench

#endif  // VMSV_PERFBENCH_TRACE_H_
