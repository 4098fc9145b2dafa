#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/// The calling thread's position in the span tree.
struct ThreadContext {
  bool active = false;  // inside a traced operation
  uint64_t op = 0;
  uint64_t parent = 0;
  Phase phase = Phase::kMeasure;
  uint64_t next_seq = 1;
  uint32_t index = 0;
  std::vector<SpanRecord>* buffer = nullptr;
};

thread_local ThreadContext t_context;

/// Ids are unique across threads: thread index in the top 24 bits.
uint64_t NextId() {
  ThreadContext& ctx = t_context;
  if (ctx.buffer == nullptr) ctx.buffer = Tracer::Get().ThreadBuffer(&ctx.index);
  return (static_cast<uint64_t>(ctx.index + 1) << 40) | ctx.next_seq++;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQueryOp: return "bench.query";
    case SpanName::kUpdateOp: return "bench.update";
    case SpanName::kSetupOp: return "bench.setup";
    case SpanName::kCheckOp: return "bench.check";
    case SpanName::kFanoutProbe: return "probe.fanout";
    case SpanName::kKernelProbe: return "probe.kernel";
    case SpanName::kExecute: return "table.Execute";
    case SpanName::kExecuteFullScan: return "table.ExecuteFullScan";
    case SpanName::kUpdate: return "table.Update";
    case SpanName::kFlushUpdates: return "table.FlushUpdates";
    case SpanName::kCheckpoint: return "table.Checkpoint";
    case SpanName::kOtherTableCall: return "table.other";
    case SpanName::kShardFullScan: return "shard.ExecuteFullScan";
    case SpanName::kScanPagePass: return "exec.ScanPage";
  }
  return "unknown";
}

const char* PhaseString(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kMeasure: return "measure";
    case Phase::kCheck: return "check";
    case Phase::kProbe: return "probe";
  }
  return "unknown";
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may outlive main's locals
  return *tracer;
}

std::vector<SpanRecord>* Tracer::ThreadBuffer(uint32_t* thread_index) {
  std::lock_guard<std::mutex> lock(mu_);
  *thread_index = static_cast<uint32_t>(buffers_.size());
  buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
  buffers_.back()->reserve(1 << 16);
  return buffers_.back().get();
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool Tracer::Dump(const std::string& path) const {
  const std::vector<SpanRecord> spans = Collect();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "span_id,parent_id,op_id,thread,name,phase,start_ns,"
                    "end_ns,arg0,arg1\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(out, "%llu,%llu,%llu,%u,%s,%s,%lld,%lld,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 SpanNameString(s.name), PhaseString(s.phase),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.arg0),
                 static_cast<unsigned long long>(s.arg1));
  }
  return std::fclose(out) == 0;
}

Span::Span(SpanName name) {
  ThreadContext& ctx = t_context;
  if (!ctx.active) return;
  active_ = true;
  record_.id = NextId();
  record_.parent = ctx.parent;
  record_.op = ctx.op;
  record_.thread = ctx.index;
  record_.name = name;
  record_.phase = ctx.phase;
  saved_parent_ = ctx.parent;
  ctx.parent = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadContext& ctx = t_context;
  ctx.parent = saved_parent_;
  ctx.buffer->push_back(record_);
}

OpScope::OpScope(SpanName name, Phase phase, bool traced) : traced_(traced) {
  ThreadContext& ctx = t_context;
  if (!traced_) return;
  ctx.active = true;
  ctx.phase = phase;
  ctx.parent = 0;
  ctx.op = NextId();
  span_.emplace(name);
}

OpScope::~OpScope() {
  if (!traced_) return;
  span_.reset();
  t_context.active = false;
}

std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [start, end] : kids) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) / 1e6;
  }
  return self;
}

// ---------------------------------------------------------------------------
// TracedTable

vmsv::StatusOr<vmsv::QueryExecution> TracedTable::Execute(
    const vmsv::RangeQuery& q) {
  Span span(SpanName::kExecute);
  auto result = inner_->Execute(q);
  if (result.ok()) {
    span.SetArgs(result->stats.scanned_pages,
                 static_cast<uint64_t>(result->stats.decision));
  }
  return result;
}

vmsv::StatusOr<vmsv::BatchExecution> TracedTable::ExecuteBatch(
    const std::vector<vmsv::RangeQuery>& queries) {
  Span span(SpanName::kOtherTableCall);
  return inner_->ExecuteBatch(queries);
}

vmsv::StatusOr<vmsv::QueryExecution> TracedTable::ExecuteFullScan(
    const vmsv::RangeQuery& q) const {
  Span span(SpanName::kExecuteFullScan);
  auto result = inner_->ExecuteFullScan(q);
  if (result.ok()) span.SetArgs(result->stats.scanned_pages, 0);
  return result;
}

vmsv::Status TracedTable::Update(uint64_t row, vmsv::Value new_value) {
  Span span(SpanName::kUpdate);
  return inner_->Update(row, new_value);
}

vmsv::StatusOr<vmsv::UpdateApplyStats> TracedTable::FlushUpdates() {
  Span span(SpanName::kFlushUpdates);
  auto result = inner_->FlushUpdates();
  if (result.ok()) {
    span.SetArgs(result->pages_added + result->pages_removed,
                 result->net_updates);
  }
  return result;
}

vmsv::Status TracedTable::Checkpoint() {
  Span span(SpanName::kCheckpoint);
  return inner_->Checkpoint();
}

vmsv::TableHealth TracedTable::Health() const {
  Span span(SpanName::kOtherTableCall);
  return inner_->Health();
}

vmsv::CumulativeStats TracedTable::Metrics() const {
  Span span(SpanName::kOtherTableCall);
  return inner_->Metrics();
}

vmsv::DurabilityStats TracedTable::Durability() const {
  Span span(SpanName::kOtherTableCall);
  return inner_->Durability();
}

}  // namespace perfbench
