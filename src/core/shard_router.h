// ShardedTable — scale-out of one logical column across N engine shards.
//
// A logical column of P pages is partitioned across N AdaptiveColumn
// shards, each a complete engine of its own: its own maintenance mutex,
// view pool, lifecycle manager, journal, and (when durable) persist
// subdirectory — so adaptation, flushes, and demotion on one shard never
// serialize the others.
//
// PARTITIONING is by PAGE, not row: shard i owns either a balanced
// contiguous page block (kRange) or every page p with p % N == i (kHash).
// Page granularity is what makes sharded results BIT-IDENTICAL to an
// unsharded oracle: the shards' pages are exactly a partition of the
// oracle's pages (including the single zero-filled tail page), so summing
// per-shard match_count/sum in shard order — associative wrap-around
// uint64 adds — reproduces the oracle's page-wise scan exactly. Updates
// route by row to exactly one shard (the one owning the row's page).
//
// QUERY FAN-OUT is pruned by each shard's COLUMN ZONE
// (AdaptiveColumn::ZoneMayMatch): the union of the shard's per-page
// [min, max] zones, built by one pass at create/open, widened by every
// update before its cell write, and unknown (so the shard is visited)
// after a load through mutable_column(). A query visits just the shards
// whose zone may match it; skipped shards provably contribute zero
// matches, so pruning never affects results.
// The calling thread runs the visited shards' sub-scans itself, one after
// another in shard order, merging each answer as it arrives: parallelism
// within a query comes from each shard's scan ThreadPool, and parallelism
// across queries from the callers' own threads (readers are lock-free
// under epochs), so the router owns no threads.
//
// DURABLE LAYOUT: dir/TABLE (a small text descriptor: version, shard
// count, partition kind, row count) plus dir/shard-000/ ... each holding a
// self-contained durable column. Checkpoint iterates the shards; recovery
// is per shard, so a kill between per-shard checkpoints reopens every
// shard at its own journal-consistent point and the TABLE's contract
// (acknowledged updates survive) still holds table-wide.

#ifndef VMSV_CORE_SHARD_ROUTER_H_
#define VMSV_CORE_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_layer.h"
#include "core/db.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

/// The page-to-shard assignment of one table. Pure arithmetic over
/// (kind, shards, num_rows) — persisted in the TABLE descriptor, so every
/// reopen routes identically.
struct PartitionSpec {
  PartitionKind kind = PartitionKind::kRange;
  uint32_t shards = 1;
  uint64_t num_rows = 0;

  /// Total pages of the logical column (rounded up like PhysicalColumn).
  uint64_t TotalPages() const;
  /// Shard owning global page `page`.
  uint32_t ShardOfPage(uint64_t page) const;
  /// Shard owning global row `row`.
  uint32_t ShardOfRow(uint64_t row) const;
  /// Pages shard `s` owns.
  uint64_t ShardPages(uint32_t s) const;
  /// Rows shard `s` owns (its pages' rows; only the shard holding the
  /// globally-last page can end mid-page).
  uint64_t ShardRows(uint32_t s) const;
  /// Global page backing shard `s`'s local page `lp` (ascending in lp, so
  /// the global tail page is always a shard's LAST local page).
  uint64_t GlobalPage(uint32_t s, uint64_t lp) const;
  /// Shard-local row id of global row `row` on ShardOfRow(row).
  uint64_t LocalRow(uint64_t row) const;
};

/// Writes `dir`/TABLE (atomic tmp+rename through `io`; null = real I/O).
Status WriteTableDescriptor(const std::string& dir, const PartitionSpec& spec,
                            StorageIo* io);

/// Reads `dir`/TABLE. Error contract: NotFound when absent, IoError on a
/// malformed descriptor.
StatusOr<PartitionSpec> ReadTableDescriptor(const std::string& dir);

/// \internal The sharded Table implementation behind vmsv::Db. Constructed
/// through Db::Create/CreateDurable/Open only.
class ShardedTable : public Table {
 public:
  /// Builds an in-memory sharded table, filling global row r with
  /// value_of(r).
  static StatusOr<std::unique_ptr<Table>> Create(
      uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
      const DbOptions& options);

  /// Creates the durable layout (descriptor + shard subdirectories).
  static StatusOr<std::unique_ptr<Table>> CreateDurable(
      const std::string& dir, uint64_t num_rows, const DbOptions& options);

  /// Reopens a durable sharded table from its descriptor.
  static StatusOr<std::unique_ptr<Table>> Open(const std::string& dir,
                                               const PartitionSpec& spec,
                                               const DbOptions& options);

  StatusOr<QueryExecution> Execute(const RangeQuery& q) override;
  StatusOr<BatchExecution> ExecuteBatch(
      const std::vector<RangeQuery>& queries) override;
  StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const override;
  Status Update(uint64_t row, Value new_value) override;
  StatusOr<UpdateApplyStats> FlushUpdates() override;
  Status Checkpoint() override;
  TableHealth Health() const override;
  CumulativeStats Metrics() const override;
  DurabilityStats Durability() const override;

  uint64_t num_rows() const override { return spec_.num_rows; }
  uint64_t num_pages() const override { return spec_.TotalPages(); }
  uint32_t num_shards() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  bool is_durable() const override { return durable_; }
  AdaptiveColumn* shard(uint32_t i) override { return shards_[i].get(); }

  const PartitionSpec& partition() const { return spec_; }

  /// Shards Execute(q) would visit, ascending — the zone-pruning decision
  /// exposed for routing-determinism tests.
  std::vector<uint32_t> RouteShards(const RangeQuery& q) const;

 private:
  ShardedTable(PartitionSpec spec, bool durable) : spec_(spec), durable_(durable) {}

  /// Adds a shard with its zone map built, so routing prunes from the
  /// first query.
  void AddShard(std::unique_ptr<AdaptiveColumn> column);

  PartitionSpec spec_;
  bool durable_ = false;
  std::vector<std::unique_ptr<AdaptiveColumn>> shards_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_SHARD_ROUTER_H_
