#include "vmsv.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scoped_temp_dir.h"
#include "util/random.h"
#include "workload/distribution.h"
#include "workload/query_generator.h"
#include "workload/runner.h"

namespace vmsv {
namespace {

constexpr uint64_t kTestPages = 64;
constexpr Value kMaxValue = 100'000'000;

std::unique_ptr<PhysicalColumn> MakeTestColumn(DataDistribution kind) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kTestPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  return std::move(column_r).ValueOrDie();
}

std::unique_ptr<Table> MakeAdaptive(DataDistribution kind,
                                    const AdaptiveConfig& config) {
  auto adaptive_r = Db::Create(MakeTestColumn(kind), DbOptions{config});
  EXPECT_TRUE(adaptive_r.ok()) << adaptive_r.status().ToString();
  return std::move(adaptive_r).ValueOrDie();
}

std::vector<RangeQuery> TestWorkload(uint64_t n, uint64_t seed) {
  QueryWorkloadSpec wspec;
  wspec.num_queries = n;
  wspec.domain_hi = kMaxValue;
  wspec.seed = seed;
  return MakeVaryingWidthWorkload(wspec, kMaxValue / 2, kMaxValue / 20000);
}

TEST(AdaptiveColumnTest, CreateValidatesArguments) {
  EXPECT_FALSE(Db::Create(nullptr, {}).ok());
  AdaptiveConfig config;
  config.max_views = 0;
  EXPECT_FALSE(
      Db::Create(MakeTestColumn(DataDistribution::kSine), DbOptions{config})
          .ok());
}

TEST(AdaptiveColumnTest, RejectsInvertedQuery) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  EXPECT_FALSE(adaptive->Execute(RangeQuery{10, 5}).ok());
}

// The core correctness contract: in both modes, on every distribution,
// adaptive answers must equal the full-scan baseline for a whole query
// sequence (the runner verifies each query).
class AdaptiveModeTest
    : public ::testing::TestWithParam<std::tuple<QueryMode, DataDistribution>> {
};

TEST_P(AdaptiveModeTest, ResultsEqualFullScanBaseline) {
  const auto [mode, kind] = GetParam();
  AdaptiveConfig config;
  config.mode = mode;
  config.max_views = 16;
  auto adaptive = MakeAdaptive(kind, config);

  RunnerOptions options;
  options.run_baseline = true;
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), TestWorkload(40, 3), options);
  ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
  EXPECT_EQ(report_r->traces.size(), 40u);

  // The budget must be respected throughout.
  EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), config.max_views);
  // On clustered data at least one view must have materialized.
  EXPECT_GE(adaptive->shard(0)->view_index().num_partial_views(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndDistributions, AdaptiveModeTest,
    ::testing::Combine(::testing::Values(QueryMode::kSingleView,
                                         QueryMode::kMultiView),
                       ::testing::Values(DataDistribution::kSine,
                                         DataDistribution::kLinear,
                                         DataDistribution::kSparse,
                                         DataDistribution::kUniform)));

TEST(AdaptiveColumnTest, MaxViewsBudgetIsHardLimit) {
  AdaptiveConfig config;
  config.max_views = 3;
  // Pin the historical cliff policy: every candidate at budget is dropped.
  config.lifecycle.eviction_policy = EvictionPolicy::kDropNewest;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);

  bool saw_budget_exhausted = false;
  for (const RangeQuery& q : TestWorkload(60, 11)) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), 3u);
    saw_budget_exhausted |=
        exec->stats.decision == CandidateDecision::kBudgetExhausted;
  }
  EXPECT_TRUE(saw_budget_exhausted);
  // Drops are no longer silent: the counter must match what we observed.
  EXPECT_GT(adaptive->shard(0)->metrics().candidates_dropped, 0u);
  EXPECT_EQ(adaptive->shard(0)->metrics().views_evicted, 0u);
}

TEST(AdaptiveColumnTest, CostAwareBudgetStaysWithinLimitToo) {
  AdaptiveConfig config;
  config.max_views = 3;
  config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);
  for (const RangeQuery& q : TestWorkload(60, 11)) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_LE(adaptive->shard(0)->view_index().num_partial_views(), 3u);
  }
  // Under budget pressure the pool adapted instead of freezing.
  EXPECT_GT(adaptive->shard(0)->metrics().views_evicted +
                adaptive->shard(0)->metrics().candidates_dropped,
            0u);
}

TEST(AdaptiveColumnTest, CoveredQueryIsAnsweredFromView) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery wide{10'000'000, 30'000'000};
  auto first = adaptive->Execute(wide);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.decision, CandidateDecision::kInserted);
  EXPECT_EQ(first->stats.scanned_pages, kTestPages);

  // A narrower query inside the view's range must be answered from it and
  // scan at most the view's pages.
  const RangeQuery narrow{12'000'000, 20'000'000};
  auto second = adaptive->Execute(narrow);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_LT(second->stats.scanned_pages, kTestPages);

  auto baseline = adaptive->ExecuteFullScan(narrow);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(second->match_count, baseline->match_count);
  EXPECT_EQ(second->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, RepeatedQueryIsDiscardedAsSubset) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery q{5'000'000, 25'000'000};
  ASSERT_TRUE(adaptive->Execute(q).ok());
  // Force the full-scan path again by querying a range only slightly wider
  // than the view: its page set is typically identical on clustered data.
  const RangeQuery wider{5'000'000, 25'000'001};
  auto exec = adaptive->Execute(wider);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kDiscardedSubset);
  EXPECT_EQ(adaptive->shard(0)->view_index().num_partial_views(), 1u);

  // An exact-subset discard must extend the absorbing view's range, so the
  // same query is answered from the view from now on instead of triggering
  // an endless full-scan/discard loop.
  auto again = adaptive->Execute(wider);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(again->match_count, exec->match_count);
  EXPECT_EQ(again->sum, exec->sum);

  auto baseline = adaptive->ExecuteFullScan(wider);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(again->match_count, baseline->match_count);
  EXPECT_EQ(again->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, DisjointSubsetDiscardDoesNotExtendRange) {
  // A candidate whose range is DISJOINT from the absorbing view must not
  // widen it: the gap between the ranges was never scanned for, so routing
  // gap queries to the view would return wrong results.
  auto adaptive = MakeAdaptive(DataDistribution::kSparse, {});
  // Sparse data: most pages hold only low-band values, so two disjoint
  // high-band ranges often qualify the same few spike pages.
  const RangeQuery a{60'000'000, 70'000'000};
  ASSERT_TRUE(adaptive->Execute(a).ok());
  const RangeQuery b{80'000'000, 90'000'000};
  auto exec_b = adaptive->Execute(b);
  ASSERT_TRUE(exec_b.ok());

  // Whatever the decisions were, every later query must stay correct.
  for (const RangeQuery& q :
       {RangeQuery{72'000'000, 78'000'000}, RangeQuery{60'000'000, 90'000'000},
        a, b}) {
    auto exec = adaptive->Execute(q);
    ASSERT_TRUE(exec.ok());
    auto baseline = adaptive->ExecuteFullScan(q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(exec->match_count, baseline->match_count)
        << "[" << q.lo << "," << q.hi << "]";
    EXPECT_EQ(exec->sum, baseline->sum);
  }
}

TEST(AdaptiveColumnTest, DataFreeRangeIsRememberedAsEmptyView) {
  // A query range holding no data must be recorded (as an empty view), not
  // rebuilt and discarded on every repetition.
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  // All column values are <= kMaxValue, so this range is provably empty.
  const RangeQuery empty_range{kMaxValue + 1, kMaxValue + 1000};
  auto first = adaptive->Execute(empty_range);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->match_count, 0u);
  EXPECT_EQ(first->stats.decision, CandidateDecision::kInserted);

  auto second = adaptive->Execute(empty_range);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(second->stats.scanned_pages, 0u);
  EXPECT_EQ(second->match_count, 0u);

  // A touching empty range merges instead of burning budget; a data-bearing
  // query afterwards must not be answered by (or replace into) the empty
  // view wrongly.
  auto third = adaptive->Execute(RangeQuery{kMaxValue + 1001, kMaxValue + 2000});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.decision, CandidateDecision::kDiscardedSubset);
  EXPECT_EQ(adaptive->shard(0)->view_index().num_partial_views(), 1u);

  const RangeQuery data_range{0, kMaxValue / 4};
  auto fourth = adaptive->Execute(data_range);
  ASSERT_TRUE(fourth.ok());
  auto baseline = adaptive->ExecuteFullScan(data_range);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(fourth->match_count, baseline->match_count);
  EXPECT_EQ(fourth->sum, baseline->sum);
  // The empty view must still be present alongside any new view.
  EXPECT_GE(adaptive->shard(0)->view_index().num_partial_views(), 2u);
}

TEST(AdaptiveColumnTest, MultiViewCombinesViews) {
  AdaptiveConfig config;
  config.mode = QueryMode::kMultiView;
  config.max_views = 8;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);

  // Two adjacent views...
  ASSERT_TRUE(adaptive->Execute(RangeQuery{10'000'000, 20'000'000}).ok());
  ASSERT_TRUE(adaptive->Execute(RangeQuery{20'000'001, 30'000'000}).ok());
  // ...jointly answer a query spanning both.
  const RangeQuery spanning{15'000'000, 25'000'000};
  auto exec = adaptive->Execute(spanning);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(exec->stats.considered_views, 2u);

  auto baseline = adaptive->ExecuteFullScan(spanning);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, MetricsAccumulate) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  ASSERT_TRUE(adaptive->Execute(RangeQuery{0, kMaxValue}).ok());
  ASSERT_TRUE(adaptive->Execute(RangeQuery{1'000'000, 2'000'000}).ok());
  const CumulativeStats& m = adaptive->shard(0)->metrics();
  EXPECT_EQ(m.queries, 2u);
  EXPECT_EQ(m.fullscan_equivalent_pages, 2 * kTestPages);
  EXPECT_GT(m.scanned_pages, 0u);
  EXPECT_GE(m.PagesSavedRatio(), 0.0);
  EXPECT_LT(m.PagesSavedRatio(), 1.0);
}

TEST(AdaptiveColumnTest, PendingUpdatesAreFlushedBeforeAnswering) {
  auto adaptive = MakeAdaptive(DataDistribution::kSine, {});
  const RangeQuery q{40'000'000, 60'000'000};
  ASSERT_TRUE(adaptive->Execute(q).ok());

  // Move some rows into and out of the queried range, bypassing no logs.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint64_t row = rng.Below(adaptive->shard(0)->column().num_rows());
    adaptive->Update(row, rng.Below(kMaxValue + 1));
  }
  EXPECT_TRUE(adaptive->shard(0)->HasPendingUpdates());

  auto exec = adaptive->Execute(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(adaptive->shard(0)->HasPendingUpdates());
  auto baseline = adaptive->ExecuteFullScan(q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

TEST(AdaptiveColumnTest, BackgroundMappingCreationMatchesBaseline) {
  AdaptiveConfig config;
  config.creation.coalesce_runs = true;
  config.creation.background_mapping = true;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);
  RunnerOptions options;
  options.verify_results = true;
  auto report_r = RunWorkload(adaptive.get(), TestWorkload(20, 9), options);
  ASSERT_TRUE(report_r.ok()) << report_r.status().ToString();
}

TEST(AdaptiveColumnTest, ProcMapsMappingSourceMatchesBaseline) {
  AdaptiveConfig config;
  config.mapping_source = MappingSource::kProcMaps;
  auto adaptive = MakeAdaptive(DataDistribution::kSine, config);
  ASSERT_TRUE(adaptive->Execute(RangeQuery{30'000'000, 70'000'000}).ok());
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    adaptive->Update(rng.Below(adaptive->shard(0)->column().num_rows()),
                     rng.Below(kMaxValue + 1));
  }
  const RangeQuery q{35'000'000, 65'000'000};
  auto exec = adaptive->Execute(q);
  ASSERT_TRUE(exec.ok());
  auto baseline = adaptive->ExecuteFullScan(q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(exec->match_count, baseline->match_count);
  EXPECT_EQ(exec->sum, baseline->sum);
}

// ---------------------------------------------------------------------------
// Covers over shared pages and extra covered ranges, on a hand-built column
// whose page membership per value band is known exactly.

constexpr Value kBandWidth = 1000;
// Bands A = [1000, 1999], B = [2000, 2999], C = [3000, 3999].
constexpr Value kBandA = 1000;
constexpr Value kBandB = 2000;
constexpr Value kBandC = 3000;
// Pages listed in no band hold values far above every band.
constexpr Value kFar = 1'000'000;

RangeQuery Band(Value lo) { return RangeQuery{lo, lo + kBandWidth - 1}; }

// Page p holds values from the bands in page_bands[p], round-robin over its
// rows, and far values when it has no band.
void FillBanded(PhysicalColumn* column,
                const std::vector<std::vector<Value>>& page_bands) {
  for (uint64_t row = 0; row < column->num_rows(); ++row) {
    const uint64_t page = PhysicalColumn::PageOfRow(row);
    const std::vector<Value> bands =
        page < page_bands.size() ? page_bands[page] : std::vector<Value>{};
    column->Set(row, bands.empty()
                         ? kFar + row
                         : bands[row % bands.size()] + (row * 7) % kBandWidth);
  }
}

// kTestPages pages filled by FillBanded.
std::unique_ptr<PhysicalColumn> MakeBandedColumn(
    const std::vector<std::vector<Value>>& page_bands) {
  auto column_r = PhysicalColumn::Create(kTestPages * kValuesPerPage);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  auto column = std::move(column_r).ValueOrDie();
  FillBanded(column.get(), page_bands);
  return column;
}

std::unique_ptr<Table> MakeTable(std::unique_ptr<PhysicalColumn> column,
                                 const AdaptiveConfig& config) {
  auto table_r = Db::Create(std::move(column), DbOptions{config});
  EXPECT_TRUE(table_r.ok()) << table_r.status().ToString();
  return std::move(table_r).ValueOrDie();
}

void ExpectMatchesOracle(Table* table, const RangeQuery& q,
                         const QueryExecution& exec) {
  auto oracle = table->ExecuteFullScan(q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(exec.match_count, oracle->match_count)
      << "[" << q.lo << "," << q.hi << "]";
  EXPECT_EQ(exec.sum, oracle->sum) << "[" << q.lo << "," << q.hi << "]";
}

class CoverAnswerTest : public ::testing::TestWithParam<QueryMode> {
 protected:
  AdaptiveConfig Config(size_t max_views) const {
    AdaptiveConfig config;
    config.mode = GetParam();
    config.cost_based_routing = true;
    config.max_views = max_views;
    return config;
  }
};

TEST_P(CoverAnswerTest, SharedPageCoversMatchOracleAndScanTheUnion) {
  // View A = pages {0-4, 12}, B = {4-8, 12}, C = {8-12}: A and B share
  // pages 4 and 12, B and C share 8 and 12, all three share 12.
  std::vector<std::vector<Value>> bands(13);
  for (uint64_t p = 0; p <= 3; ++p) bands[p] = {kBandA};
  bands[4] = {kBandA, kBandB};
  for (uint64_t p = 5; p <= 7; ++p) bands[p] = {kBandB};
  bands[8] = {kBandB, kBandC};
  for (uint64_t p = 9; p <= 11; ++p) bands[p] = {kBandC};
  bands[12] = {kBandA, kBandB, kBandC};
  auto table = MakeTable(MakeBandedColumn(bands), Config(8));
  for (const Value band : {kBandA, kBandB, kBandC}) {
    auto built = table->Execute(Band(band));
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(built->stats.decision, CandidateDecision::kInserted);
  }
  ASSERT_EQ(table->shard(0)->view_index().num_partial_views(), 3u);

  struct Case {
    RangeQuery q;
    uint64_t views;
    uint64_t union_pages;
  };
  const std::vector<Case> cases = {
      {RangeQuery{1200, 1800}, 1, 6},   // A
      {RangeQuery{1500, 2500}, 2, 10},  // A + B: 12 pages, 10 distinct
      {RangeQuery{1500, 3500}, 3, 13},  // A + B + C: 17 pages, 13 distinct
  };
  for (const Case& c : cases) {
    // Single-view routing only ever answers from one view.
    if (GetParam() == QueryMode::kSingleView && c.views > 1) continue;
    SCOPED_TRACE(c.views);
    auto exec = table->Execute(c.q);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
    EXPECT_EQ(exec->stats.considered_views, c.views);
    EXPECT_EQ(exec->stats.scanned_pages, c.union_pages);
    ExpectMatchesOracle(table.get(), c.q, *exec);

    // The batch path dedups the same way: the group leader is charged the
    // union once, and each member counts it as its individual cost.
    auto batch = table->ExecuteBatch({c.q, c.q});
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->view_answered, 2u);
    EXPECT_EQ(batch->shared_scanned_pages, c.union_pages);
    EXPECT_EQ(batch->individual_equivalent_pages, 2 * c.union_pages);
    EXPECT_EQ(batch->queries[0].stats.scanned_pages, c.union_pages);
    EXPECT_EQ(batch->queries[1].stats.scanned_pages, 0u);
    for (const QueryExecution& member : batch->queries) {
      EXPECT_EQ(member.stats.considered_views, c.views);
      ExpectMatchesOracle(table.get(), c.q, member);
    }
  }
}

// Pages 0-3 hold bands A and C and nothing else does; band B holds no data.
// So C's pages are an exact subset of A's view, across the gap B.
std::vector<std::vector<Value>> GappedBands() {
  return std::vector<std::vector<Value>>(4, {kBandA, kBandC});
}

TEST_P(CoverAnswerTest, GappedExactSubsetRangeIsAnsweredFromItsView) {
  auto table = MakeTable(MakeBandedColumn(GappedBands()), Config(8));
  auto a = table->Execute(Band(kBandA));
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->stats.decision, CandidateDecision::kInserted);

  auto first = table->Execute(Band(kBandC));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.decision, CandidateDecision::kDiscardedSubset);
  ExpectMatchesOracle(table.get(), Band(kBandC), *first);
  // The discard kept its proof: C is now an extra range of A's view.
  const VirtualView& view = *table->shard(0)->view_index().views()[0];
  EXPECT_EQ(view.value_range(), Band(kBandA));
  ASSERT_EQ(view.extra_ranges().size(), 1u);
  EXPECT_EQ(view.extra_ranges()[0], Band(kBandC));

  for (const RangeQuery& q : {Band(kBandC), RangeQuery{3200, 3300}}) {
    auto again = table->Execute(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->stats.decision, CandidateDecision::kAnsweredFromView);
    EXPECT_EQ(again->stats.scanned_pages, 4u);
    ExpectMatchesOracle(table.get(), q, *again);
  }

  // The gap was never scanned for: it must not route to the view.
  auto gap = table->Execute(Band(kBandB));
  ASSERT_TRUE(gap.ok());
  EXPECT_NE(gap->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(gap->match_count, 0u);

  if (GetParam() == QueryMode::kMultiView) {
    // The gap is now an empty view, so A's view covers [A, C] twice over
    // (its [lo, hi] and its extra range) around the empty view; it appears
    // once in the cover and its pages are scanned once.
    const RangeQuery spanning{kBandA, kBandC + kBandWidth - 1};
    auto exec = table->Execute(spanning);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->stats.decision, CandidateDecision::kAnsweredFromView);
    EXPECT_EQ(exec->stats.considered_views, 2u);
    EXPECT_EQ(exec->stats.scanned_pages, 4u);
    ExpectMatchesOracle(table.get(), spanning, *exec);
  }
}

TEST_P(CoverAnswerTest, FlushedUpdateIntoExtraRangeIsAnswered) {
  auto table = MakeTable(MakeBandedColumn(GappedBands()), Config(8));
  ASSERT_TRUE(table->Execute(Band(kBandA)).ok());
  ASSERT_TRUE(table->Execute(Band(kBandC)).ok());  // records the extra range
  auto hit = table->Execute(Band(kBandC));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->stats.decision, CandidateDecision::kAnsweredFromView);

  // Move a value into C on page 10, outside the view. Alignment keeps the
  // view exact for A only, so the flush must drop the extra range.
  const uint64_t row = 10 * kValuesPerPage + 3;
  ASSERT_TRUE(table->Update(row, kBandC + 500).ok());
  ASSERT_TRUE(table->FlushUpdates().ok());
  auto after = table->Execute(Band(kBandC));
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(after->match_count, hit->match_count + 1);
  ExpectMatchesOracle(table.get(), Band(kBandC), *after);
  auto repeat = table->Execute(Band(kBandC));
  ASSERT_TRUE(repeat.ok());
  ExpectMatchesOracle(table.get(), Band(kBandC), *repeat);
}

TEST_P(CoverAnswerTest, EvictedViewNoLongerAnswersItsExtraRange) {
  AdaptiveConfig config = Config(1);
  config.lifecycle.eviction_policy = EvictionPolicy::kCostAware;
  // Any candidate outscores the pool member: every admission evicts.
  config.lifecycle.eviction_margin = 1e-9;
  auto table = MakeTable(MakeBandedColumn(GappedBands()), config);
  ASSERT_TRUE(table->Execute(Band(kBandA)).ok());
  ASSERT_TRUE(table->Execute(Band(kBandC)).ok());  // records the extra range
  auto hit = table->Execute(Band(kBandC));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->stats.decision, CandidateDecision::kAnsweredFromView);

  // A far range takes the only pool slot.
  auto far = table->Execute(RangeQuery{kFar, kFar + 10 * kValuesPerPage});
  ASSERT_TRUE(far.ok());
  ASSERT_EQ(far->stats.decision, CandidateDecision::kEvictedExisting);
  EXPECT_EQ(table->shard(0)->metrics().views_evicted, 1u);

  auto after = table->Execute(Band(kBandC));
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->stats.decision, CandidateDecision::kAnsweredFromView);
  // The miss is zone-pruned: only pages 0..3 hold band C values, so only
  // their zones meet the query.
  EXPECT_EQ(after->stats.scanned_pages, 4u);
  EXPECT_LT(after->stats.scanned_pages, kTestPages);
  ExpectMatchesOracle(table.get(), Band(kBandC), *after);
}

INSTANTIATE_TEST_SUITE_P(BothModes, CoverAnswerTest,
                         ::testing::Values(QueryMode::kSingleView,
                                           QueryMode::kMultiView));

TEST(VirtualViewRangesTest, AddCoveredRangeMergesExtendsAndCaps) {
  auto column = MakeTestColumn(DataDistribution::kSine);
  auto view_r = VirtualView::CreateEmpty(*column, 100, 199);
  ASSERT_TRUE(view_r.ok());
  VirtualView& view = **view_r;

  view.AddCoveredRange(RangeQuery{300, 399});
  view.AddCoveredRange(RangeQuery{500, 599});
  ASSERT_EQ(view.extra_ranges().size(), 2u);
  EXPECT_TRUE(view.Covers(RangeQuery{320, 380}));
  EXPECT_FALSE(view.Covers(RangeQuery{250, 260}));  // the gap
  EXPECT_FALSE(view.Covers(RangeQuery{150, 350}));  // spans the gap

  // Touching two extra ranges merges all three into one.
  view.AddCoveredRange(RangeQuery{400, 499});
  ASSERT_EQ(view.extra_ranges().size(), 1u);
  EXPECT_EQ(view.extra_ranges()[0], (RangeQuery{300, 599}));

  // Touching [lo, hi] widens it and absorbs what the new range touched.
  view.AddCoveredRange(RangeQuery{200, 299});
  EXPECT_EQ(view.value_range(), (RangeQuery{100, 599}));
  EXPECT_TRUE(view.extra_ranges().empty());

  // Past the cap a disjoint range is dropped; a touching one still merges.
  for (size_t i = 0; i < VirtualView::kMaxExtraRanges + 2; ++i) {
    const Value lo = 1000 + 100 * i;
    view.AddCoveredRange(RangeQuery{lo, lo + 49});
  }
  EXPECT_EQ(view.extra_ranges().size(), VirtualView::kMaxExtraRanges);
  EXPECT_FALSE(view.Covers(RangeQuery{1000 + 100 * VirtualView::kMaxExtraRanges,
                                      1000 + 100 * VirtualView::kMaxExtraRanges}));
  view.AddCoveredRange(RangeQuery{1050, 1099});
  EXPECT_TRUE(view.Covers(RangeQuery{1000, 1099}));

  view.ClearExtraRanges();
  EXPECT_FALSE(view.Covers(RangeQuery{1000, 1049}));
  EXPECT_TRUE(view.Covers(RangeQuery{100, 599}));
}


// ---------------------------------------------------------------------------
// Zone-pruned creation scans: with a zone map, BuildViewAndAnswer reads only
// the pages whose [min, max] meets the range, and must build exactly the
// view and the answer the full scan builds.

/// Rows of a column whose last page is partial, so it ends in a zero fill.
constexpr uint64_t kTailRows = kTestPages * kValuesPerPage - 37;

std::unique_ptr<PhysicalColumn> MakeTailColumn(DataDistribution kind) {
  DistributionSpec spec;
  spec.kind = kind;
  spec.max_value = kMaxValue;
  spec.seed = 42;
  auto column_r = MakeColumn(spec, kTailRows);
  EXPECT_TRUE(column_r.ok()) << column_r.status().ToString();
  return std::move(column_r).ValueOrDie();
}

/// Empty, single-value and whole-domain ranges, plus ranges at the edges of
/// the tail page: its zero fill (when partial) and its smallest and largest
/// stored values.
std::vector<RangeQuery> ZoneCheckRanges(const PhysicalColumn& column) {
  const uint64_t tail_first_row =
      (column.num_pages() - 1) * kValuesPerPage;
  Value tail_min = ~Value{0};
  Value tail_max = 0;
  for (uint64_t row = tail_first_row; row < column.num_rows(); ++row) {
    tail_min = std::min(tail_min, column.Get(row));
    tail_max = std::max(tail_max, column.Get(row));
  }
  const Value single = column.Get(column.num_rows() / 3);
  return {
      RangeQuery{kMaxValue + 1, kMaxValue + 1000},  // above every value
      RangeQuery{single, single},
      RangeQuery{0, ~Value{0}},
      RangeQuery{0, 0},
      RangeQuery{tail_min, tail_min},
      RangeQuery{tail_max, tail_max},
      RangeQuery{tail_max, ~Value{0}},
  };
}

TEST(ZonePrunedBuildTest, PrunedAndFullCreationScansAgree) {
  struct Case {
    const char* name;
    std::unique_ptr<PhysicalColumn> column;
  };
  std::vector<Case> cases;
  cases.push_back({"sine", MakeTailColumn(DataDistribution::kSine)});
  cases.push_back({"uniform", MakeTailColumn(DataDistribution::kUniform)});
  cases.push_back({"banded", MakeBandedColumn(GappedBands())});
  // Eager mapping with run coalescing, so the mapped runs are compared too.
  const ViewCreationOptions eager{/*coalesce_runs=*/true,
                                  /*background_mapping=*/false,
                                  /*lazy_materialize=*/false};
  // One thread, and four threads with the page count above the cutoff.
  const std::vector<ParallelScanOptions> scanners = {
      ParallelScanOptions{1, ~uint64_t{0}}, ParallelScanOptions{4, 8}};

  for (const Case& c : cases) {
    const PhysicalColumn& column = *c.column;
    const uint64_t pages = column.num_pages();
    // The first call builds the zone map inside its full scan.
    std::vector<PageZone> zones;
    auto building = BuildViewAndAnswer(column, 0, 0, RangeQuery{0, 0}, eager,
                                       nullptr, &zones);
    ASSERT_TRUE(building.ok()) << c.name;
    EXPECT_EQ(building->scanned_pages, pages) << c.name;
    ASSERT_EQ(zones.size(), pages) << c.name;
    for (uint64_t page = 0; page < pages; ++page) {
      const PageZone want =
          ComputePageZoneScalar(column.PageData(page), kValuesPerPage);
      ASSERT_EQ(zones[page].min, want.min) << c.name << " page " << page;
      ASSERT_EQ(zones[page].max, want.max) << c.name << " page " << page;
    }

    for (const ParallelScanOptions& scan : scanners) {
      for (const RangeQuery& q : ZoneCheckRanges(column)) {
        // The adaptive path's shape (view range == query) and a view range
        // wider than the query.
        for (const RangeQuery& range : {q, RangeQuery{q.lo / 2, q.hi}}) {
          const std::string what = std::string(c.name) + " threads=" +
                                   std::to_string(scan.threads) + " [" +
                                   std::to_string(range.lo) + "," +
                                   std::to_string(range.hi) + "]";
          auto full = BuildViewAndAnswer(column, range.lo, range.hi, q, eager,
                                         nullptr, nullptr, scan);
          auto pruned = BuildViewAndAnswer(column, range.lo, range.hi, q,
                                           eager, nullptr, &zones, scan);
          ASSERT_TRUE(full.ok() && pruned.ok()) << what;
          EXPECT_EQ(pruned->view->physical_pages(),
                    full->view->physical_pages())
              << what;
          EXPECT_EQ(pruned->view->CountFileRuns(), full->view->CountFileRuns())
              << what;
          EXPECT_EQ(pruned->view->num_slot_runs(), full->view->num_slot_runs())
              << what;
          EXPECT_EQ(pruned->query_result.match_count,
                    full->query_result.match_count)
              << what;
          EXPECT_EQ(pruned->query_result.sum, full->query_result.sum) << what;
          const PageScanResult oracle = ScanPageScalar(
              column.PageData(0), pages * kValuesPerPage, q);
          EXPECT_EQ(full->query_result.match_count, oracle.match_count) << what;
          EXPECT_EQ(full->query_result.sum, oracle.sum) << what;
          EXPECT_EQ(full->scanned_pages, pages) << what;
          uint64_t meeting = 0;
          for (const PageZone& zone : zones) meeting += zone.Intersects(range);
          EXPECT_EQ(pruned->scanned_pages, meeting) << what;
        }
      }
    }
  }

  // Pruning really skips pages at this size: band C lives on pages 0..3 of
  // the banded column, and no sine page holds every value.
  const PhysicalColumn& banded = *cases[2].column;
  std::vector<PageZone> banded_zones;
  ASSERT_TRUE(BuildViewAndAnswer(banded, 0, 0, RangeQuery{0, 0}, eager,
                                 nullptr, &banded_zones)
                  .ok());
  auto band_c = BuildViewAndAnswer(banded, kBandC, kBandC + kBandWidth - 1,
                                   Band(kBandC), eager, nullptr,
                                   &banded_zones);
  ASSERT_TRUE(band_c.ok());
  EXPECT_EQ(band_c->scanned_pages, 4u);
  const PhysicalColumn& sine = *cases[0].column;
  std::vector<PageZone> sine_zones;
  ASSERT_TRUE(BuildViewAndAnswer(sine, 0, 0, RangeQuery{0, 0}, eager, nullptr,
                                 &sine_zones)
                  .ok());
  const Value v = sine.Get(sine.num_rows() / 3);
  auto single = BuildViewAndAnswer(sine, v, v, RangeQuery{v, v}, eager,
                                   nullptr, &sine_zones);
  ASSERT_TRUE(single.ok());
  EXPECT_LT(single->scanned_pages, sine.num_pages());
}

TEST(ZonePrunedBuildTest, RejectsAZoneMapOfAnotherSize) {
  auto column = MakeBandedColumn(GappedBands());
  std::vector<PageZone> zones(column->num_pages() - 1);
  EXPECT_EQ(BuildViewAndAnswer(*column, 0, 10, RangeQuery{0, 10}, {}, nullptr,
                               &zones)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Zone-map upkeep through the engine: Update widens, a flush re-tightens,
// Open and a load through mutable_column() drop the map, and the next miss
// rebuilds it.

/// Between band C and the far values: on the banded column no page's zone
/// meets it. Each k gives a range that no earlier one covers, so every
/// GapQuery runs the miss path.
RangeQuery GapQuery(Value k) { return RangeQuery{5'000, 6'000 + k}; }

constexpr uint64_t kPage10Row = 10 * kValuesPerPage + 3;
constexpr uint64_t kPage20Row = 20 * kValuesPerPage + 5;

TEST(ZoneMapTest, UpdatesMoveValuesAcrossZonesAndFlushRetightens) {
  auto table = MakeTable(MakeBandedColumn(GappedBands()), AdaptiveConfig{});
  AdaptiveColumn* column = table->shard(0);
  EXPECT_TRUE(column->ZoneMayMatch(GapQuery(0)));  // unknown before a miss

  // The first miss reads every page and builds the zone map.
  auto a = table->Execute(Band(kBandA));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->stats.scanned_pages, kTestPages);
  EXPECT_FALSE(column->ZoneMayMatch(RangeQuery{50 * kFar, 60 * kFar}));

  // A pruned miss that inserts a view: no page meets the gap, so it reads
  // none, yet the view's creation cost stays the full-scan equivalent.
  auto gap = table->Execute(GapQuery(0));
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap->stats.decision, CandidateDecision::kInserted);
  EXPECT_EQ(gap->stats.scanned_pages, 0u);
  EXPECT_EQ(gap->match_count, 0u);
  bool found = false;
  for (const auto& view : column->view_index().views()) {
    if (!(view->value_range() == GapQuery(0))) continue;
    found = true;
    EXPECT_EQ(view->usage().creation_scanned_pages.load(), kTestPages);
  }
  EXPECT_TRUE(found);

  // Move a value onto page 10, whose zone excluded the gap. Queried while
  // the update is pending: the miss flushes first and reads page 10 only.
  ASSERT_TRUE(table->Update(kPage10Row, 5'500).ok());
  auto pending = table->Execute(GapQuery(1));
  ASSERT_TRUE(pending.ok());
  EXPECT_NE(pending->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(pending->stats.scanned_pages, 1u);
  EXPECT_EQ(pending->match_count, 1u);
  ExpectMatchesOracle(table.get(), GapQuery(1), *pending);

  // And after an explicit flush: pages 10 and 20 now meet the gap.
  ASSERT_TRUE(table->Update(kPage20Row, 5'600).ok());
  ASSERT_TRUE(table->FlushUpdates().ok());
  auto flushed = table->Execute(GapQuery(2));
  ASSERT_TRUE(flushed.ok());
  EXPECT_NE(flushed->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(flushed->stats.scanned_pages, 2u);
  EXPECT_EQ(flushed->match_count, 2u);
  ExpectMatchesOracle(table.get(), GapQuery(2), *flushed);

  // Moving the values away again re-tightens both zones at the flush: the
  // same miss falls back to reading no page.
  ASSERT_TRUE(table->Update(kPage10Row, kFar + kPage10Row).ok());
  ASSERT_TRUE(table->Update(kPage20Row, kFar + kPage20Row).ok());
  ASSERT_TRUE(table->FlushUpdates().ok());
  auto away = table->Execute(GapQuery(3));
  ASSERT_TRUE(away.ok());
  EXPECT_NE(away->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(away->stats.scanned_pages, 0u);
  EXPECT_EQ(away->match_count, 0u);
  ExpectMatchesOracle(table.get(), GapQuery(3), *away);
}

TEST(ZoneMapTest, LoadThroughMutableColumnDropsTheZoneMap) {
  auto table = MakeTable(MakeBandedColumn(GappedBands()), AdaptiveConfig{});
  AdaptiveColumn* column = table->shard(0);
  ASSERT_TRUE(table->Execute(Band(kBandA)).ok());  // builds the zone map
  auto c = table->Execute(Band(kBandC));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->stats.scanned_pages, 4u);  // pruned
  const RangeQuery beyond{50 * kFar, 60 * kFar};
  ASSERT_FALSE(column->ZoneMayMatch(beyond));

  // A load writes cells without Update, so no zone is widened: the map is
  // dropped instead, the column zone reads unknown, and the next miss reads
  // every page again.
  column->mutable_column()->Set(kPage10Row, 5'500);
  EXPECT_TRUE(column->ZoneMayMatch(beyond));
  auto rebuilt = table->Execute(GapQuery(0));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->stats.scanned_pages, kTestPages);
  EXPECT_EQ(rebuilt->match_count, 1u);
  ExpectMatchesOracle(table.get(), GapQuery(0), *rebuilt);
  EXPECT_FALSE(column->ZoneMayMatch(beyond));

  auto pruned = table->Execute(GapQuery(1));
  ASSERT_TRUE(pruned.ok());
  EXPECT_NE(pruned->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(pruned->stats.scanned_pages, 1u);
  ExpectMatchesOracle(table.get(), GapQuery(1), *pruned);
}

TEST(ZoneMapTest, OpenWithJournalReplayThenMiss) {
  ScopedTempDir scratch("zone_map_open");
  {
    auto table_r =
        Db::CreateDurable(scratch.path(), kTestPages * kValuesPerPage, {});
    ASSERT_TRUE(table_r.ok()) << table_r.status().ToString();
    auto table = std::move(table_r).ValueOrDie();
    FillBanded(table->shard(0)->mutable_column(), GappedBands());
    ASSERT_TRUE(table->Checkpoint().ok());
    ASSERT_TRUE(table->Execute(Band(kBandA)).ok());  // builds the zone map
    // Journaled, never flushed: only the journal knows this value.
    ASSERT_TRUE(table->Update(kPage10Row, 5'500).ok());
  }  // exits without a checkpoint, like a crash

  auto reopened_r = Db::Open(scratch.path(), {});
  ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
  auto reopened = std::move(reopened_r).ValueOrDie();
  EXPECT_EQ(reopened->Durability().journal_replayed, 1u);
  // Open builds no zone map; the first miss reads every page and builds it
  // over the replayed value.
  auto first = reopened->Execute(GapQuery(0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.scanned_pages, kTestPages);
  EXPECT_EQ(first->match_count, 1u);
  ExpectMatchesOracle(reopened.get(), GapQuery(0), *first);
  auto second = reopened->Execute(GapQuery(1));
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->stats.decision, CandidateDecision::kAnsweredFromView);
  EXPECT_EQ(second->stats.scanned_pages, 1u);
  ExpectMatchesOracle(reopened.get(), GapQuery(1), *second);
}

}  // namespace
}  // namespace vmsv
