#include "partition/panel_plan.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace oocgemm::partition {
namespace {

using sparse::Csr;

/// Plans made (not reused) so far, from the oocgemm_partition_plans counter.
std::int64_t PlansMade() {
  return static_cast<std::int64_t>(
      obs::MetricsRegistry::Default().Snapshot().Value(
          "oocgemm_partition_plans"));
}

std::shared_ptr<const PanelPlan> Shared(StatusOr<PanelPlan> plan) {
  OOC_CHECK(plan.ok());
  return std::make_shared<const PanelPlan>(std::move(plan).value());
}

TEST(PlanReuse, PriorRunsUnchangedForTheSameCapacityAndOptions) {
  const Csr a = testutil::RandomRmat(10, 8.0, 2);
  const std::int64_t capacity = 1 << 20;
  PlanOptions options;
  const auto prior = Shared(PlanPanels(a, a, capacity, options));
  EXPECT_EQ(prior->device_capacity, capacity);
  EXPECT_TRUE(prior->options == options);
  ASSERT_EQ(prior->num_chunks(),
            prior->num_row_panels * prior->num_col_panels);
  EXPECT_TRUE(PlanMadeFor(*prior, capacity, options));

  options.prior = prior;
  const std::int64_t before = PlansMade();
  auto run = PlanPanels(a, a, capacity, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(PlansMade(), before);  // reused, not planned
  EXPECT_EQ(run->row_bounds.begin, prior->row_bounds.begin);
  EXPECT_EQ(run->col_bounds.begin, prior->col_bounds.begin);
  EXPECT_EQ(run->pool_bytes, prior->pool_bytes);
  ASSERT_EQ(run->chunks.size(), prior->chunks.size());
  for (std::size_t i = 0; i < run->chunks.size(); ++i) {
    EXPECT_EQ(run->chunks[i].flops, prior->chunks[i].flops);
    EXPECT_EQ(run->chunks[i].estimated_nnz, prior->chunks[i].estimated_nnz);
  }
  // The chunk grid is the one a fresh analysis of the plan's boundaries
  // gives: executors no longer repeat that analysis.
  const auto fresh =
      AnalyzeChunks(a, prior->row_bounds, a, prior->col_bounds);
  ASSERT_EQ(fresh.size(), prior->chunks.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i].flops, prior->chunks[i].flops);
  }
}

TEST(PlanReuse, OverflowRetrySingleBufferAndSmallerDeviceReplan) {
  const Csr a = testutil::RandomRmat(10, 8.0, 2);
  const std::int64_t capacity = 1 << 20;
  const auto prior = Shared(PlanPanels(a, a, capacity, PlanOptions{}));

  PlanOptions retry;
  retry.nnz_safety_factor *= 2;  // what RetryWithReplan does
  PlanOptions sync;
  sync.buffers = 1;  // what SyncOutOfCore does
  struct Case {
    const char* name;
    PlanOptions options;
    std::int64_t capacity;
  };
  for (const Case& c : {Case{"overflow retry", retry, capacity},
                        Case{"single buffer", sync, capacity},
                        Case{"smaller device", PlanOptions{}, capacity / 2}}) {
    PlanOptions options = c.options;
    options.prior = prior;
    EXPECT_FALSE(PlanMadeFor(*prior, c.capacity, options)) << c.name;
    const std::int64_t before = PlansMade();
    auto plan = PlanPanels(a, a, c.capacity, options);
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status().ToString();
    EXPECT_EQ(PlansMade(), before + 1) << c.name;
    EXPECT_EQ(plan->device_capacity, c.capacity) << c.name;
    EXPECT_TRUE(plan->options == c.options) << c.name;
    EXPECT_EQ(plan->options.prior, nullptr) << c.name;
  }
}

TEST(PlanReuse, EstimateRetryReplansFromTheJobsOwnEstimate) {
  const Csr a = testutil::RandomRmat(10, 8.0, 2);
  const std::int64_t capacity = 1 << 20;
  PlanOptions options;
  options.use_sampling_estimator = true;
  // Admission's estimate samples another row fraction than the planner
  // would, so a plan made from a fresh estimate would tell.
  estimate::EstimatorOptions admission;
  admission.row_sample_fraction = 0.5;
  auto own = std::make_shared<const estimate::ProductEstimate>(
      estimate::EstimateProduct(a, a, admission));
  const auto prior = Shared(PlanPanels(a, a, capacity, options, own));
  EXPECT_EQ(prior->estimate, own);

  options.nnz_safety_factor *= 2;
  options.prior = prior;
  const std::int64_t before = PlansMade();
  auto retry = PlanPanels(a, a, capacity, options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(PlansMade(), before + 1);
  EXPECT_EQ(retry->estimate, own);
}

TEST(PlanPanels, BigDeviceNeedsOnePanel) {
  Csr a = testutil::RandomCsr(256, 256, 4.0, 1);
  auto plan = PlanPanels(a, a, /*device_capacity=*/1ll << 30);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_row_panels, 1);
  EXPECT_EQ(plan->num_col_panels, 1);
}

TEST(PlanPanels, SmallDevicePartitions) {
  Csr a = testutil::RandomRmat(10, 8.0, 2);
  auto plan = PlanPanels(a, a, /*device_capacity=*/1 << 20);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->num_row_panels * plan->num_col_panels, 1);
}

TEST(PlanPanels, PlannedBudgetRespected) {
  Csr a = testutil::RandomRmat(10, 8.0, 3);
  PlanOptions options;
  const std::int64_t capacity = 1 << 21;
  auto plan = PlanPanels(a, a, capacity, options);
  ASSERT_TRUE(plan.ok());
  // The full reservation — panel cache (2 slots per matrix) plus the
  // double-buffered chunk pools — fits in the configured budget.
  const std::int64_t reserved =
      2 * (plan->max_a_panel_bytes + plan->max_b_panel_bytes) +
      plan->pool_bytes * options.buffers;
  EXPECT_LE(reserved, PlanBudget(capacity));
}

TEST(PlanPanels, BoundariesMatchCounts) {
  Csr a = testutil::RandomRmat(10, 8.0, 13);
  auto plan = PlanPanels(a, a, 1 << 21);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->row_bounds.num_panels(), plan->num_row_panels);
  EXPECT_EQ(plan->col_bounds.num_panels(), plan->num_col_panels);
  EXPECT_EQ(plan->row_bounds.begin.front(), 0);
  EXPECT_EQ(plan->row_bounds.begin.back(), a.rows());
}

TEST(WeightBalancedBoundaries, EqualisesWeights) {
  // A heavily skewed weight profile: the first rows carry most work.
  std::vector<double> weights(100, 1.0);
  for (int i = 0; i < 10; ++i) weights[static_cast<std::size_t>(i)] = 50.0;
  PanelBoundaries b = WeightBalancedBoundaries(weights, 4);
  ASSERT_EQ(b.num_panels(), 4);
  double max_panel = 0.0;
  for (int p = 0; p < 4; ++p) {
    double w = 0.0;
    for (sparse::index_t r = b.panel_begin(p); r < b.panel_end(p); ++r) {
      w += weights[static_cast<std::size_t>(r)];
    }
    max_panel = std::max(max_panel, w);
  }
  // Total weight 590; a uniform row split would put 545 in panel 0.
  EXPECT_LT(max_panel, 300.0);
}

TEST(WeightBalancedBoundaries, DegenerateInputs) {
  // All-zero weights fall back to uniform.
  std::vector<double> zeros(10, 0.0);
  PanelBoundaries b = WeightBalancedBoundaries(zeros, 3);
  EXPECT_EQ(b.begin.back(), 10);
  // More panels than rows: trailing panels are empty but valid.
  std::vector<double> two(2, 1.0);
  PanelBoundaries b2 = WeightBalancedBoundaries(two, 5);
  EXPECT_EQ(b2.num_panels(), 5);
  EXPECT_EQ(b2.begin.back(), 2);
  for (int p = 1; p <= 5; ++p) {
    EXPECT_GE(b2.begin[static_cast<std::size_t>(p)],
              b2.begin[static_cast<std::size_t>(p - 1)]);
  }
}

TEST(PlanPanels, SmallerDeviceNeverFewerChunks) {
  Csr a = testutil::RandomRmat(9, 8.0, 4);
  auto big = PlanPanels(a, a, 16ll << 20);
  auto small = PlanPanels(a, a, 2ll << 20);
  ASSERT_TRUE(big.ok() && small.ok());
  EXPECT_GE(small->num_row_panels * small->num_col_panels,
            big->num_row_panels * big->num_col_panels);
}

TEST(PlanPanels, ImpossibleBudgetFails) {
  Csr a = testutil::RandomRmat(9, 8.0, 5);
  auto plan = PlanPanels(a, a, /*device_capacity=*/1 << 10);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanPanels, DimensionMismatchRejected) {
  Csr a = testutil::RandomCsr(10, 20, 2.0, 6);
  Csr b = testutil::RandomCsr(30, 10, 2.0, 7);
  EXPECT_FALSE(PlanPanels(a, b, 1 << 20).ok());
}

TEST(PlanPanels, BadOptionsRejected) {
  Csr a = testutil::RandomCsr(16, 16, 2.0, 8);
  PlanOptions options;
  options.buffers = 0;
  EXPECT_FALSE(PlanPanels(a, a, 1 << 20, options).ok());
}

TEST(PlanPanels, SingleBufferAllowsBiggerChunks) {
  Csr a = testutil::RandomRmat(10, 8.0, 9);
  PlanOptions one, two;
  one.buffers = 1;
  two.buffers = 2;
  auto p1 = PlanPanels(a, a, 4ll << 20, one);
  auto p2 = PlanPanels(a, a, 4ll << 20, two);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_LE(p1->num_row_panels * p1->num_col_panels,
            p2->num_row_panels * p2->num_col_panels);
}

TEST(PlanPanels, DebugStringMentionsPanels) {
  Csr a = testutil::RandomCsr(64, 64, 4.0, 10);
  auto plan = PlanPanels(a, a, 1ll << 30);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->DebugString().find("1x1"), std::string::npos);
}

}  // namespace
}  // namespace oocgemm::partition
