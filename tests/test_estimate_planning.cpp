// Estimate-mode planning end to end: PlanPanels under the sampling
// estimator, EstimateChunks' dense-bound invariant (the one the OOM-retry
// loop's termination leans on), every executor producing the exact product
// with exact corrected flop stats, batched estimate mode, and the
// saturating-arithmetic helpers admission overflows are built on.
//
// Suites are named Estimate* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/saturating.hpp"
#include "core/batched.hpp"
#include "core/executors.hpp"
#include "kernels/reference_spgemm.hpp"
#include "partition/chunk.hpp"
#include "partition/panel_plan.hpp"
#include "partition/panels.hpp"
#include "sparse/analysis.hpp"
#include "test_util.hpp"

namespace oocgemm {
namespace {

using sparse::Csr;

core::ExecutorOptions EstimateOptions(std::uint64_t seed = 7) {
  core::ExecutorOptions options;
  options.plan.use_sampling_estimator = true;
  options.plan.estimator_seed = seed;
  return options;
}

TEST(EstimateSaturating, AddMulCastClampAtTheRails) {
  const std::int64_t big = common::kInt64Max - 10;
  EXPECT_EQ(common::SaturatingAdd(big, 100), common::kInt64Max);
  EXPECT_EQ(common::SaturatingAdd(-big, -100),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(common::SaturatingAdd(40, 2), 42);

  EXPECT_EQ(common::SaturatingMul(big, 3), common::kInt64Max);
  EXPECT_EQ(common::SaturatingMul(big, -3),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(common::SaturatingMul(6, 7), 42);

  EXPECT_EQ(common::SaturatingCast(1e300), common::kInt64Max);
  EXPECT_EQ(common::SaturatingCast(-1e300),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(common::SaturatingCast(std::nan("")), 0);
  EXPECT_EQ(common::SaturatingCast(42.9), 42);

  EXPECT_TRUE(common::IsSaturated(common::kInt64Max));
  EXPECT_TRUE(common::IsSaturated(std::numeric_limits<std::int64_t>::min()));
  EXPECT_FALSE(common::IsSaturated(42));
}

TEST(EstimatePlanning, PlanMarksEstimatedAndCarriesRowEstimates) {
  const Csr a = testutil::RandomRmat(10, 8.0, 3);
  auto plan = partition::PlanPanels(a, a, /*device_capacity=*/1 << 20,
                                    EstimateOptions().plan);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->estimated());
  ASSERT_NE(plan->estimate, nullptr);
  EXPECT_EQ(plan->estimate->row_nnz.size(),
            static_cast<std::size_t>(a.rows()));
  EXPECT_EQ(plan->estimate->row_products.size(),
            static_cast<std::size_t>(a.rows()));
  EXPECT_GE(plan->num_row_panels, 1);
  EXPECT_GT(plan->pool_bytes, 0);
}

TEST(EstimatePlanning, PlanReusesTheAdmissionHint) {
  const Csr a = testutil::RandomRmat(10, 8.0, 3);
  auto hint = std::make_shared<const estimate::ProductEstimate>(
      estimate::EstimateProduct(a, a, estimate::EstimatorOptions{}));
  auto plan =
      partition::PlanPanels(a, a, 1 << 20, EstimateOptions().plan, hint);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->estimated());
  // The plan rides on admission's estimate, not a recomputation.
  EXPECT_EQ(plan->estimate, hint);
  // An estimate of another product is refused, not used.
  const Csr other = testutil::RandomRmat(9, 8.0, 3);
  EXPECT_EQ(partition::PlanPanels(other, other, 1 << 20,
                                  EstimateOptions().plan, hint)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EstimatePlanning, EstimatedChunksKeepTheDenseUpperBound) {
  const Csr a = testutil::RandomRmat(9, 8.0, 4);
  auto plan =
      partition::PlanPanels(a, a, 1 << 20, EstimateOptions().plan);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->estimated());

  const std::vector<partition::ChunkDesc>& chunks = plan->chunks;
  ASSERT_EQ(chunks.size(),
            static_cast<std::size_t>(plan->num_row_panels) *
                static_cast<std::size_t>(plan->num_col_panels));

  // The exact analysis of the same boundaries: every exact chunk nnz must
  // sit under the estimated descriptor's dense bound — that bound being
  // *true* is what keeps the executors' OOM-retry doubling terminating.
  const auto exact = partition::AnalyzeChunks(a, plan->row_bounds, a,
                                              plan->col_bounds);
  ASSERT_EQ(exact.size(), chunks.size());
  double est_flops = 0.0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    const std::int64_t dense =
        static_cast<std::int64_t>(
            plan->row_bounds.panel_width(c.row_panel)) *
        plan->col_bounds.panel_width(c.col_panel);
    EXPECT_EQ(c.upper_bound_nnz, dense);
    EXPECT_LE(c.estimated_nnz, c.upper_bound_nnz);
    EXPECT_LE(exact[i].upper_bound_nnz, dense)
        << "exact worst-case exceeds the dense bound";
    est_flops += static_cast<double>(c.flops);
  }
  // The chunk grid's flop estimate must agree with the row estimate it was
  // spread from (the spread is exact up to rounding).
  double row_flops = 0.0;
  for (double p : plan->estimate->row_products) row_flops += 2.0 * p;
  EXPECT_NEAR(est_flops, row_flops,
              1.0 + 1e-6 * row_flops +
                  static_cast<double>(chunks.size()));
}

TEST(EstimateExecution, AsyncMatchesReferenceWithExactFlops) {
  const Csr a = testutil::RandomRmat(9, 8.0, 1);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  auto r = core::AsyncOutOfCore(device, a, a, EstimateOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  // Lazy correction: the run reports exact flops, not the estimate.
  EXPECT_EQ(r->stats.flops, sparse::TotalFlops(a, a));
  EXPECT_TRUE(device.hazard_violations().empty());
}

TEST(EstimateExecution, SyncMatchesReferenceWithExactFlops) {
  const Csr a = testutil::RandomRmat(9, 8.0, 2);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  auto r = core::SyncOutOfCore(device, a, a, EstimateOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_EQ(r->stats.flops, sparse::TotalFlops(a, a));
}

TEST(EstimateExecution, HybridMatchesReferenceWithExactFlops) {
  const Csr a = testutil::RandomRmat(9, 8.0, 5);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(4);
  auto r = core::Hybrid(device, a, a, EstimateOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  // GPU chunks report device-analysis counts, CPU chunks an O(nnz(panel))
  // walk: the union is the exact total.
  EXPECT_EQ(r->stats.flops, sparse::TotalFlops(a, a));
}

TEST(EstimateExecution, SurvivesTightMemoryViaRetry) {
  // A deliberately small device: under-predicted pools must recover through
  // the safety-factor retry loop (possible because the dense bound is true).
  const Csr a = testutil::RandomRmat(8, 8.0, 6);
  vgpu::Device device(vgpu::ScaledV100Properties(12));
  ThreadPool pool(2);
  auto r = core::AsyncOutOfCore(device, a, a, EstimateOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(EstimateExecution, BatchedEstimateModeMatchesReference) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  const Csr b = testutil::RandomRmat(9, 8.0, 77);
  std::vector<Csr> as;
  for (int i = 0; i < 3; ++i) {
    as.push_back(testutil::RandomCsr(b.rows(), b.rows(), 6.0, 900 + i));
  }
  std::vector<core::BatchJobSpec> specs;
  for (const Csr& a : as) specs.push_back(core::BatchJobSpec{&a});

  auto run =
      core::BatchedOutOfCore(device, specs, b, EstimateOptions(), pool);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->jobs.size(), as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    ASSERT_TRUE(run->jobs[i].status.ok()) << run->jobs[i].status.ToString();
    EXPECT_TRUE(testutil::CsrNear(run->jobs[i].run.c,
                                  kernels::ReferenceSpgemm(as[i], b)));
    EXPECT_EQ(run->jobs[i].run.stats.flops, sparse::TotalFlops(as[i], b));
  }
}

}  // namespace
}  // namespace oocgemm
