// Admission control: demand estimation and the admit/reject rules that
// keep the node from OOMing mid-flight.
#include <gtest/gtest.h>

#include "serve/admission.hpp"
#include "sparse/analysis.hpp"
#include "test_util.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::serve {
namespace {

TEST(JobDemand, EstimatesTrackTheRealProduct) {
  sparse::Csr a = testutil::RandomRmat(8, 8.0, 7);
  core::ExecutorOptions exec;
  JobDemand d = EstimateJobDemand(a, a, /*device_capacity=*/1 << 20, exec);

  EXPECT_EQ(d.flops, sparse::TotalFlops(a, a));
  EXPECT_EQ(d.bytes_a, a.StorageBytes());
  EXPECT_GT(d.est_bytes_out, 0);
  // The sampled estimate should land within 2x of the exact output size.
  const double exact = static_cast<double>(sparse::SymbolicNnz(a, a));
  EXPECT_GT(d.est_nnz_out, 0.5 * exact);
  EXPECT_LT(d.est_nnz_out, 2.0 * exact);

  EXPECT_TRUE(d.gpu_feasible());
  EXPECT_GE(d.planned_chunks(), 1);
  EXPECT_GT(d.planned_device_bytes(), 0);
}

TEST(JobDemand, HopelessDeviceIsInfeasible) {
  sparse::Csr a = testutil::RandomRmat(8, 8.0, 7);
  core::ExecutorOptions exec;
  JobDemand d = EstimateJobDemand(a, a, /*device_capacity=*/1 << 10, exec);
  EXPECT_FALSE(d.gpu_feasible());
}

TEST(Admission, GpuOnlyModeRejectedWhenInfeasible) {
  JobDemand d;  // no plan: no split fits
  AdmissionController ctrl(AdmissionLimits{});
  Status st = ctrl.Admit(d, core::ExecutionMode::kHybrid);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // kAuto can fall back to the CPU: admitted.
  EXPECT_TRUE(ctrl.Admit(d, core::ExecutionMode::kAuto).ok());
}

TEST(Admission, BudgetLedgerAdmitsReleasesRejects) {
  AdmissionLimits limits;
  limits.host_bytes_budget = 1000;
  AdmissionController ctrl(limits);

  JobDemand d;
  d.bytes_a = 300;
  d.bytes_b = 200;
  d.est_bytes_out = 100;  // host_bytes() == 600

  EXPECT_TRUE(ctrl.Admit(d, core::ExecutionMode::kAuto).ok());
  EXPECT_EQ(ctrl.outstanding_bytes(), 600);
  Status over = ctrl.Admit(d, core::ExecutionMode::kAuto);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);

  ctrl.Release(d);
  EXPECT_EQ(ctrl.outstanding_bytes(), 0);
  EXPECT_TRUE(ctrl.Admit(d, core::ExecutionMode::kAuto).ok());
}

// Regression: demand formed from huge synthetic shapes (a 10Mx10M dense-ish
// output estimate is ~e18-scale bytes) used to wrap host_bytes() negative, which
// then passed every "<= budget" check and admitted a job no node can hold.
// Saturating sums clamp at INT64_MAX and Admit rejects saturated demand
// outright with RESOURCE_EXHAUSTED.
TEST(Admission, OverflowingDemandIsRejectedNotWrapped) {
  JobDemand d;
  d.bytes_a = 3'500'000'000'000'000'000;  // ~3.5e18: three of these overflow
  d.bytes_b = 3'500'000'000'000'000'000;
  d.est_bytes_out = 3'500'000'000'000'000'000;
  EXPECT_EQ(d.host_bytes(), common::kInt64Max);  // saturated, not negative
  EXPECT_TRUE(d.overflowed());

  AdmissionLimits unlimited;
  unlimited.host_bytes_budget = common::kInt64Max;
  AdmissionController ctrl(unlimited);
  Status st = ctrl.Admit(d, core::ExecutionMode::kAuto);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctrl.outstanding_bytes(), 0);  // nothing charged to the ledger
}

TEST(Admission, BoundaryDemandJustBelowTheRailStillAdmits) {
  // Two terms that sum to exactly the rail minus one: legal, admitted
  // against an unlimited budget, and the ledger charges the true sum.
  JobDemand d;
  d.bytes_a = common::kInt64Max / 2;
  d.bytes_b = common::kInt64Max / 2;
  d.est_bytes_out = 0;
  EXPECT_FALSE(d.overflowed());

  AdmissionLimits unlimited;
  unlimited.host_bytes_budget = common::kInt64Max;
  AdmissionController ctrl(unlimited);
  EXPECT_TRUE(ctrl.Admit(d, core::ExecutionMode::kAuto).ok());
  EXPECT_EQ(ctrl.outstanding_bytes(), common::kInt64Max - 1);
}

TEST(JobDemandSampled, LargeJobIsPricedByTheEstimator) {
  sparse::Csr a = testutil::RandomRmat(11, 8.0, 7);
  core::ExecutorOptions exec;
  estimate::EstimatorOptions opts;
  JobDemand d =
      EstimateJobDemandSampled(a, a, /*device_capacity=*/4 << 20, exec, opts);
  EXPECT_TRUE(d.estimated);
  EXPECT_FALSE(d.estimator_fallback);
  ASSERT_NE(d.plan, nullptr);
  ASSERT_NE(d.plan->estimate, nullptr);
  EXPECT_GT(d.est_rel_stderr, 0.0);
  EXPECT_GT(d.analysis_seconds, 0.0);

  // Structure-only pricing still lands near the exact quantities.
  const double exact_nnz = static_cast<double>(sparse::SymbolicNnz(a, a));
  EXPECT_GT(d.est_nnz_out, 0.5 * exact_nnz);
  EXPECT_LT(d.est_nnz_out, 2.0 * exact_nnz);
  const double exact_flops = static_cast<double>(sparse::TotalFlops(a, a));
  EXPECT_GT(static_cast<double>(d.flops), 0.5 * exact_flops);
  EXPECT_LT(static_cast<double>(d.flops), 2.0 * exact_flops);
  EXPECT_TRUE(d.gpu_feasible());
  EXPECT_GE(d.planned_chunks(), 1);
}

TEST(JobDemandSampled, UnreliableSampleFallsBackToExact) {
  // 64 rows can never reach the estimator's minimum sample: the sampled
  // path must price the job exactly and say it fell back.
  sparse::Csr a = testutil::RandomCsr(64, 64, 4.0, 3);
  core::ExecutorOptions exec;
  JobDemand d = EstimateJobDemandSampled(a, a, 1 << 20, exec,
                                         estimate::EstimatorOptions{});
  EXPECT_FALSE(d.estimated);
  EXPECT_TRUE(d.estimator_fallback);
  EXPECT_EQ(d.flops, sparse::TotalFlops(a, a));  // exact pricing
  ASSERT_NE(d.plan, nullptr);
  EXPECT_EQ(d.plan->estimate, nullptr);  // an exact plan
}

TEST(DeviceHeadroom, SnapshotTracksAllocations) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  auto before = device.Headroom();
  EXPECT_EQ(before.used, 0);
  EXPECT_EQ(before.free, before.capacity);
  EXPECT_EQ(before.largest_block, before.capacity);

  vgpu::HostContext host;
  auto ptr = device.Malloc(host, 4096, "test");
  ASSERT_TRUE(ptr.ok());
  auto during = device.Headroom();
  EXPECT_GE(during.used, 4096);
  EXPECT_LT(during.largest_block, before.largest_block);
  device.Free(host, ptr.value());
  EXPECT_EQ(device.Headroom().used, 0);
}

}  // namespace
}  // namespace oocgemm::serve
