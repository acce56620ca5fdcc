// The pool-overflow re-planning path: when the sampled nnz estimate is too
// optimistic, the executors must detect the overflow, double the safety
// factor, re-plan and still produce the correct result.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/executors.hpp"
#include "core/retry.hpp"
#include "kernels/reference_spgemm.hpp"
#include "test_util.hpp"

namespace oocgemm::core {
namespace {

using sparse::Csr;

ExecutorOptions TinySafetyOptions() {
  ExecutorOptions options;
  // Deliberately under-size the pools: the estimate is scaled to ~1/8 of
  // the prediction, so the first attempt must overflow.
  options.plan.nnz_safety_factor = 0.125;
  return options;
}

TEST(OomRetry, AsyncRecoversFromUndersizedPools) {
  Csr a = testutil::RandomRmat(9, 8.0, 1);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, TinySafetyOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(OomRetry, SyncRecoversFromUndersizedPools) {
  Csr a = testutil::RandomRmat(9, 8.0, 2);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  auto r = SyncOutOfCore(device, a, a, TinySafetyOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(OomRetry, HybridRecoversFromUndersizedPools) {
  Csr a = testutil::RandomRmat(9, 8.0, 3);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  auto r = Hybrid(device, a, a, TinySafetyOptions(), pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(OomRetry, HopelesslySmallDeviceStillFailsCleanly) {
  Csr a = testutil::RandomRmat(10, 10.0, 4);
  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
  props.memory_bytes = 1 << 10;  // 1 KiB: nothing fits
  vgpu::Device device(props);
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OomRetry, WorstCaseSizingNeverRetries) {
  // With the estimator disabled (paper's rejected worst-case bound), pools
  // can never overflow, so the first attempt must succeed.
  Csr a = testutil::RandomRmat(8, 8.0, 5);
  ExecutorOptions options;
  options.plan.nnz_sample_fraction = 0.0;  // worst-case sizing
  vgpu::Device device(vgpu::ScaledV100Properties(13));
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, options, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

// The helper under every executor and both scheduler paths: each retry
// doubles the safety factor, the callee always sees a budget of one attempt
// (so nested calls never multiply it), and attempts are counted.
TEST(OomRetry, HelperDoublesSafetyFactorWithinTheBudget) {
  ExecutorOptions options;
  options.plan.nnz_safety_factor = 1.5;
  options.max_oom_attempts = 4;
  std::vector<double> factors;
  int attempts = 0;
  auto r = RetryWithReplan(
      options,
      [&](const ExecutorOptions& o) -> StatusOr<int> {
        EXPECT_EQ(o.max_oom_attempts, 1);
        factors.push_back(o.plan.nnz_safety_factor);
        return Status::OutOfMemory("pool overflow");
      },
      &attempts);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(factors, (std::vector<double>{1.5, 3.0, 6.0, 12.0}));
}

// A deadline that passes during an overflowing attempt ends the call as
// cancelled rather than as the overflow, and no further attempt runs.
TEST(OomRetry, HelperStopsWithCancelledBetweenAttempts) {
  ExecutorOptions options;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  int attempts = 0;
  auto r = RetryWithReplan(
      options,
      [&](const ExecutorOptions& o) -> StatusOr<int> {
        std::this_thread::sleep_until(o.deadline);
        return Status::OutOfMemory("pool overflow");
      },
      &attempts);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 1);
}

// A call that starts past its deadline runs no attempt: nothing is planned
// or allocated under a lease the caller no longer wants.
TEST(OomRetry, HelperRunsNoAttemptWhenCancelledBeforeTheCall) {
  ExecutorOptions options;
  options.deadline = std::chrono::steady_clock::now();
  int attempts = 0;
  auto r = RetryWithReplan(
      options,
      [&](const ExecutorOptions&) -> StatusOr<int> { return 1; },
      &attempts);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 0);
}

}  // namespace
}  // namespace oocgemm::core
