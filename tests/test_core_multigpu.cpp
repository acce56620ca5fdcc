#include "core/multi_gpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/executors.hpp"
#include "kernels/reference_spgemm.hpp"
#include "sparse/analysis.hpp"
#include "test_util.hpp"

namespace oocgemm::core {
namespace {

using sparse::Csr;

struct Fleet {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;

  explicit Fleet(int n, int mem_shift = 14) {
    for (int i = 0; i < n; ++i) {
      storage.push_back(std::make_unique<vgpu::Device>(
          vgpu::ScaledV100Properties(mem_shift)));
      devices.push_back(storage.back().get());
    }
  }
};

TEST(MultiGpuHybrid, SingleDeviceMatchesReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 1);
  Fleet fleet(1);
  ThreadPool pool(2);
  auto r = MultiGpuHybrid(fleet.devices, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(MultiGpuHybrid, TwoDevicesMatchReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 2);
  Fleet fleet(2);
  ThreadPool pool(2);
  auto r = MultiGpuHybrid(fleet.devices, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_EQ(r->stats.gpu_seconds.size(), 2u);
  for (vgpu::Device* d : fleet.devices) {
    EXPECT_TRUE(d->hazard_violations().empty());
  }
}

TEST(MultiGpuHybrid, MoreDevicesNeverSlower) {
  Csr a = testutil::RandomRmat(10, 8.0, 3);
  ThreadPool pool(2);
  Fleet f1(1), f2(2), f4(4);
  auto r1 = MultiGpuHybrid(f1.devices, a, a, ExecutorOptions{}, pool);
  auto r2 = MultiGpuHybrid(f2.devices, a, a, ExecutorOptions{}, pool);
  auto r4 = MultiGpuHybrid(f4.devices, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r1.ok() && r2.ok() && r4.ok());
  EXPECT_LE(r2->stats.combined.total_seconds,
            r1->stats.combined.total_seconds * 1.02);
  EXPECT_LE(r4->stats.combined.total_seconds,
            r2->stats.combined.total_seconds * 1.05);
}

TEST(MultiGpuHybrid, GpuShareGrowsWithDeviceCount) {
  Csr a = testutil::RandomRmat(10, 8.0, 4);
  ThreadPool pool(2);
  Fleet f1(1), f4(4);
  auto r1 = MultiGpuHybrid(f1.devices, a, a, ExecutorOptions{}, pool);
  auto r4 = MultiGpuHybrid(f4.devices, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r1.ok() && r4.ok());
  // The generalized ratio D*S/(D*S+1) sends more chunks to the GPUs as D
  // grows.
  EXPECT_GE(r4->stats.combined.num_gpu_chunks,
            r1->stats.combined.num_gpu_chunks);
  EXPECT_LE(r4->stats.combined.num_cpu_chunks,
            r1->stats.combined.num_cpu_chunks);
}

TEST(MultiGpuHybrid, ChunkTotalsConserved) {
  Csr a = testutil::RandomRmat(9, 6.0, 5);
  Fleet fleet(3);
  ThreadPool pool(2);
  auto r = MultiGpuHybrid(fleet.devices, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.combined.num_gpu_chunks + r->stats.combined.num_cpu_chunks,
            r->stats.combined.num_chunks);
  EXPECT_EQ(r->stats.combined.nnz_out, r->c.nnz());
}

TEST(MultiGpuHybrid, SingleDeviceComparableToHybrid) {
  Csr a = testutil::RandomRmat(9, 8.0, 6);
  ThreadPool pool(2);
  Fleet fleet(1);
  vgpu::Device single(vgpu::ScaledV100Properties(14));
  auto multi = MultiGpuHybrid(fleet.devices, a, a, ExecutorOptions{}, pool);
  auto hybrid = Hybrid(single, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(multi.ok() && hybrid.ok());
  // D = 1 reduces the generalized rule to Algorithm 4 exactly.
  EXPECT_EQ(multi->stats.combined.total_seconds, hybrid->stats.total_seconds);
  EXPECT_TRUE(multi->c == hybrid->c);
}

// Property: for random matrices and every pool size D in {1..4}, the
// multi-GPU result is numerically identical to the single-GPU hybrid (the
// same chunk grid is computed, only dealt differently), the per-worker
// stats have exactly D entries, and the round-robin deal keeps per-device
// chunk counts within one of each other.
TEST(MultiGpuHybrid, PropertyDealAndOutputInvariants) {
  ThreadPool pool(2);
  for (std::uint64_t seed = 20; seed < 23; ++seed) {
    Csr a = testutil::RandomRmat(9, 6.0, seed);
    vgpu::Device single(vgpu::ScaledV100Properties(14));
    auto hybrid = Hybrid(single, a, a, ExecutorOptions{}, pool);
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    for (int d = 1; d <= 4; ++d) {
      Fleet fleet(d);
      auto r = MultiGpuHybrid(fleet.devices, a, a, ExecutorOptions{}, pool);
      ASSERT_TRUE(r.ok()) << "seed " << seed << " D=" << d << ": "
                          << r.status().ToString();
      EXPECT_TRUE(testutil::CsrNear(r->c, hybrid->c))
          << "seed " << seed << " D=" << d;
      EXPECT_EQ(r->stats.gpu_seconds.size(), static_cast<std::size_t>(d));
      ASSERT_EQ(r->stats.per_device.size(), static_cast<std::size_t>(d));
      int min_chunks = r->stats.per_device.front().num_gpu_chunks;
      int max_chunks = min_chunks;
      int total = 0;
      for (const RunStats& per : r->stats.per_device) {
        min_chunks = std::min(min_chunks, per.num_gpu_chunks);
        max_chunks = std::max(max_chunks, per.num_gpu_chunks);
        total += per.num_gpu_chunks;
      }
      EXPECT_LE(max_chunks - min_chunks, 1)
          << "round-robin deal unbalanced at seed " << seed << " D=" << d;
      EXPECT_EQ(total, r->stats.combined.num_gpu_chunks);
    }
  }
}

// A deadline seen passed by the CPU lane ends the call with kCancelled; the
// partial chunk set is never assembled.
TEST(MultiGpuHybrid, CpuLaneCancelReturnsCancelled) {
  Csr a = testutil::RandomRmat(9, 8.0, 8);
  Fleet fleet(2);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.gpu_ratio = 0.0;  // every chunk on the CPU lane
  options.deadline = std::chrono::steady_clock::now();
  auto r = MultiGpuHybrid(fleet.devices, a, a, options, pool);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// The pool-overflow budget is the caller's max_oom_attempts: one attempt
// that overflows fails with kOutOfMemory instead of re-planning.
TEST(MultiGpuHybrid, HonoursOomAttemptBudget) {
  Csr a = testutil::RandomRmat(9, 8.0, 1);
  Fleet fleet(2);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.plan.nnz_safety_factor = 0.125;  // the first attempt overflows
  options.max_oom_attempts = 1;
  auto r = MultiGpuHybrid(fleet.devices, a, a, options, pool);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);

  options.max_oom_attempts = 4;
  auto retried = MultiGpuHybrid(fleet.devices, a, a, options, pool);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(retried->c, kernels::ReferenceSpgemm(a, a)));
}

// Estimate-seeded plans carry provisional chunk flops; the combined stats
// report the exact count the lanes tallied.
TEST(MultiGpuHybrid, EstimatedPlanReportsExactFlops) {
  Csr a = testutil::RandomRmat(10, 8.0, 3);
  Fleet fleet(2);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.plan.use_sampling_estimator = true;
  auto r = MultiGpuHybrid(fleet.devices, a, a, options, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.combined.flops, sparse::TotalFlops(a, a));
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(MultiGpuHybrid, EmptyDeviceListRejected) {
  Csr a = testutil::RandomCsr(16, 16, 2.0, 7);
  ThreadPool pool(2);
  auto r = MultiGpuHybrid({}, a, a, ExecutorOptions{}, pool);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace oocgemm::core
