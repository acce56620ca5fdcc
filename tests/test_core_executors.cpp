// End-to-end tests of the four execution paths and the virtual-time
// properties the paper's design promises.
#include "core/executors.hpp"

#include <gtest/gtest.h>

#include "kernels/device_spgemm.hpp"
#include "kernels/reference_spgemm.hpp"
#include "obs/metrics.hpp"
#include "sparse/analysis.hpp"
#include "test_util.hpp"

namespace oocgemm::core {
namespace {

using sparse::Csr;

vgpu::Device SmallDevice(int mem_shift = 14) {
  return vgpu::Device(vgpu::ScaledV100Properties(mem_shift));  // 1 MiB at 14
}

TEST(SyncOutOfCore, MatchesReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 1);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  auto r = SyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_GT(r->stats.num_chunks, 1);  // genuinely out of core
  EXPECT_TRUE(device.hazard_violations().empty());
}

TEST(SyncOutOfCore, UsesDynamicAllocation) {
  Csr a = testutil::RandomRmat(8, 6.0, 2);
  vgpu::Device device = SmallDevice(12);
  ThreadPool pool(2);
  ASSERT_TRUE(SyncOutOfCore(device, a, a, ExecutorOptions{}, pool).ok());
  EXPECT_GT(device.trace().BusyTime(vgpu::OpCategory::kAlloc), 0.0);
}

TEST(AsyncOutOfCore, MatchesReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 3);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_TRUE(device.hazard_violations().empty());
}

TEST(AsyncOutOfCore, MatchesSyncResultExactStructure) {
  Csr a = testutil::RandomRmat(9, 7.0, 4);
  ThreadPool pool(2);
  vgpu::Device d1 = SmallDevice();
  vgpu::Device d2 = SmallDevice();
  auto sync = SyncOutOfCore(d1, a, a, ExecutorOptions{}, pool);
  auto async = AsyncOutOfCore(d2, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(testutil::CsrNear(async->c, sync->c));
}

TEST(AsyncOutOfCore, FasterThanSync) {
  // The headline claim of Section IV: overlapping transfers with compute
  // reduces the virtual makespan.
  Csr a = testutil::RandomRmat(10, 8.0, 5);
  ThreadPool pool(2);
  vgpu::Device d1 = SmallDevice();
  vgpu::Device d2 = SmallDevice();
  auto sync = SyncOutOfCore(d1, a, a, ExecutorOptions{}, pool);
  auto async = AsyncOutOfCore(d2, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_LT(async->stats.total_seconds, sync->stats.total_seconds);
}

TEST(AsyncOutOfCore, AvoidsDynamicAllocationInsidePipeline) {
  Csr a = testutil::RandomRmat(9, 8.0, 6);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  ASSERT_TRUE(AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool).ok());
  // Only the up-front allocations (2 pools + the panel cache) appear,
  // independent of the number of chunks.
  int allocs = 0;
  for (const auto& e : device.trace().events()) {
    if (e.category == vgpu::OpCategory::kAlloc) ++allocs;
  }
  EXPECT_EQ(allocs, 3);
}

TEST(AsyncOutOfCore, EnginesNeverDoubleBooked) {
  Csr a = testutil::RandomRmat(9, 8.0, 7);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  ASSERT_TRUE(AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool).ok());
  EXPECT_FALSE(device.trace().HasIntraCategoryOverlap(vgpu::OpCategory::kD2H));
  EXPECT_FALSE(device.trace().HasIntraCategoryOverlap(vgpu::OpCategory::kH2D));
  EXPECT_FALSE(
      device.trace().HasIntraCategoryOverlap(vgpu::OpCategory::kKernel));
}

TEST(AsyncOutOfCore, AchievesOverlap) {
  Csr a = testutil::RandomRmat(10, 8.0, 8);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->stats.num_chunks, 2);
  EXPECT_GT(r->stats.overlap_factor, 1.02);  // busy time exceeds makespan
}

TEST(AsyncOutOfCore, DevicePeakWithinCapacity) {
  Csr a = testutil::RandomRmat(9, 8.0, 9);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->stats.device_peak_bytes, device.capacity());
}

TEST(AsyncOutOfCore, NaiveScheduleSlowerOrEqual) {
  // The Fig. 5/6 effect: with the naive double-buffering schedule the next
  // chunk's info transfers stall behind the previous payload, exposing its
  // compute time.  The effect concerns the schedule, not per-transfer fixed
  // latencies (which at this test's tiny chunk sizes would reward making
  // *fewer* transfers); zero them so the comparison isolates the ordering.
  Csr a = testutil::RandomRmat(10, 8.0, 10);
  ThreadPool pool(2);
  ExecutorOptions scheduled, naive;
  naive.transfer_schedule = TransferSchedule::kNaive;
  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(14);
  props.transfer_latency = 0.0;
  props.kernel_launch_overhead = 0.0;
  vgpu::Device d1(props);
  vgpu::Device d2(props);
  auto rs = AsyncOutOfCore(d1, a, a, scheduled, pool);
  auto rn = AsyncOutOfCore(d2, a, a, naive, pool);
  ASSERT_TRUE(rs.ok() && rn.ok());
  EXPECT_TRUE(testutil::CsrNear(rn->c, rs->c));
  EXPECT_LE(rs->stats.total_seconds, rn->stats.total_seconds * 1.001);
}

TEST(AsyncOutOfCore, SplitFractionVariantsAgreeOnResult) {
  Csr a = testutil::RandomRmat(9, 6.0, 11);
  ThreadPool pool(2);
  for (double split : {0.0, 0.33, 0.5, 1.0}) {
    ExecutorOptions options;
    options.split_fraction = split;
    vgpu::Device device = SmallDevice();
    auto r = AsyncOutOfCore(device, a, a, options, pool);
    ASSERT_TRUE(r.ok()) << "split=" << split;
    EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)))
        << "split=" << split;
    EXPECT_TRUE(device.hazard_violations().empty()) << "split=" << split;
  }
}

TEST(CpuMulticore, MatchesReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 12);
  ThreadPool pool(4);
  auto r = CpuMulticore(a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_GT(r->stats.total_seconds, 0.0);
}

// The executor's accumulator choice reaches the CPU kernel: a forced dense
// strategy shows up in the per-strategy row counters, and hash runs none.
TEST(CpuMulticore, HonoursForcedAccumulator) {
  Csr a = testutil::RandomCsr(256, 256, 4.0, 14);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.spgemm.accumulator = kernels::AccumulatorKind::kDense;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const obs::RegistrySnapshot before = reg.Snapshot();
  auto r = CpuMulticore(a, a, options, pool);
  ASSERT_TRUE(r.ok());
  const obs::RegistrySnapshot after = reg.Snapshot();
  auto rows = [&](const char* strategy) {
    return after.Value("oocgemm_kernel_rows", {{"strategy", strategy}}) -
           before.Value("oocgemm_kernel_rows", {{"strategy", strategy}});
  };
  EXPECT_GT(rows("dense"), 0.0);
  EXPECT_EQ(rows("hash"), 0.0);
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
}

TEST(Hybrid, MatchesReference) {
  Csr a = testutil::RandomRmat(9, 8.0, 13);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  // A mid-range ratio guarantees both devices receive work regardless of
  // how lumpy the chunk flops are for this seed.
  ExecutorOptions options;
  options.gpu_ratio = 0.5;
  auto r = Hybrid(device, a, a, options, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_GT(r->stats.num_gpu_chunks, 0);
  EXPECT_GT(r->stats.num_cpu_chunks, 0);
  EXPECT_TRUE(device.hazard_violations().empty());
}

TEST(Hybrid, FasterThanGpuAlone) {
  Csr a = testutil::RandomRmat(10, 8.0, 14);
  ThreadPool pool(2);
  vgpu::Device d1 = SmallDevice();
  vgpu::Device d2 = SmallDevice();
  auto gpu = AsyncOutOfCore(d1, a, a, ExecutorOptions{}, pool);
  auto hybrid = Hybrid(d2, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(gpu.ok() && hybrid.ok());
  EXPECT_LT(hybrid->stats.total_seconds, gpu->stats.total_seconds);
}

TEST(Hybrid, RatioZeroAndOneDegenerate) {
  Csr a = testutil::RandomRmat(8, 6.0, 15);
  ThreadPool pool(2);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  {
    ExecutorOptions options;
    options.gpu_ratio = 0.0;  // everything on the CPU
    vgpu::Device device = SmallDevice();
    auto r = Hybrid(device, a, a, options, pool);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.num_gpu_chunks, 0);
    EXPECT_TRUE(testutil::CsrNear(r->c, expected));
  }
  {
    ExecutorOptions options;
    options.gpu_ratio = 1.0;  // everything on the GPU
    vgpu::Device device = SmallDevice();
    auto r = Hybrid(device, a, a, options, pool);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.num_cpu_chunks, 0);
    EXPECT_TRUE(testutil::CsrNear(r->c, expected));
  }
}

TEST(Hybrid, ReorderingAssignsHeaviestChunksToGpu) {
  Csr a = testutil::RandomRmat(10, 8.0, 16);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  ExecutorOptions options;  // reorder_chunks = true
  auto r = Hybrid(device, a, a, options, pool);
  ASSERT_TRUE(r.ok());
  // At 65% of flops on sorted chunks, the GPU chunk count is a minority of
  // the total for skewed inputs (Table III: "relatively small").
  if (r->stats.num_chunks >= 4) {
    EXPECT_LT(r->stats.num_gpu_chunks, r->stats.num_chunks);
  }
}

TEST(Executors, DimensionMismatchRejectedEverywhere) {
  Csr a = testutil::RandomCsr(16, 8, 2.0, 17);
  Csr b = testutil::RandomCsr(16, 8, 2.0, 18);
  ThreadPool pool(2);
  vgpu::Device device = SmallDevice();
  EXPECT_FALSE(SyncOutOfCore(device, a, b, ExecutorOptions{}, pool).ok());
  EXPECT_FALSE(AsyncOutOfCore(device, a, b, ExecutorOptions{}, pool).ok());
  EXPECT_FALSE(CpuMulticore(a, b, ExecutorOptions{}, pool).ok());
  EXPECT_FALSE(Hybrid(device, a, b, ExecutorOptions{}, pool).ok());
}

TEST(Executors, RectangularProductsWork) {
  Csr a = testutil::RandomCsr(300, 200, 6.0, 19);
  Csr b = testutil::RandomCsr(200, 250, 6.0, 20);
  ThreadPool pool(2);
  vgpu::Device device = SmallDevice(12);
  Csr expected = kernels::ReferenceSpgemm(a, b);
  auto r = AsyncOutOfCore(device, a, b, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(testutil::CsrNear(r->c, expected));
}

TEST(Executors, StatsAreConsistent) {
  Csr a = testutil::RandomRmat(9, 8.0, 21);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(2);
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok());
  const RunStats& s = r->stats;
  EXPECT_EQ(s.nnz_out, r->c.nnz());
  EXPECT_EQ(s.flops, sparse::TotalFlops(a, a));
  EXPECT_GT(s.gflops(), 0.0);
  EXPECT_GE(s.d2h_fraction, 0.0);
  EXPECT_LE(s.d2h_fraction, 1.0);
  EXPECT_GE(s.total_seconds, s.d2h_seconds * s.d2h_fraction);
  EXPECT_GT(s.bytes_d2h, r->c.nnz() * 12);  // payload + info transfers
}

// Every run releases the streams it made, so a long-lived device holds
// only its own sync-copy stream between runs however many jobs it served,
// and a stream made after them still gets a fresh id.
TEST(Executors, LiveStreamsStayBoundedOverManyRuns) {
  Csr a = testutil::RandomCsr(32, 32, 2.0, 5);
  vgpu::Device device = SmallDevice();
  ThreadPool pool(1);
  const std::size_t idle = device.live_streams();
  for (int i = 0; i < 1000; ++i) {
    switch (i % 3) {
      case 0: ASSERT_TRUE(AsyncOutOfCore(device, a, a, {}, pool).ok()); break;
      case 1: ASSERT_TRUE(SyncOutOfCore(device, a, a, {}, pool).ok()); break;
      case 2: ASSERT_TRUE(Hybrid(device, a, a, {}, pool).ok()); break;
    }
    ASSERT_EQ(device.live_streams(), idle) << "after run " << i;
  }
  EXPECT_GE(device.CreateStream("late")->id(), 1000);
}

}  // namespace
}  // namespace oocgemm::core
