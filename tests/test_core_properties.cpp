// Property sweeps over matrix structure, device size and executor options:
// every path agrees with the oracle and the virtual-time invariants hold.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/executors.hpp"
#include "core/multi_gpu.hpp"
#include "kernels/reference_spgemm.hpp"
#include "sparse/datasets.hpp"
#include "test_util.hpp"
#include "vgpu/fault_injector.hpp"

namespace oocgemm::core {
namespace {

using sparse::Csr;

struct PropertyCase {
  const char* name;
  const char* dataset;  // abbr from the paper registry (scaled down)
  int mem_shift;        // device memory = 16 GiB >> mem_shift
};

// gtest names a parameterized test after the printed parameter; its default
// printer dumps the struct's bytes, pointers included, so the name would
// change with every build.  Print the case's values instead.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << c.dataset << ", mem_shift=" << c.mem_shift;
}

class ExecutorPropertySweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ExecutorPropertySweep, AllPathsAgreeAndInvariantsHold) {
  const PropertyCase& p = GetParam();
  Csr a = sparse::PaperMatrix(p.dataset, /*scale_shift=*/4).build();
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  ExecutorOptions options;

  vgpu::Device d_sync(vgpu::ScaledV100Properties(p.mem_shift));
  vgpu::Device d_async(vgpu::ScaledV100Properties(p.mem_shift));
  vgpu::Device d_hybrid(vgpu::ScaledV100Properties(p.mem_shift));

  auto sync = SyncOutOfCore(d_sync, a, a, options, pool);
  auto async = AsyncOutOfCore(d_async, a, a, options, pool);
  auto cpu = CpuMulticore(a, a, options, pool);
  auto hybrid = Hybrid(d_hybrid, a, a, options, pool);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ASSERT_TRUE(cpu.ok());
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();

  // Correctness: every path equals the oracle.
  EXPECT_TRUE(testutil::CsrNear(sync->c, expected));
  EXPECT_TRUE(testutil::CsrNear(async->c, expected));
  EXPECT_TRUE(testutil::CsrNear(cpu->c, expected));
  EXPECT_TRUE(testutil::CsrNear(hybrid->c, expected));

  // No virtual-time data races anywhere.
  EXPECT_TRUE(d_sync.hazard_violations().empty());
  EXPECT_TRUE(d_async.hazard_violations().empty());
  EXPECT_TRUE(d_hybrid.hazard_violations().empty());

  // Engine exclusivity (one transfer per direction at a time).
  for (vgpu::Device* d : {&d_sync, &d_async, &d_hybrid}) {
    EXPECT_FALSE(d->trace().HasIntraCategoryOverlap(vgpu::OpCategory::kD2H));
    EXPECT_FALSE(d->trace().HasIntraCategoryOverlap(vgpu::OpCategory::kH2D));
    EXPECT_FALSE(d->trace().HasIntraCategoryOverlap(vgpu::OpCategory::kKernel));
  }

  // Performance ordering (the paper's headline relations):
  // async <= sync; hybrid <= async (+ small tolerance for tiny inputs).
  EXPECT_LE(async->stats.total_seconds, sync->stats.total_seconds * 1.001);
  EXPECT_LE(hybrid->stats.total_seconds, async->stats.total_seconds * 1.05);

  // Memory: peak usage within capacity.
  EXPECT_LE(async->stats.device_peak_bytes, d_async.capacity());
  EXPECT_LE(sync->stats.device_peak_bytes, d_sync.capacity());
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, ExecutorPropertySweep,
    ::testing::Values(PropertyCase{"social", "com-lj", 13},
                      PropertyCase{"wiki", "wiki0206", 13},
                      PropertyCase{"web", "uk-2002", 13},
                      PropertyCase{"fem", "stokes", 13},
                      PropertyCase{"kkt", "nlp", 13},
                      PropertyCase{"social_tiny_device", "com-lj", 15},
                      PropertyCase{"web_tiny_device", "uk-2002", 15}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

class PanelCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(PanelCountSweep, AsyncCorrectUnderForcedPartitions) {
  // Forcing ever smaller devices exercises 1..many panel configurations.
  Csr a = testutil::RandomRmat(8, 8.0, 42);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  vgpu::Device device(vgpu::ScaledV100Properties(GetParam()));
  auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(r->c, expected));
  EXPECT_TRUE(device.hazard_violations().empty());
}

INSTANTIATE_TEST_SUITE_P(DeviceSizes, PanelCountSweep,
                         ::testing::Values(8, 10, 12, 13, 14, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shift" + std::to_string(info.param);
                         });

class RatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(RatioSweep, HybridCorrectAtAnyRatio) {
  Csr a = testutil::RandomRmat(8, 8.0, 43);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  ExecutorOptions options;
  options.gpu_ratio = GetParam();
  vgpu::Device device(vgpu::ScaledV100Properties(13));
  auto r = Hybrid(device, a, a, options, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(testutil::CsrNear(r->c, expected));
  EXPECT_EQ(r->stats.num_gpu_chunks + r->stats.num_cpu_chunks,
            r->stats.num_chunks);
}

INSTANTIATE_TEST_SUITE_P(Ratios, RatioSweep,
                         ::testing::Values(0.0, 0.2, 0.35, 0.5, 0.65, 0.8,
                                           0.95, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "r" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// --- fault sweeps -----------------------------------------------------------
//
// Under injected allocation, transfer and kernel faults an executor has
// exactly two legal outcomes: success with the oracle's C, or a clean typed
// error.  A wrong C (silent corruption, partial assembly) is never legal,
// and the device arena must return to baseline either way.

struct FaultSweepCase {
  const char* name;
  const char* spec;  // vgpu::FaultSpec rule list
};

void PrintTo(const FaultSweepCase& c, std::ostream* os) {
  *os << "faults " << c.spec;
}

class FaultSweep : public ::testing::TestWithParam<FaultSweepCase> {};

TEST_P(FaultSweep, OutOfCoreIsCorrectOrFailsCleanly) {
  Csr a = testutil::RandomRmat(8, 8.0, 44);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    vgpu::Device device(vgpu::ScaledV100Properties(14));
    vgpu::FaultInjector injector(
        vgpu::FaultSpec::Parse(GetParam().spec, seed).value());
    device.set_fault_injector(&injector);
    auto r = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
    if (r.ok()) {
      EXPECT_TRUE(testutil::CsrNear(r->c, expected));
    } else {
      EXPECT_NE(r.status().code(), StatusCode::kOk);
      // Injected faults must never masquerade as a planner bug.
      EXPECT_NE(r.status().code(), StatusCode::kOutOfMemory);
    }
    // Error path leaks nothing: every pool and cache arena was freed.
    EXPECT_EQ(device.used_bytes(), 0) << r.ok();
  }
}

TEST_P(FaultSweep, MultiGpuPrunesTheFaultedDeviceAndStaysCorrect) {
  Csr a = testutil::RandomRmat(8, 8.0, 45);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    std::vector<std::unique_ptr<vgpu::Device>> storage;
    std::vector<vgpu::Device*> devices;
    for (int i = 0; i < 3; ++i) {
      storage.push_back(std::make_unique<vgpu::Device>(
          vgpu::ScaledV100Properties(13)));
      devices.push_back(storage.back().get());
    }
    vgpu::FaultInjector injector(
        vgpu::FaultSpec::Parse(GetParam().spec, seed).value());
    devices[1]->set_fault_injector(&injector);
    auto r = MultiGpuHybrid(devices, a, a, ExecutorOptions{}, pool);
    if (r.ok()) {
      EXPECT_TRUE(testutil::CsrNear(r->c, expected));
      // Either the faulted device survived its draws, or it was pruned and
      // recorded; survivors always re-cover its chunks.
      for (int failed : r->stats.failed_devices) EXPECT_EQ(failed, 1);
    } else {
      EXPECT_NE(r.status().code(), StatusCode::kOk);
    }
    for (vgpu::Device* d : devices) EXPECT_EQ(d->used_bytes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FaultSweep,
    ::testing::Values(
        FaultSweepCase{"alloc_fail", "alloc:p=0.05:fail"},
        FaultSweepCase{"h2d_fail", "h2d:p=0.03:fail"},
        FaultSweepCase{"d2h_corrupt", "d2h:p=0.03:corrupt"},
        FaultSweepCase{"kernel_fail", "kernel:p=0.02:fail"},
        FaultSweepCase{"kernel_kill", "kernel:nth=20:kill"},
        FaultSweepCase{"mixed", "h2d:p=0.02:corrupt,alloc:p=0.03:fail"}),
    [](const ::testing::TestParamInfo<FaultSweepCase>& info) {
      return info.param.name;
    });

TEST(FaultRecovery, ArenaReturnsToBaselineAfterFailedRunAndRerunSucceeds) {
  // Regression for the error-path cleanup: a failed run must release every
  // pool reservation and invalidate stale panel-cache entries, so the same
  // device immediately serves a clean re-run with the correct result.
  Csr a = testutil::RandomRmat(8, 8.0, 46);
  Csr expected = kernels::ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  const std::int64_t baseline = device.used_bytes();

  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("d2h:nth=2:fail", 1).value());
  device.set_fault_injector(&injector);
  auto failed = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(device.used_bytes(), baseline);
  EXPECT_FALSE(device.health().ok());

  // Remove the injector: the next run (which resets the timeline, clearing
  // the transient sticky error) must be byte-correct on the same device.
  device.set_fault_injector(nullptr);
  auto ok = AsyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(ok->c, expected));
  EXPECT_EQ(device.used_bytes(), baseline);
}

TEST(FaultRecovery, SyncFreesTheBuffersOfAChunkThatFailedMidway) {
  // The synchronous baseline Mallocs each chunk's buffers one by one; when
  // an allocation fails mid-chunk, the ones already made must be freed.
  Csr a = testutil::RandomRmat(9, 8.0, 1);
  ThreadPool pool(2);
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("alloc:label=c.col_ids:once:fail", 1).value());
  device.set_fault_injector(&injector);
  auto failed = SyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(device.used_bytes(), 0);

  device.set_fault_injector(nullptr);
  auto ok = SyncOutOfCore(device, a, a, ExecutorOptions{}, pool);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(ok->c, kernels::ReferenceSpgemm(a, a)));
  EXPECT_EQ(device.used_bytes(), 0);
}

}  // namespace
}  // namespace oocgemm::core
