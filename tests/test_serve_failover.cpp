// Device-failure recovery in the multi-device serve scheduler: kill a pool
// device mid-run under concurrent multi-tenant load and require that every
// admitted job still completes reference-correct (re-planned onto the
// survivors or the CPU path) or fails with a typed status — never a wrong
// result — that the failed_over counter surfaces the re-plans, and that the
// dead lane is pulled from the pool.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kernels/reference_spgemm.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "vgpu/fault_injector.hpp"

namespace oocgemm::serve {
namespace {

using sparse::Csr;

struct Fleet {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;

  explicit Fleet(int count, int mem_shift) {
    for (int i = 0; i < count; ++i) {
      storage.push_back(std::make_unique<vgpu::Device>(
          vgpu::ScaledV100Properties(mem_shift)));
      devices.push_back(storage.back().get());
    }
  }
};

struct Submitted {
  std::shared_ptr<const Csr> a, b;
  std::future<JobResult> future;
};

// Three concurrent tenants submitting a deterministic mixed workload.
std::vector<Submitted> SubmitMixedLoad(SpgemmServer& server,
                                       std::uint64_t seed, int clients,
                                       int jobs_per_client) {
  std::mutex mutex;
  std::vector<Submitted> submitted;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SplitMix64 rng(seed + static_cast<std::uint64_t>(c) * 977);
      for (int j = 0; j < jobs_per_client; ++j) {
        SpgemmJob job;
        const std::uint64_t pick = rng.Next() % 3;
        const std::uint64_t mseed = rng.Next();
        if (pick == 0) {
          job.a = std::make_shared<const Csr>(
              testutil::RandomCsr(64, 64, 4.0, mseed));
        } else {
          job.a = std::make_shared<const Csr>(
              testutil::RandomRmat(7, 6.0, mseed));
        }
        job.b = job.a;
        job.options.priority = static_cast<int>(rng.Next() % 4);
        Submitted s;
        s.a = job.a;
        s.b = job.b;
        s.future = server.Submit(std::move(job));
        std::unique_lock<std::mutex> lock(mutex);
        submitted.push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  return submitted;
}

TEST(ServeFailover, KilledDeviceJobsRePlanOntoSurvivors) {
  constexpr int kDevices = 3;
  // Kill each lane in turn: recovery must not depend on which one dies.
  for (int victim = 0; victim < kDevices; ++victim) {
    SCOPED_TRACE("victim device " + std::to_string(victim));
    Fleet fleet(kDevices, /*mem_shift=*/15);
    // Die early: every GPU run launches several kernels (analysis,
    // symbolic, numeric), so the 2nd launch cuts off the job holding the
    // victim mid-execution.
    vgpu::FaultInjector injector(
        vgpu::FaultSpec::Parse("kernel:nth=2:kill", /*seed=*/3).value());
    fleet.devices[static_cast<std::size_t>(victim)]->set_fault_injector(
        &injector);

    ThreadPool pool(2);
    ServerConfig config;
    config.scheduler.num_workers = kDevices + 1;
    config.max_queue = 64;
    SpgemmServer server(fleet.devices, pool, config);

    // Pin the non-victim lanes so the probe job is forced onto the victim
    // regardless of placement order; its second kernel launch then kills
    // the device mid-run.
    std::vector<core::DevicePool::Slot> pins;
    for (int i = 0; i < kDevices; ++i) {
      core::DevicePool::Slot s = server.device_pool().TryAcquire(0);
      ASSERT_TRUE(s.held());
      pins.push_back(std::move(s));
    }
    for (auto& s : pins) {
      if (s.index() == victim) s.Release();
    }
    SpgemmJob probe;
    probe.a = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 123));
    probe.b = probe.a;
    probe.options.mode = core::ExecutionMode::kGpuOutOfCore;
    auto probe_a = probe.a;
    std::future<JobResult> probe_future = server.Submit(std::move(probe));

    // Once the victim is dead, free the survivors: the probe's failover
    // round re-plans onto them.
    while (!injector.device_dead()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& s : pins) s.Release();

    JobResult probe_r = probe_future.get();
    ASSERT_TRUE(probe_r.ok()) << probe_r.status.ToString();
    EXPECT_TRUE(testutil::CsrNear(
        probe_r.c, kernels::ReferenceSpgemm(*probe_a, *probe_a)));
    EXPECT_GE(probe_r.metrics.failovers, 1);
    EXPECT_NE(probe_r.metrics.device_index, victim);

    // Concurrent multi-tenant load against the degraded pool: everything
    // still completes reference-correct on the survivors (or the CPU).
    auto submitted = SubmitMixedLoad(server, 20260806u + victim, 3, 8);
    server.Drain();

    // Every admitted kAuto job re-plans around the dead lane: all complete
    // and every result matches the oracle (a faulted run never leaks a
    // partial or corrupted C).
    for (auto& s : submitted) {
      JobResult r = s.future.get();
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_TRUE(
          testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *s.b)));
    }

    ServerReport report = server.Report();
    EXPECT_EQ(report.completed, 25);
    EXPECT_GT(report.failed_over, 0);
    EXPECT_EQ(report.device_failures, 1);

    // The dead lane was pulled from the pool and shows up in the report.
    ASSERT_EQ(report.devices.size(), static_cast<std::size_t>(kDevices));
    for (int d = 0; d < kDevices; ++d) {
      const DeviceServeReport& dev =
          report.devices[static_cast<std::size_t>(d)];
      EXPECT_EQ(dev.healthy, d != victim) << "device " << d;
      EXPECT_EQ(dev.failures, d == victim ? 1 : 0) << "device " << d;
    }
    EXPECT_EQ(server.device_pool().healthy_count(), kDevices - 1);
  }
}

TEST(ServeFailover, ReviveReturnsTheLaneToService) {
  Fleet fleet(2, /*mem_shift=*/15);
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("kernel:nth=3:kill", 1).value());
  fleet.devices[0]->set_fault_injector(&injector);

  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 3;
  config.max_queue = 64;
  SpgemmServer server(fleet.devices, pool, config);

  auto first = SubmitMixedLoad(server, 99, 2, 6);
  server.Drain();
  for (auto& s : first) {
    JobResult r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }
  ASSERT_EQ(server.device_pool().healthy_count(), 1);

  // Maintenance revives the lane (clearing its sticky device-lost status
  // and re-arming the injector); new work lands on it again.
  server.device_pool().Revive(0);
  EXPECT_EQ(server.device_pool().healthy_count(), 2);
  EXPECT_TRUE(fleet.devices[0]->health().ok());

  auto second = SubmitMixedLoad(server, 100, 2, 6);
  server.Drain();
  for (auto& s : second) {
    JobResult r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *s.b)));
  }
}

TEST(ServeFailover, TransientAndCorruptionFaultsNeverYieldWrongResults) {
  // Flaky-but-alive lane: probabilistic transfer failures and detected
  // corruption.  A completed job must always be reference-correct — a
  // corrupted run is detected (sticky kDataLoss) and re-planned, never
  // returned.
  Fleet fleet(3, /*mem_shift=*/15);
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("h2d:p=0.05:fail,d2h:p=0.05:corrupt", 11)
          .value());
  fleet.devices[1]->set_fault_injector(&injector);

  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 4;
  config.max_queue = 64;
  SpgemmServer server(fleet.devices, pool, config);

  auto submitted = SubmitMixedLoad(server, 7, 3, 8);
  server.Drain();

  int completed = 0;
  for (auto& s : submitted) {
    JobResult r = s.future.get();
    if (!r.ok()) {
      // Typed failure is acceptable; silence or a wrong C is not.
      EXPECT_NE(r.status.code(), StatusCode::kOk);
      continue;
    }
    ++completed;
    EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *s.b)));
  }
  EXPECT_GT(completed, 0);

  ServerReport report = server.Report();
  // The flaky lane stayed alive: transient faults re-plan without pulling
  // the device.
  for (const DeviceServeReport& d : report.devices) {
    EXPECT_TRUE(d.healthy) << "device " << d.index;
  }
}

TEST(ServeFailover, ExplicitGpuJobsFailOverToSurvivingDevices) {
  // Explicit-GPU jobs have no CPU fallback; recovery must come entirely
  // from re-planning onto the surviving lanes.
  Fleet fleet(3, /*mem_shift=*/15);
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("kernel:nth=4:kill", 5).value());
  fleet.devices[0]->set_fault_injector(&injector);

  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 4;
  config.max_queue = 64;
  SpgemmServer server(fleet.devices, pool, config);

  SplitMix64 rng(17);
  std::vector<Submitted> submitted;
  for (int j = 0; j < 12; ++j) {
    SpgemmJob job;
    job.a = std::make_shared<const Csr>(
        testutil::RandomRmat(7, 6.0, rng.Next()));
    job.b = job.a;
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    Submitted s;
    s.a = job.a;
    s.b = job.b;
    s.future = server.Submit(std::move(job));
    submitted.push_back(std::move(s));
  }
  server.Drain();

  for (auto& s : submitted) {
    JobResult r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *s.b)));
    EXPECT_EQ(r.metrics.executor, core::ExecutionMode::kGpuOutOfCore);
    EXPECT_NE(r.metrics.device_index, 0);  // never "completed" on the dead lane
  }
  ServerReport report = server.Report();
  EXPECT_GT(report.failed_over, 0);
  EXPECT_EQ(report.device_failures, 1);
  EXPECT_FALSE(report.devices[0].healthy);
}

}  // namespace
}  // namespace oocgemm::serve
