// Multi-device serving tests: the randomized stress of test_serve_stress
// run against pools of 2-4 virtual GPUs, plus the placement guarantees the
// pool adds — per-device lease counts reconcile with the pool's totals,
// explicit-GPU jobs never land on a device whose capacity they exceed, and
// a hybrid job may span several free devices.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kernels/reference_spgemm.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace oocgemm::serve {
namespace {

using sparse::Csr;

struct Fleet {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;

  explicit Fleet(const std::vector<int>& mem_shifts) {
    for (int shift : mem_shifts) {
      storage.push_back(std::make_unique<vgpu::Device>(
          vgpu::ScaledV100Properties(shift)));
      devices.push_back(storage.back().get());
    }
  }
};

TEST(ServeMultiDevice, RandomizedStressAcrossPoolSizes) {
  constexpr std::uint64_t kSeed = 20260806;
  constexpr int kClients = 3;
  constexpr int kJobsPerClient = 10;

  for (int num_devices = 2; num_devices <= 4; ++num_devices) {
    SCOPED_TRACE("pool size " + std::to_string(num_devices));
    Fleet fleet(std::vector<int>(static_cast<std::size_t>(num_devices), 15));
    ThreadPool pool(2);
    ServerConfig config;
    config.scheduler.num_workers = num_devices + 1;
    config.max_queue = kClients * kJobsPerClient;
    SpgemmServer server(fleet.devices, pool, config);

    struct Submitted {
      std::shared_ptr<const Csr> a, b;
      std::future<JobResult> future;
    };
    std::mutex mutex;
    std::vector<Submitted> submitted;

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SplitMix64 rng(kSeed + static_cast<std::uint64_t>(c) +
                       static_cast<std::uint64_t>(num_devices) * 100);
        for (int j = 0; j < kJobsPerClient; ++j) {
          SpgemmJob job;
          const std::uint64_t pick = rng.Next() % 3;
          const std::uint64_t seed = rng.Next();
          if (pick == 0) {
            job.a = std::make_shared<const Csr>(
                testutil::RandomCsr(48, 48, 3.0, seed));
          } else if (pick == 1) {
            job.a = std::make_shared<const Csr>(
                testutil::RandomCsr(96, 96, 5.0, seed));
          } else {
            job.a = std::make_shared<const Csr>(
                testutil::RandomRmat(7, 6.0, seed));
          }
          job.b = job.a;
          job.options.priority = static_cast<int>(rng.Next() % 4);
          job.options.mode = (rng.Next() % 4 == 0)
                                 ? core::ExecutionMode::kCpuOnly
                                 : core::ExecutionMode::kAuto;
          Submitted s;
          s.a = job.a;
          s.b = job.b;
          s.future = server.Submit(std::move(job));
          std::unique_lock<std::mutex> lock(mutex);
          submitted.push_back(std::move(s));
        }
      });
    }
    for (auto& t : clients) t.join();
    server.Drain();

    ASSERT_EQ(submitted.size(),
              static_cast<std::size_t>(kClients * kJobsPerClient));
    for (auto& s : submitted) {
      JobResult r = s.future.get();
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_TRUE(
          testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *s.b)));
      if (r.metrics.device_index >= 0) {
        EXPECT_LT(r.metrics.device_index, num_devices);
      }
    }

    ServerReport report = server.Report();
    EXPECT_EQ(report.completed, kClients * kJobsPerClient);
    EXPECT_EQ(report.device_oom_failures, 0);

    // Per-device lease counts reconcile with the pool's aggregate view.
    ASSERT_EQ(report.devices.size(), static_cast<std::size_t>(num_devices));
    std::int64_t lease_sum = 0;
    for (const DeviceServeReport& d : report.devices) {
      EXPECT_GT(d.capacity_bytes, 0);
      lease_sum += d.lease_count;
    }
    EXPECT_EQ(lease_sum, server.device_pool().lease_count());
  }
}

TEST(ServeMultiDevice, ExplicitGpuJobsNeverExceedDeviceCapacity) {
  // Device 1 is the tiny outlier: 16 GiB >> 20 = 16 KiB, far below any
  // out-of-core plan's pools + panels.
  Fleet fleet({14, 20, 14});
  const std::size_t kTiny = 1;
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 3;
  config.max_queue = 32;
  SpgemmServer server(fleet.devices, pool, config);

  auto a = std::make_shared<const Csr>(testutil::RandomRmat(8, 8.0, 7));
  // Precondition for the test to mean anything: the job's planned device
  // working set really does exceed the tiny device.
  JobDemand demand = EstimateJobDemand(
      *a, *a, server.device_pool().max_device_capacity(), {});
  ASSERT_TRUE(demand.gpu_feasible);
  ASSERT_GT(demand.planned_device_bytes, fleet.devices[kTiny]->capacity());

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i) {
    SpgemmJob job;
    job.a = a;
    job.b = a;
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(job)));
  }
  server.Drain();
  for (auto& f : futures) {
    JobResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_NE(r.metrics.device_index, static_cast<int>(kTiny));
    EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*a, *a)));
  }

  ServerReport report = server.Report();
  ASSERT_EQ(report.devices.size(), 3u);
  // The tiny device was never leased, let alone run on.
  EXPECT_EQ(report.devices[kTiny].lease_count, 0);
  EXPECT_EQ(report.devices[kTiny].completed, 0);
}

TEST(ServeMultiDevice, HybridJobSpansFreeDevices) {
  Fleet fleet({14, 14, 14});
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 2;
  config.scheduler.max_devices_per_job = 3;
  config.max_queue = 8;
  SpgemmServer server(fleet.devices, pool, config);

  // Submitted alone, so the whole pool is free at dispatch: the hybrid job
  // should span all three devices via core::MultiGpuHybrid.
  auto a = std::make_shared<const Csr>(testutil::RandomRmat(9, 8.0, 11));
  SpgemmJob job;
  job.a = a;
  job.b = a;
  job.options.mode = core::ExecutionMode::kHybrid;
  std::future<JobResult> future = server.Submit(std::move(job));
  server.Drain();

  JobResult r = future.get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*a, *a)));
  EXPECT_GE(r.metrics.devices_used, 2);

  ServerReport report = server.Report();
  EXPECT_GE(report.via_multi_device, 1);
}

TEST(ServeMultiDevice, SharedOperandBatchPinsToOneDevice) {
  Fleet fleet({14, 14});
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 1;  // one worker so companions queue up
  config.scheduler.max_batch_jobs = 4;
  config.max_queue = 16;
  SpgemmServer server(fleet.devices, pool, config);

  auto b = std::make_shared<const Csr>(testutil::RandomRmat(8, 8.0, 21));
  struct Submitted {
    std::shared_ptr<const Csr> a;
    std::future<JobResult> future;
  };
  std::vector<Submitted> submitted;
  for (int i = 0; i < 8; ++i) {
    SpgemmJob job;
    job.a = std::make_shared<const Csr>(testutil::RandomCsr(
        64, b->rows(), 4.0, 500 + static_cast<std::uint64_t>(i)));
    job.b = b;
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    Submitted s;
    s.a = job.a;
    s.future = server.Submit(std::move(job));
    submitted.push_back(std::move(s));
  }
  server.Drain();

  bool saw_batched = false;
  for (auto& s : submitted) {
    JobResult r = s.future.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*s.a, *b)));
    if (r.metrics.batch_size > 1) {
      saw_batched = true;
      // The batch's shared workspace lives on one device: a batched member
      // never spans.
      EXPECT_EQ(r.metrics.devices_used, 1);
      EXPECT_GE(r.metrics.device_index, 0);
    }
  }
  EXPECT_TRUE(saw_batched);

  ServerReport report = server.Report();
  EXPECT_GE(report.batches, 1);
}

}  // namespace
}  // namespace oocgemm::serve
