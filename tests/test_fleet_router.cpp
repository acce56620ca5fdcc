// FleetRouter end-to-end: affinity concentration, random-baseline spread,
// hot-operand replication, cross-shard failover after a device kill, the
// report reconciliation contract (fleet totals == sum of per-shard
// ServerReports, delivered outcomes == routed jobs), and the threads a
// fleet costs.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/router.hpp"
#include "kernels/reference_spgemm.hpp"
#include "test_util.hpp"
#include "vgpu/fault_injector.hpp"

namespace oocgemm::fleet {
namespace {

using sparse::Csr;

struct ShardedFleet {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<std::vector<vgpu::Device*>> shards;

  ShardedFleet(int num_shards, int devices_per_shard, int mem_shift) {
    for (int s = 0; s < num_shards; ++s) {
      std::vector<vgpu::Device*> shard;
      for (int d = 0; d < devices_per_shard; ++d) {
        storage.push_back(std::make_unique<vgpu::Device>(
            vgpu::ScaledV100Properties(mem_shift)));
        shard.push_back(storage.back().get());
      }
      shards.push_back(std::move(shard));
    }
  }
};

serve::SpgemmJob MakeJob(std::shared_ptr<const Csr> a,
                         std::shared_ptr<const Csr> b,
                         core::ExecutionMode mode = core::ExecutionMode::kAuto) {
  serve::SpgemmJob job;
  job.a = std::move(a);
  job.b = std::move(b);
  job.options.mode = mode;
  return job;
}

TEST(FleetRouter, AffinityConcentratesSameOperandOnOneShard) {
  ShardedFleet fleet(3, 1, 15);
  ThreadPool pool(3);
  FleetConfig config;
  config.shard.scheduler.num_workers = 2;
  FleetRouter router(fleet.shards, pool, config);

  auto b = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 42));
  const int home = router.PrimaryShardFor(*b);
  ASSERT_GE(home, 0);

  constexpr int kJobs = 12;
  std::vector<std::future<serve::JobResult>> futures;
  for (int j = 0; j < kJobs; ++j) {
    auto a = std::make_shared<const Csr>(
        testutil::RandomCsr(48, b->rows(), 3.0, 100 + j));
    futures.push_back(router.Submit(MakeJob(a, b)));
  }
  router.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  const FleetReport report = router.Report();
  EXPECT_EQ(report.routing.routed_jobs, kJobs);
  EXPECT_EQ(report.routing.affinity_routed, kJobs);
  EXPECT_EQ(report.delivered_completed, kJobs);
  // Every job landed on the operand's ring owner — the other shards are
  // untouched, so their PanelCaches never even saw B.
  for (int s = 0; s < router.shard_count(); ++s) {
    EXPECT_EQ(report.shard_reports[static_cast<std::size_t>(s)].submitted,
              s == home ? kJobs : 0)
        << "shard " << s;
  }
  EXPECT_TRUE(report.Reconciles()) << report.DebugString();
}

TEST(FleetRouter, RandomPolicySpreadsAcrossShards) {
  ShardedFleet fleet(3, 1, 15);
  ThreadPool pool(3);
  FleetConfig config;
  config.policy = RoutingPolicy::kRandom;
  config.shard.scheduler.num_workers = 2;
  FleetRouter router(fleet.shards, pool, config);

  constexpr int kJobs = 30;
  auto b = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 42));
  std::vector<std::future<serve::JobResult>> futures;
  for (int j = 0; j < kJobs; ++j) {
    auto a = std::make_shared<const Csr>(
        testutil::RandomCsr(48, b->rows(), 3.0, 200 + j));
    futures.push_back(router.Submit(MakeJob(a, b)));
  }
  router.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  const FleetReport report = router.Report();
  EXPECT_EQ(report.routing.random_routed, kJobs);
  EXPECT_EQ(report.routing.affinity_routed, 0);
  // With 30 draws over 3 shards, every shard sees work (the seed is fixed;
  // this is a regression, not a statistics exam).
  for (const serve::ServerReport& shard : report.shard_reports) {
    EXPECT_GT(shard.submitted, 0);
  }
  EXPECT_TRUE(report.Reconciles()) << report.DebugString();
}

TEST(FleetRouter, HotOperandSpreadsOverReplicaSet) {
  ShardedFleet fleet(3, 1, 15);
  ThreadPool pool(3);
  FleetConfig config;
  config.shard.scheduler.num_workers = 2;
  config.replication.replication = 2;
  FleetRouter router(fleet.shards, pool, config);

  auto b = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 42));
  const std::vector<int> replicas =
      router.ring().Successors(OperandPlacementKey(*b), 2);
  ASSERT_EQ(replicas.size(), 2u);

  constexpr int kJobs = 24;
  std::vector<std::future<serve::JobResult>> futures;
  for (int j = 0; j < kJobs; ++j) {
    auto a = std::make_shared<const Csr>(
        testutil::RandomCsr(48, b->rows(), 3.0, 300 + j));
    futures.push_back(router.Submit(MakeJob(a, b)));
  }
  router.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  const FleetReport report = router.Report();
  EXPECT_GE(report.routing.hot_promotions, 1);
  EXPECT_GT(report.routing.replica_routed, 0);
  // Once hot, traffic round-robins over both replicas; the third shard
  // stays untouched.
  for (int s = 0; s < router.shard_count(); ++s) {
    const std::int64_t submitted =
        report.shard_reports[static_cast<std::size_t>(s)].submitted;
    const bool is_replica = s == replicas[0] || s == replicas[1];
    if (is_replica) {
      EXPECT_GT(submitted, 0) << "replica shard " << s;
    } else {
      EXPECT_EQ(submitted, 0) << "non-replica shard " << s;
    }
  }
  EXPECT_TRUE(report.Reconciles()) << report.DebugString();
}

TEST(FleetRouter, DeadShardFailsOverToRingSuccessor) {
  ShardedFleet fleet(2, 1, 15);
  ThreadPool pool(3);
  FleetConfig config;
  config.shard.scheduler.num_workers = 2;
  FleetRouter router(fleet.shards, pool, config);

  auto b = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 42));
  const int home = router.PrimaryShardFor(*b);
  ASSERT_GE(home, 0);

  // Kill the home shard's only device on its 2nd kernel launch: the job
  // holding it dies mid-run, the lane is pulled, and the shard's pool has
  // no healthy device left — explicit-GPU jobs there fail fast.
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("kernel:nth=2:kill", /*seed=*/3).value());
  fleet.shards[static_cast<std::size_t>(home)][0]->set_fault_injector(
      &injector);

  constexpr int kJobs = 8;
  std::vector<std::shared_ptr<const Csr>> as;
  std::vector<std::future<serve::JobResult>> futures;
  for (int j = 0; j < kJobs; ++j) {
    auto a = std::make_shared<const Csr>(
        testutil::RandomCsr(48, b->rows(), 3.0, 400 + j));
    as.push_back(a);
    futures.push_back(
        router.Submit(MakeJob(a, b, core::ExecutionMode::kGpuOutOfCore)));
  }
  router.Drain();

  // Every job completes despite the dead shard, and results stay correct.
  for (int j = 0; j < kJobs; ++j) {
    serve::JobResult r = futures[static_cast<std::size_t>(j)].get();
    ASSERT_TRUE(r.ok()) << "job " << j << ": " << r.status.ToString();
    const Csr expected = kernels::ReferenceSpgemm(*as[static_cast<std::size_t>(j)], *b);
    EXPECT_TRUE(testutil::CsrNear(r.c, expected)) << "job " << j;
  }

  const FleetReport report = router.Report();
  EXPECT_EQ(report.delivered_completed, kJobs);
  // At least the mid-run victim hopped shards; later jobs either hopped
  // too or were probe-skipped straight to the survivor.
  EXPECT_GE(report.routing.failover_resubmissions, 1);
  EXPECT_GE(report.routing.rerouted_completed, 1);
  EXPECT_EQ(report.routing.exhausted_jobs, 0);
  const serve::ServerReport& survivor = report.shard_reports[
      static_cast<std::size_t>(1 - home)];
  EXPECT_EQ(survivor.completed, kJobs);
  EXPECT_TRUE(report.Reconciles()) << report.DebugString();
}

TEST(FleetRouter, ShutdownRejectsNewSubmissions) {
  ShardedFleet fleet(2, 1, 15);
  ThreadPool pool(2);
  FleetRouter router(fleet.shards, pool, {});
  router.Shutdown();

  auto b = std::make_shared<const Csr>(testutil::RandomRmat(6, 5.0, 1));
  auto a = std::make_shared<const Csr>(
      testutil::RandomCsr(32, b->rows(), 3.0, 2));
  std::future<serve::JobResult> f = router.Submit(MakeJob(a, b));
  serve::JobResult r = f.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.metrics.outcome, serve::JobOutcome::kRejected);
  EXPECT_EQ(router.Report().routing.router_rejects, 1);
}

TEST(FleetRouter, ReportJsonCarriesShardSections) {
  ShardedFleet fleet(2, 1, 15);
  ThreadPool pool(2);
  FleetRouter router(fleet.shards, pool, {});
  auto b = std::make_shared<const Csr>(testutil::RandomRmat(6, 5.0, 1));
  auto a = std::make_shared<const Csr>(
      testutil::RandomCsr(32, b->rows(), 3.0, 2));
  router.Submit(MakeJob(a, b));
  router.Drain();

  const std::string json = router.Report().ToJson();
  EXPECT_NE(json.find("\"routing\""), std::string::npos);
  EXPECT_NE(json.find("\"shard_reports\""), std::string::npos);
  EXPECT_NE(json.find("\"reconciles\": true"), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"affinity\""), std::string::npos);
}

// A server starts exactly its scheduler workers; a router starts none of
// its own, so a fleet costs its shards' workers and nothing more.
TEST(FleetRouter, StartsOnlyItsShardsWorkerThreads) {
  ShardedFleet fleet(3, 1, 15);
  ThreadPool pool(2);
  FleetConfig config;
  config.shard.scheduler.num_workers = 2;
  {
    const int before = testutil::SettledThreadCount();
    serve::SpgemmServer server(fleet.shards[0], pool, config.shard);
    EXPECT_EQ(testutil::SettledThreadCount() - before, 2);
  }
  {
    const int before = testutil::SettledThreadCount();
    FleetRouter router(fleet.shards, pool, config);
    EXPECT_EQ(testutil::SettledThreadCount() - before, 3 * 2);
  }
}

// A job resolves where it finishes: a young job on one shard reaches its
// caller while two older jobs on another shard still wait for that shard's
// device, which the test holds.
TEST(FleetRouter, FinishedJobResolvesWhileOlderJobsElsewhereRun) {
  ShardedFleet fleet(2, 1, 15);
  ThreadPool pool(2);
  FleetConfig config;
  config.shard.scheduler.num_workers = 2;
  FleetRouter router(fleet.shards, pool, config);

  auto held_b = std::make_shared<const Csr>(testutil::RandomRmat(6, 5.0, 42));
  const int held = router.PrimaryShardFor(*held_b);
  std::shared_ptr<const Csr> free_b;
  for (std::uint64_t seed = 43; seed < 107 && free_b == nullptr; ++seed) {
    auto b = std::make_shared<const Csr>(testutil::RandomRmat(6, 5.0, seed));
    if (router.PrimaryShardFor(*b) != held) free_b = b;
  }
  ASSERT_NE(free_b, nullptr);

  // Declared after the router, so it is released before the router drains.
  core::DevicePool::Slot lease = router.shard(held).device_pool().Acquire();
  ASSERT_TRUE(lease.held());
  std::vector<std::future<serve::JobResult>> older;
  for (int j = 0; j < 2; ++j) {
    auto a = std::make_shared<const Csr>(
        testutil::RandomCsr(32, held_b->rows(), 3.0, 600 + j));
    older.push_back(
        router.Submit(MakeJob(a, held_b, core::ExecutionMode::kGpuOutOfCore)));
  }
  auto a = std::make_shared<const Csr>(
      testutil::RandomCsr(32, free_b->rows(), 3.0, 610));
  std::future<serve::JobResult> young =
      router.Submit(MakeJob(a, free_b, core::ExecutionMode::kGpuOutOfCore));

  ASSERT_EQ(young.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  for (auto& f : older) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
  }
  serve::JobResult r = young.get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*a, *free_b)));

  lease.Release();
  router.Drain();
  for (auto& f : older) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(router.Report().Reconciles()) << router.Report().DebugString();
}

}  // namespace
}  // namespace oocgemm::fleet
