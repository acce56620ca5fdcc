// Plan once: the panel plan admission prices is the plan the job runs.
// Every served job is planned exactly once (oocgemm_partition_plans equals
// the admissions), batched or not, and a batch member runs its own plan —
// never one made from another member's estimate.
//
// Suites are named Serve* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "kernels/reference_spgemm.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace oocgemm::serve {
namespace {

using sparse::Csr;

std::shared_ptr<const Csr> Shared(Csr m) {
  return std::make_shared<const Csr>(std::move(m));
}

/// Plans made and admissions priced so far, by the process's counters.
struct PlanCounts {
  obs::RegistrySnapshot now = obs::MetricsRegistry::Default().Snapshot();
  double plans = now.Value("oocgemm_partition_plans");
  double estimated =
      now.Value("oocgemm_estimate_admissions_total", {{"mode", "estimate"}});
  double admissions =
      estimated +
      now.Value("oocgemm_estimate_admissions_total", {{"mode", "exact"}});
};

/// One worker held by a CPU-only blocker until Release(): the blocker
/// outranks every later job, so the worker pops it first, and its kernels
/// wait behind gate tasks that occupy the whole pool.  Every job submitted
/// before Release() is queued by the time the worker is free again.
struct HeldServer {
  vgpu::Device device;
  ThreadPool pool{2};
  SpgemmServer server;
  std::promise<void> gate;
  bool released = false;
  std::future<JobResult> blocker;

  HeldServer(int mem_shift, int max_batch_jobs)
      : device(vgpu::ScaledV100Properties(mem_shift)),
        server(device, pool, Config(max_batch_jobs)) {
    std::shared_future<void> open = gate.get_future().share();
    for (std::size_t i = 0; i < pool.num_threads(); ++i) {
      pool.Submit([open] { open.wait(); });
    }
    auto m = Shared(testutil::RandomRmat(9, 8.0, 51));
    SpgemmJob job{m, m, {}};
    job.options.mode = core::ExecutionMode::kCpuOnly;
    job.options.priority = 10;
    blocker = server.Submit(std::move(job));
  }
  ~HeldServer() { Release(); }

  void Release() {
    if (!released) gate.set_value();
    released = true;
  }

  static ServerConfig Config(int max_batch_jobs) {
    ServerConfig config;
    config.scheduler.num_workers = 1;
    config.scheduler.max_batch_jobs = max_batch_jobs;
    config.admission_mode = AdmissionMode::kEstimate;
    return config;
  }

  std::future<JobResult> Submit(std::shared_ptr<const Csr> a,
                                std::shared_ptr<const Csr> b, int priority) {
    SpgemmJob job{std::move(a), std::move(b), {}};
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    job.options.priority = priority;
    return server.Submit(std::move(job));
  }
};

void ExpectOnePlanPerJob(int max_batch_jobs) {
  constexpr int kJobs = 4;
  const auto b = Shared(testutil::RandomRmat(11, 8.0, 71));
  std::vector<std::shared_ptr<const Csr>> as;
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(
        Shared(testutil::RandomCsr(b->rows(), b->rows(), 6.0, 710 + i)));
  }
  const PlanCounts before;
  ServerReport report;
  {
    HeldServer held(/*mem_shift=*/12, max_batch_jobs);
    std::vector<std::future<JobResult>> futures;
    for (const auto& a : as) futures.push_back(held.Submit(a, b, 0));
    held.Release();
    held.server.Drain();
    ASSERT_TRUE(held.blocker.get().ok());
    for (std::size_t i = 0; i < as.size(); ++i) {
      JobResult r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_TRUE(
          testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*as[i], *b)));
    }
    report = held.server.Report();
  }
  const PlanCounts after;
  // Every job was priced (and planned) from a reliable estimate, and no
  // attempt overflowed: nothing but admission had a reason to plan.
  EXPECT_EQ(after.estimated - before.estimated, kJobs);
  EXPECT_EQ(report.retries, 0);
  if (max_batch_jobs > 1) {
    EXPECT_GE(report.batches, 1);
  }
  EXPECT_EQ(after.plans - before.plans, after.admissions - before.admissions);
}

TEST(ServePlanOnce, EstimateModeJobsArePlannedOnce) {
  ExpectOnePlanPerJob(/*max_batch_jobs=*/1);
}

TEST(ServePlanOnce, EstimateModeBatchMembersArePlannedOnce) {
  ExpectOnePlanPerJob(/*max_batch_jobs=*/8);
}

// A batch led by a sparse job must not plan a dense member from the
// leader's estimate: its pools would be sized for the sparse output, and
// the batch would overflow and re-plan until its attempts ran out.
TEST(ServePlanOnce, BatchMembersRunTheirOwnPlans) {
  const auto b = Shared(testutil::RandomRmat(10, 8.0, 81));
  const auto sparse_a = Shared(testutil::RandomCsr(1024, 1024, 1.0, 84));
  const auto dense_a = Shared(testutil::RandomCsr(1024, 1024, 16.0, 83));

  constexpr int kMemShift = 14;  // a 1 MiB device
  const std::int64_t capacity =
      vgpu::ScaledV100Properties(kMemShift).memory_bytes;
  const ServerConfig config = HeldServer::Config(8);
  auto admit = [&](const Csr& a) {
    return EstimateJobDemandSampled(a, *b, capacity, core::ExecutorOptions{},
                                    config.estimator);
  };
  const JobDemand sparse_demand = admit(*sparse_a);
  const JobDemand dense_demand = admit(*dense_a);
  ASSERT_TRUE(sparse_demand.estimated && dense_demand.estimated);
  ASSERT_NE(sparse_demand.plan, nullptr);
  ASSERT_NE(dense_demand.plan, nullptr);
  // The members' own plans agree on the column split, so each runs as is.
  ASSERT_EQ(sparse_demand.plan->num_col_panels,
            dense_demand.plan->num_col_panels);

  const PlanCounts before;
  HeldServer held(kMemShift, /*max_batch_jobs=*/8);
  auto leader = held.Submit(sparse_a, b, /*priority=*/1);
  auto member = held.Submit(dense_a, b, /*priority=*/0);
  held.Release();
  held.server.Drain();
  ASSERT_TRUE(held.blocker.get().ok());
  const PlanCounts after;

  const struct {
    JobResult result;
    const JobDemand& demand;
    const Csr& a;
  } jobs[] = {{leader.get(), sparse_demand, *sparse_a},
              {member.get(), dense_demand, *dense_a}};
  for (const auto& job : jobs) {
    ASSERT_TRUE(job.result.ok()) << job.result.status.ToString();
    EXPECT_EQ(job.result.metrics.batch_size, 2);
    EXPECT_EQ(job.result.metrics.attempts, 1);
    EXPECT_EQ(job.result.metrics.stats.num_row_panels,
              job.demand.plan->num_row_panels);
    EXPECT_EQ(job.result.metrics.stats.num_col_panels,
              job.demand.plan->num_col_panels);
    EXPECT_TRUE(testutil::CsrNear(job.result.c,
                                  kernels::ReferenceSpgemm(job.a, *b)));
  }
  EXPECT_EQ(after.plans - before.plans, after.admissions - before.admissions);
}

}  // namespace
}  // namespace oocgemm::serve
