// End-to-end serving runtime tests: the concurrent-jobs oracle, admission
// rejection, timeout deadlines, and scheduler-level retry-with-replan.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "kernels/reference_spgemm.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace oocgemm::serve {
namespace {

using sparse::Csr;

std::shared_ptr<const Csr> Shared(Csr m) {
  return std::make_shared<const Csr>(std::move(m));
}

// The acceptance-criterion workload at test scale: a mixed batch submitted
// all at once, every result bit-checked against the reference, zero device
// OOMs (over-capacity demand is queued or rejected, never crashed).
TEST(SpgemmServer, Mixed64JobsConcurrentlyAllMatchReference) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));  // 1 MiB
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 3;
  config.max_queue = 64;
  SpgemmServer server(device, pool, config);

  std::vector<std::shared_ptr<const Csr>> mats;
  for (int i = 0; i < 8; ++i) {
    mats.push_back(Shared(testutil::RandomCsr(64, 64, 4.0, 100 + i)));
  }
  for (int i = 0; i < 4; ++i) {
    mats.push_back(Shared(testutil::RandomRmat(7, 8.0, 200 + i)));
  }
  for (int i = 0; i < 2; ++i) {
    mats.push_back(Shared(testutil::RandomRmat(9, 8.0, 300 + i)));
  }

  struct Pending {
    std::shared_ptr<const Csr> a, b;
    std::future<JobResult> future;
  };
  std::vector<Pending> pending;
  for (int i = 0; i < 64; ++i) {
    SpgemmJob job;
    job.a = mats[static_cast<std::size_t>(i) % mats.size()];
    job.b = mats[static_cast<std::size_t>(i * 7 + 3) % mats.size()];
    if (job.a->cols() != job.b->rows()) job.b = job.a;
    job.options.priority = i % 3;
    pending.push_back({job.a, job.b, server.Submit(std::move(job))});
  }
  server.Drain();

  int completed = 0;
  for (auto& p : pending) {
    JobResult r = p.future.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_TRUE(
        testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*p.a, *p.b)));
    EXPECT_GE(r.metrics.virtual_finish, r.metrics.virtual_start);
    ++completed;
  }
  EXPECT_EQ(completed, 64);

  ServerReport report = server.Report();
  EXPECT_EQ(report.submitted, 64);
  EXPECT_EQ(report.completed, 64);
  EXPECT_EQ(report.device_oom_failures, 0);
  EXPECT_EQ(report.via_cpu + report.via_gpu + report.via_hybrid, 64);
  EXPECT_GT(report.jobs_per_second, 0.0);
  EXPECT_GE(report.latency_p99, report.latency_p50);
  // The JSON export carries the headline fields.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"jobs_per_second\""), std::string::npos);
  EXPECT_NE(json.find("\"rejection_rate\""), std::string::npos);
}

TEST(SpgemmServer, AdmissionRejectsWhenOverHostBudget) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  ServerConfig config;
  config.admission.host_bytes_budget = 1;  // nothing fits
  SpgemmServer server(device, pool, config);

  auto a = Shared(testutil::RandomCsr(64, 64, 4.0, 1));
  auto f = server.Submit({a, a, {}});
  JobResult r = f.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.metrics.outcome, JobOutcome::kRejected);
  EXPECT_EQ(server.Report().rejected, 1);
  EXPECT_DOUBLE_EQ(server.Report().rejection_rate, 1.0);
}

TEST(SpgemmServer, GpuOnlyJobTooBigForDeviceIsRejectedUpFront) {
  vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
  props.memory_bytes = 1 << 10;  // 1 KiB: no panel split fits
  vgpu::Device device(props);
  ThreadPool pool(1);
  SpgemmServer server(device, pool, ServerConfig{});

  auto a = Shared(testutil::RandomRmat(8, 8.0, 2));
  SpgemmJob job{a, a, {}};
  job.options.mode = core::ExecutionMode::kHybrid;
  JobResult r = server.Submit(std::move(job)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(r.metrics.outcome, JobOutcome::kRejected);

  // The same job under kAuto degrades to the CPU path and completes.
  JobResult auto_r = server.Submit({a, a, {}}).get();
  ASSERT_TRUE(auto_r.ok()) << auto_r.status.ToString();
  EXPECT_EQ(auto_r.metrics.executor, core::ExecutionMode::kCpuOnly);
  EXPECT_TRUE(
      testutil::CsrNear(auto_r.c, kernels::ReferenceSpgemm(*a, *a)));
}

TEST(SpgemmServer, QueueFullRejectsWhileWorkerBusy) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.max_queue = 2;
  SpgemmServer server(device, pool, config);

  auto big = Shared(testutil::RandomRmat(9, 8.0, 3));
  auto small = Shared(testutil::RandomCsr(32, 32, 2.0, 4));

  std::vector<std::future<JobResult>> futures;
  futures.push_back(server.Submit({big, big, {}}));  // occupies the worker
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit({small, small, {}}));
  }
  server.Drain();

  int rejected = 0, completed = 0;
  for (auto& f : futures) {
    JobResult r = f.get();
    if (r.metrics.outcome == JobOutcome::kRejected) {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
      ++rejected;
    } else {
      EXPECT_TRUE(r.ok());
      ++completed;
    }
  }
  EXPECT_EQ(rejected + completed, 7);
  EXPECT_GE(rejected, 1);  // queue bound 2 < 6 small jobs behind the big one
  EXPECT_EQ(server.Report().device_oom_failures, 0);
}

TEST(SpgemmServer, TimeoutCancelsAtTheDeadline) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  SpgemmServer server(device, pool, config);

  auto big = Shared(testutil::RandomRmat(10, 8.0, 5));
  SpgemmJob job{big, big, {}};
  job.options.timeout_seconds = 0.002;  // far below the job's real runtime
  job.options.mode = core::ExecutionMode::kHybrid;  // multi-chunk: many
                                                    // deadline checks
  JobResult r = server.Submit(std::move(job)).get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.metrics.outcome, JobOutcome::kTimedOut);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(server.Report().timed_out, 1);

  // The worker survives a cancelled job: the next one completes.
  auto small = Shared(testutil::RandomCsr(32, 32, 2.0, 6));
  JobResult next = server.Submit({small, small, {}}).get();
  EXPECT_TRUE(next.ok()) << next.status.ToString();
}

TEST(SpgemmServer, RetryWithReplanRecoversFromUndersizedPools) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  SpgemmServer server(device, pool, config);

  auto a = Shared(testutil::RandomRmat(9, 8.0, 1));
  SpgemmJob job{a, a, {}};
  // Deliberately under-size the pools (the estimate is scaled to 1/8 of the
  // prediction) so the first attempt must overflow; the scheduler owns the
  // doubling retries because the executor's internal loop is disabled.
  job.options.exec.plan.nnz_safety_factor = 0.125;
  job.options.mode = core::ExecutionMode::kGpuOutOfCore;
  job.options.exec.max_oom_attempts = 5;
  JobResult r = server.Submit(std::move(job)).get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_GT(r.metrics.attempts, 1);
  EXPECT_TRUE(testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*a, *a)));
  EXPECT_GE(server.Report().retries, 1);
}

TEST(SpgemmServer, PriorityDispatchOrder) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.scheduler.cpu_lanes = 1;
  SpgemmServer server(device, pool, config);

  auto blocker = Shared(testutil::RandomRmat(9, 8.0, 8));
  auto small = Shared(testutil::RandomCsr(48, 48, 3.0, 9));

  auto fb = server.Submit({blocker, blocker, {}});
  SpgemmJob low{small, small, {}};
  low.options.priority = 0;
  low.options.mode = core::ExecutionMode::kCpuOnly;
  SpgemmJob high{small, small, {}};
  high.options.priority = 10;
  high.options.mode = core::ExecutionMode::kCpuOnly;
  auto f_low = server.Submit(std::move(low));
  auto f_high = server.Submit(std::move(high));
  server.Drain();

  JobResult r_low = f_low.get();
  JobResult r_high = f_high.get();
  ASSERT_TRUE(r_low.ok() && r_high.ok());
  // The high-priority job left the queue first, so it was booked first on
  // the single CPU lane.
  EXPECT_LT(r_high.metrics.virtual_start, r_low.metrics.virtual_start);
  (void)fb.get();
}

// Tenant attribution flows submit -> scheduler -> report, and a hostile
// tenant id (quotes, backslashes, newlines, control bytes) cannot malform
// the report JSON: it comes back escaped, in a document that still parses.
TEST(SpgemmServer, TenantSectionsEscapeHostileIds) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  SpgemmServer server(device, pool, {});

  const std::string hostile = "evil\"tenant\\\n\x01";
  auto m = Shared(testutil::RandomCsr(48, 48, 3.0, 7));
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 3; ++i) {
    SpgemmJob job{m, m, {}};
    job.options.tenant = i < 2 ? "alice" : hostile;
    futures.push_back(server.Submit(std::move(job)));
  }
  // A rejected submission must attribute to its tenant too.
  SpgemmJob bad;
  bad.a = m;  // missing b
  bad.options.tenant = hostile;
  futures.push_back(server.Submit(std::move(bad)));
  server.Drain();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(futures[i].get().ok());
  EXPECT_FALSE(futures[3].get().ok());

  const ServerReport report = server.Report();
  ASSERT_EQ(report.tenants.size(), 2u);  // name-sorted: alice, then evil...
  EXPECT_EQ(report.tenants[0].tenant, "alice");
  EXPECT_EQ(report.tenants[0].submitted, 2);
  EXPECT_EQ(report.tenants[0].completed, 2);
  EXPECT_EQ(report.tenants[1].tenant, hostile);
  EXPECT_EQ(report.tenants[1].submitted, 2);
  EXPECT_EQ(report.tenants[1].completed, 1);
  EXPECT_EQ(report.tenants[1].rejected, 1);

  const std::string json = report.ToJson();
  // The raw hostile bytes never appear; the escaped form does.
  EXPECT_EQ(json.find(hostile), std::string::npos);
  EXPECT_NE(json.find("evil\\\"tenant\\\\\\n\\u0001"), std::string::npos);
  // Structural sanity: balanced braces/brackets and an even quote count
  // mean the hostile id did not break out of its string literal.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace oocgemm::serve
