// Serving-layer regression tests for operand-aware batching and the
// device-lease accounting:
//  * batches form only among jobs sharing B, and their results are exact;
//  * every device lease is returned after mixed CPU/GPU workloads;
//  * a timeout that fires while the job is still queued reports
//    executed == false (no executor ever saw it).
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "kernels/reference_spgemm.hpp"
#include "serve/batching.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace oocgemm::serve {
namespace {

using sparse::Csr;

std::shared_ptr<const Csr> Shared(Csr m) {
  return std::make_shared<const Csr>(std::move(m));
}

struct SharedOperandWorkload {
  std::shared_ptr<const Csr> b;
  std::vector<std::shared_ptr<const Csr>> as;

  explicit SharedOperandWorkload(int jobs) {
    b = Shared(testutil::RandomRmat(9, 8.0, 50));
    for (int i = 0; i < jobs; ++i) {
      as.push_back(Shared(testutil::RandomCsr(b->rows(), b->rows(), 6.0,
                                              500 + i)));
    }
  }
};

/// Runs the workload's jobs (as explicit async-GPU requests) behind a
/// CPU-only blocker that holds the single worker long enough for the queue
/// to fill, so batch formation is deterministic.  Returns the report.
ServerReport RunSharedOperandWorkload(const SharedOperandWorkload& w,
                                      int max_batch_jobs,
                                      std::vector<JobResult>* results) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.scheduler.max_batch_jobs = max_batch_jobs;
  config.max_queue = 64;
  SpgemmServer server(device, pool, config);

  auto blocker = Shared(testutil::RandomRmat(9, 8.0, 51));
  SpgemmJob blocker_job{blocker, blocker, {}};
  blocker_job.options.mode = core::ExecutionMode::kCpuOnly;
  auto blocker_future = server.Submit(std::move(blocker_job));

  std::vector<std::future<JobResult>> futures;
  for (const auto& a : w.as) {
    SpgemmJob job{a, w.b, {}};
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(job)));
  }
  server.Drain();

  (void)blocker_future.get();
  if (results != nullptr) {
    for (auto& f : futures) results->push_back(f.get());
  }
  return server.Report();
}

TEST(ServeBatching, SharedOperandJobsBatchAndMatchReference) {
  SharedOperandWorkload w(6);
  std::vector<JobResult> results;
  ServerReport report = RunSharedOperandWorkload(w, /*max_batch_jobs=*/8,
                                                 &results);

  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.ToString();
    EXPECT_TRUE(testutil::CsrNear(
        results[i].c, kernels::ReferenceSpgemm(*w.as[i], *w.b)));
  }
  // The blocker held the worker, so the six companions were all queued and
  // formed one batch.
  EXPECT_GE(report.batches, 1);
  EXPECT_GE(report.batched_jobs, 2);
  EXPECT_GE(report.avg_batch_size, 2.0);
  int batched_members = 0;
  for (const JobResult& r : results) {
    if (r.metrics.batch_size > 1) ++batched_members;
    EXPECT_TRUE(r.metrics.executed);
  }
  EXPECT_GE(batched_members, 2);
}

TEST(ServeBatching, BatchingReducesBPanelUploads) {
  SharedOperandWorkload w(6);
  std::vector<JobResult> unbatched_results, batched_results;
  ServerReport unbatched =
      RunSharedOperandWorkload(w, /*max_batch_jobs=*/1, &unbatched_results);
  ServerReport batched =
      RunSharedOperandWorkload(w, /*max_batch_jobs=*/8, &batched_results);

  EXPECT_EQ(unbatched.batches, 0);
  EXPECT_GE(batched.batches, 1);
  // Same jobs, same operands: batching must strictly reduce B-panel H2D
  // traffic (the shared panels upload once per batch, not once per job).
  EXPECT_GT(unbatched.b_panel_uploads, 0);
  EXPECT_LT(batched.b_panel_uploads, unbatched.b_panel_uploads);
  // And the products stay identical.
  for (std::size_t i = 0; i < batched_results.size(); ++i) {
    EXPECT_TRUE(testutil::CsrNear(batched_results[i].c,
                                  unbatched_results[i].c));
  }
}

TEST(ServeBatching, MixedOperandQueueDoesNotOverBatch) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.scheduler.max_batch_jobs = 8;
  config.max_queue = 64;
  SpgemmServer server(device, pool, config);

  auto blocker = Shared(testutil::RandomRmat(9, 8.0, 61));
  SpgemmJob blocker_job{blocker, blocker, {}};
  blocker_job.options.mode = core::ExecutionMode::kCpuOnly;
  auto fb = server.Submit(std::move(blocker_job));

  // Every job multiplies against its own B: nothing shares an operand, so
  // no batch may form even though all jobs are queued together.
  std::vector<std::future<JobResult>> futures;
  std::vector<std::shared_ptr<const Csr>> operands;
  for (int i = 0; i < 5; ++i) {
    auto m = Shared(testutil::RandomCsr(256, 256, 6.0, 700 + i));
    operands.push_back(m);
    SpgemmJob job{m, m, {}};
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(job)));
  }
  server.Drain();
  (void)fb.get();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    JobResult r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.metrics.batch_size, 1);
    EXPECT_TRUE(testutil::CsrNear(
        r.c, kernels::ReferenceSpgemm(*operands[i], *operands[i])));
  }
  EXPECT_EQ(server.Report().batches, 0);
}

// Two jobs that fit the device alone but not on one shared workspace: the
// batch's lease asks for the shared workspace, no device holds it, and
// the members run one by one.
TEST(ServeBatching, MembersThatDoNotFitTogetherRunOneByOne) {
  const testutil::WorkspaceMisfit m;
  const auto b = Shared(m.b);
  const std::vector<std::shared_ptr<const Csr>> as = {Shared(m.wide_out),
                                                      Shared(m.wide_in)};
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  config.scheduler.max_batch_jobs = 2;
  SpgemmServer server(device, pool, config);

  // Hold the one worker on a CPU-only blocker whose kernels wait behind
  // gate tasks on the pool, so both jobs are queued when it frees.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  for (std::size_t i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([open] { open.wait(); });
  }
  auto blocker_m = Shared(testutil::RandomRmat(9, 8.0, 51));
  SpgemmJob blocker{blocker_m, blocker_m, {}};
  blocker.options.mode = core::ExecutionMode::kCpuOnly;
  blocker.options.priority = 10;
  std::future<JobResult> blocked = server.Submit(std::move(blocker));
  std::vector<std::future<JobResult>> futures;
  for (const auto& a : as) {
    SpgemmJob job{a, b, {}};
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(job)));
  }
  gate.set_value();
  server.Drain();

  ASSERT_TRUE(blocked.get().ok());
  for (std::size_t i = 0; i < as.size(); ++i) {
    JobResult r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_EQ(r.metrics.batch_size, 1);
    EXPECT_TRUE(
        testutil::CsrNear(r.c, kernels::ReferenceSpgemm(*as[i], *b)));
  }
  const ServerReport report = server.Report();
  EXPECT_EQ(report.batches, 0);
  EXPECT_EQ(report.batch_fallbacks, 1);
}

TEST(ServeBatching, ExtractIfPeelsMatchesInOrderAndKeepsOthers) {
  BoundedJobQueue<int> queue(16);
  for (int v : {10, 21, 32, 43, 54}) {
    ASSERT_TRUE(queue.TryPush(/*priority=*/0, v));
  }
  // Peel even values, capped at 2: takes 10 and 32, leaves 54 behind.
  auto even = queue.ExtractIf([](int v) { return v % 2 == 0; }, 2);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0], 10);
  EXPECT_EQ(even[1], 32);
  EXPECT_EQ(queue.size(), 3u);
  // FIFO order of the remainder is preserved.
  EXPECT_EQ(*queue.Pop(), 21);
  EXPECT_EQ(*queue.Pop(), 43);
  EXPECT_EQ(*queue.Pop(), 54);
}

// --- lease accounting -------------------------------------------------------

TEST(ServeReservations, LedgerBalancesToZeroAfterMixedWorkload) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  ServerConfig config;
  config.scheduler.num_workers = 2;
  SpgemmServer server(device, pool, config);

  // Mixed routes: explicit CPU (never leases the device), explicit GPU,
  // auto small and auto large (hybrid) jobs, several of each.
  auto small = Shared(testutil::RandomCsr(48, 48, 3.0, 80));
  auto big = Shared(testutil::RandomRmat(9, 8.0, 81));
  std::vector<std::future<JobResult>> futures;
  for (int round = 0; round < 3; ++round) {
    SpgemmJob cpu{small, small, {}};
    cpu.options.mode = core::ExecutionMode::kCpuOnly;
    futures.push_back(server.Submit(std::move(cpu)));
    SpgemmJob gpu{big, big, {}};
    gpu.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(gpu)));
    futures.push_back(server.Submit({small, small, {}}));  // auto small
    futures.push_back(server.Submit({big, big, {}}));      // auto large
  }
  server.Drain();
  for (auto& f : futures) {
    JobResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }

  // Every lease was returned: the device is free again.
  EXPECT_TRUE(server.device_pool().TryAcquire().held());
}

// --- queued timeouts --------------------------------------------------------

TEST(ServeTimeouts, QueuedExpiryReportsNotExecuted) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  ServerConfig config;
  config.scheduler.num_workers = 1;
  SpgemmServer server(device, pool, config);

  // The blocker occupies the lone worker for far longer than the victim's
  // timeout, so the victim expires while still queued.
  auto blocker = Shared(testutil::RandomRmat(10, 8.0, 95));
  auto fb = server.Submit({blocker, blocker, {}});

  auto small = Shared(testutil::RandomCsr(32, 32, 2.0, 96));
  SpgemmJob victim{small, small, {}};
  victim.options.timeout_seconds = 0.002;
  JobResult r = server.Submit(std::move(victim)).get();
  (void)fb.get();

  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.metrics.outcome, JobOutcome::kTimedOut);
  // The fix under test: the job never reached an executor, and the metrics
  // now say so instead of reporting a default-constructed executor.
  EXPECT_FALSE(r.metrics.executed);

  ServerReport report = server.Report();
  EXPECT_GE(report.timed_out, 1);
  EXPECT_GE(report.timed_out_in_queue, 1);
}

}  // namespace
}  // namespace oocgemm::serve
