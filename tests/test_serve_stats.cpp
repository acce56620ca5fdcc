// ServerStats folds every outcome into running totals; the report it
// snapshots is checked field by field against values worked out by hand
// for a fixed mix of outcomes.
#include <gtest/gtest.h>

#include <string>

#include "serve/server_stats.hpp"

namespace oocgemm::serve {
namespace {

struct Outcome {
  const char* tenant;
  JobOutcome outcome;
  bool executed;
  core::ExecutionMode executor;
  int device_index;
  int devices_used;
  int attempts;
  int failovers;
  bool device_oom;
  double arrival, queue, latency;
  double flops;
  std::int64_t h2d, d2h, uploads, hits;
};

JobMetrics MetricsOf(const Outcome& o) {
  JobMetrics m;
  m.tenant = o.tenant;
  m.outcome = o.outcome;
  m.executed = o.executed;
  m.executor = o.executor;
  m.device_index = o.device_index;
  m.devices_used = o.devices_used;
  m.attempts = o.attempts;
  m.failovers = o.failovers;
  m.device_oom = o.device_oom;
  m.virtual_arrival = o.arrival;
  m.queue_seconds = o.queue;
  m.latency_seconds = o.latency;
  m.virtual_start = o.arrival + o.queue;
  m.virtual_finish = o.arrival + o.latency;
  m.stats.flops = static_cast<std::int64_t>(o.flops);
  m.stats.bytes_h2d = o.h2d;
  m.stats.bytes_d2h = o.d2h;
  m.stats.b_panel_uploads = o.uploads;
  m.stats.b_panel_hits = o.hits;
  return m;
}

TEST(ServerStats, ReportMatchesHandComputedTotals) {
  using core::ExecutionMode;
  constexpr JobOutcome kOk = JobOutcome::kCompleted;
  const Outcome mix[] = {
      // Completions: two devices, two tenants, one CPU job, one span.
      {"acme", kOk, true, ExecutionMode::kGpuOutOfCore, 0, 1, 2, 0, false,
       0, 0, 1, 1e9, 100, 10, 2, 0},
      {"beta", kOk, true, ExecutionMode::kHybrid, 1, 2, 1, 1, false,
       2, 1, 2, 2e9, 200, 20, 1, 0},
      {"", kOk, true, ExecutionMode::kCpuOnly, -1, 0, 1, 0, false,
       4, 1, 4, 1e9, 0, 0, 0, 0},
      // Two members of one batch on device 1.
      {"acme", kOk, true, ExecutionMode::kGpuOutOfCore, 1, 1, 1, 0, false,
       10, 2, 8, 1e9, 300, 30, 1, 0},
      {"acme", kOk, true, ExecutionMode::kGpuOutOfCore, 1, 1, 1, 0, false,
       4, 3, 16, 1e9, 400, 40, 0, 1},
      // Rejections.
      {"beta", JobOutcome::kRejected, false, ExecutionMode::kAuto, -1, 0, 0,
       0, false, 0, 0, 0, 0, 0, 0, 0, 0},
      {"", JobOutcome::kRejected, false, ExecutionMode::kAuto, -1, 0, 0, 0,
       false, 0, 0, 0, 0, 0, 0, 0, 0},
      // A timeout while queued and one mid-run after a failover.
      {"acme", JobOutcome::kTimedOut, false, ExecutionMode::kAuto, -1, 0, 0,
       0, false, 0, 0, 0, 0, 0, 0, 0, 0},
      {"beta", JobOutcome::kTimedOut, true, ExecutionMode::kHybrid, 0, 1, 1,
       1, false, 0, 0, 0, 0, 0, 0, 0, 0},
      // A device-OOM failure after three replans.
      {"beta", JobOutcome::kFailed, true, ExecutionMode::kGpuOutOfCore, 0, 1,
       4, 0, true, 0, 0, 0, 0, 0, 0, 0, 0},
  };

  ServerStats stats;
  for (const Outcome& o : mix) stats.RecordSubmitted(o.tenant);
  stats.RecordBatch(2);
  stats.RecordBatchFallback();
  stats.RecordDeviceFailure(2);
  for (const Outcome& o : mix) stats.RecordOutcome(MetricsOf(o));
  const ServerReport r = stats.Snapshot();

  EXPECT_EQ(r.submitted, 10);
  EXPECT_EQ(r.completed, 5);
  EXPECT_EQ(r.rejected, 2);
  EXPECT_EQ(r.timed_out, 2);
  EXPECT_EQ(r.timed_out_in_queue, 1);
  EXPECT_EQ(r.failed, 1);
  EXPECT_EQ(r.device_oom_failures, 1);
  EXPECT_EQ(r.retries, 1 + 3);
  EXPECT_EQ(r.failed_over, 2);
  EXPECT_EQ(r.device_failures, 1);
  EXPECT_EQ(r.via_cpu, 1);
  EXPECT_EQ(r.via_gpu, 3);
  EXPECT_EQ(r.via_hybrid, 1);
  EXPECT_EQ(r.via_multi_device, 1);

  // Sections up to the highest device seen, completed or failed.
  ASSERT_EQ(r.devices.size(), 3u);
  const std::int64_t device_completed[] = {1, 3, 0};
  const std::int64_t device_failures[] = {0, 0, 1};
  for (int d = 0; d < 3; ++d) {
    const DeviceServeReport& s = r.devices[static_cast<std::size_t>(d)];
    EXPECT_EQ(s.index, d);
    EXPECT_EQ(s.completed, device_completed[d]) << "device " << d;
    EXPECT_EQ(s.failures, device_failures[d]) << "device " << d;
    EXPECT_EQ(s.lease_count, 0);
    EXPECT_EQ(s.contention_count, 0);
    EXPECT_EQ(s.capacity_bytes, 0);
    EXPECT_TRUE(s.healthy);
    EXPECT_EQ(s.busy_seconds, 0.0);
    EXPECT_EQ(s.utilization, 0.0);
  }

  // Name-sorted; the unattributed jobs appear in no section.
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].tenant, "acme");
  EXPECT_EQ(r.tenants[0].submitted, 4);
  EXPECT_EQ(r.tenants[0].completed, 3);
  EXPECT_EQ(r.tenants[0].rejected, 0);
  EXPECT_EQ(r.tenants[0].timed_out, 1);
  EXPECT_EQ(r.tenants[0].failed, 0);
  EXPECT_EQ(r.tenants[1].tenant, "beta");
  EXPECT_EQ(r.tenants[1].submitted, 4);
  EXPECT_EQ(r.tenants[1].completed, 1);
  EXPECT_EQ(r.tenants[1].rejected, 1);
  EXPECT_EQ(r.tenants[1].timed_out, 1);
  EXPECT_EQ(r.tenants[1].failed, 1);

  EXPECT_EQ(r.batches, 1);
  EXPECT_EQ(r.batched_jobs, 2);
  EXPECT_EQ(r.avg_batch_size, 2.0);
  EXPECT_EQ(r.batch_fallbacks, 1);
  EXPECT_EQ(r.b_panel_uploads, 4);
  EXPECT_EQ(r.b_panel_hits, 1);
  EXPECT_EQ(r.transfer_bytes_h2d, 1000);
  EXPECT_EQ(r.transfer_bytes_d2h, 100);
  EXPECT_EQ(r.reserve_shortfalls, 0);

  // Completed jobs span [0, 20]: arrival 0 (first) to finish 4 + 16.
  EXPECT_EQ(r.virtual_makespan_seconds, 20.0);
  EXPECT_DOUBLE_EQ(r.jobs_per_second, 5.0 / 20.0);
  EXPECT_DOUBLE_EQ(r.total_gflops, 6e9 / 20.0 / 1e9);
  // Latencies sort to {1, 2, 4, 8, 16}; p95 and p99 interpolate between
  // the top two at positions 3.8 and 3.96.  Queue waits sort to
  // {0, 1, 1, 2, 3}.
  EXPECT_EQ(r.latency_p50, 4.0);
  EXPECT_NEAR(r.latency_p95, 8.0 * 0.2 + 16.0 * 0.8, 1e-12);
  EXPECT_NEAR(r.latency_p99, 8.0 * 0.04 + 16.0 * 0.96, 1e-12);
  EXPECT_DOUBLE_EQ(r.latency_mean, 31.0 / 5.0);
  EXPECT_NEAR(r.queue_p95, 2.0 * 0.2 + 3.0 * 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(r.rejection_rate, 2.0 / 10.0);
}

}  // namespace
}  // namespace oocgemm::serve
