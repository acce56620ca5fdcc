// Rolls per-job metrics into the serving-level report: throughput on the
// virtual timeline, latency percentiles, rejection and failure rates —
// exported as JSON so the perf trajectory of the serving path is tracked
// the same way the paper figures are.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/job.hpp"

namespace oocgemm::serve {

/// One pool device's slice of the serving report.  The job counts come
/// from JobMetrics::device_index; the lease and contention counters are
/// read off core::DevicePool at snapshot time.
struct DeviceServeReport {
  int index = 0;
  /// Completed jobs whose primary device this was (a spanned Hybrid job
  /// counts only toward its primary device's tally).
  std::int64_t completed = 0;
  std::int64_t lease_count = 0;
  std::int64_t contention_count = 0;
  std::int64_t capacity_bytes = 0;
  /// Times the scheduler declared this lane dead mid-run (fault injection
  /// or a genuine device loss) and pulled it from the pool.
  std::int64_t failures = 0;
  /// Pool health at snapshot time; false once the lane was pulled.
  bool healthy = true;
  /// Virtual seconds this device's lane was booked, and that over the
  /// report's virtual makespan (0 when the makespan is 0).
  double busy_seconds = 0.0;
  double utilization = 0.0;
};

/// One tenant's slice of the serving report.  Tenant ids are arbitrary
/// caller-supplied bytes; every emitter escapes them (JsonEscape, the prom
/// label escaper), so the slice is safe to render whatever the id holds.
struct TenantServeReport {
  std::string tenant;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  std::int64_t failed = 0;
};

struct ServerReport {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  /// Subset of timed_out that never reached an executor (expired while
  /// still queued) — distinguished via JobMetrics::executed.
  std::int64_t timed_out_in_queue = 0;
  std::int64_t failed = 0;
  std::int64_t device_oom_failures = 0;  // must stay 0: admission's contract
  std::int64_t retries = 0;              // scheduler-level re-plans
  /// Failover rounds: jobs re-planned off a faulted lane onto the
  /// survivors (or the CPU path).  Sums JobMetrics::failovers.
  std::int64_t failed_over = 0;
  /// Devices the scheduler pulled from the pool after a mid-run fault
  /// (each pull counts once, even if several jobs held the lane's span).
  std::int64_t device_failures = 0;

  // Executor mix of completed jobs.
  std::int64_t via_cpu = 0;
  std::int64_t via_gpu = 0;
  std::int64_t via_hybrid = 0;
  /// Completed jobs that spanned more than one pool device
  /// (core::MultiGpuHybrid dispatches).
  std::int64_t via_multi_device = 0;

  /// Per-device sections, one per pool device (index-aligned).  Filled by
  /// SpgemmServer::Report(); a bare ServerStats::Snapshot() sizes the
  /// vector to the largest device index seen and fills the job counts only.
  std::vector<DeviceServeReport> devices;

  /// Per-tenant sections, name-sorted; jobs with an empty tenant id are
  /// unattributed and appear only in the aggregate counters.
  std::vector<TenantServeReport> tenants;

  // Operand-aware batching.
  std::int64_t batches = 0;       // multi-job device runs dispatched
  std::int64_t batched_jobs = 0;  // jobs that rode in those runs
  double avg_batch_size = 0.0;    // batched_jobs / batches
  std::int64_t batch_fallbacks = 0;  // batches that failed and re-ran per job
  /// Summed B-column-panel traffic of completed jobs' winning runs.
  std::int64_t b_panel_uploads = 0;
  std::int64_t b_panel_hits = 0;

  /// Summed transfer bytes of completed jobs' winning runs (the serving
  /// layer's view of the device counters; the obs reconciliation test
  /// checks the two agree exactly).
  std::int64_t transfer_bytes_h2d = 0;
  std::int64_t transfer_bytes_d2h = 0;

  /// Always 0: the exclusive device lease is the only device-memory
  /// ledger, and a lease cannot be short of bytes.  Kept, and left out of
  /// ToJson, because the benchmark suite still reads the field.
  std::int64_t reserve_shortfalls = 0;

  // Virtual-timeline throughput: completed jobs over the busy span
  // [min arrival, max finish].
  double virtual_makespan_seconds = 0.0;
  double jobs_per_second = 0.0;
  double total_gflops = 0.0;  // summed flops / makespan

  // Virtual latency (arrival -> finish) percentiles over completed jobs.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
  double queue_p95 = 0.0;

  double rejection_rate = 0.0;  // rejected / submitted

  std::string ToJson() const;
  std::string DebugString() const;
};

/// Folds each outcome into running totals as it is recorded, so memory
/// grows with the completed jobs' latency samples alone, not with a log of
/// every job.  Thread-safe.
class ServerStats {
 public:
  ServerStats();

  void RecordSubmitted(const std::string& tenant = std::string());
  void RecordOutcome(const JobMetrics& metrics);
  /// A multi-job device run was dispatched with `members` jobs.
  void RecordBatch(std::int64_t members);
  /// A batch failed as a whole and its members re-ran individually.
  void RecordBatchFallback();
  /// The scheduler found pool device `index` dead mid-run and pulled it.
  void RecordDeviceFailure(int index);

  ServerReport Snapshot() const;

 private:
  /// Default-registry instruments mirroring the report's counters, so the
  /// serving layer is scrapable live (the report only exists at snapshot
  /// time).  Resolved once in the constructor; recording is lock-free.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* timed_out = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* device_failures = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batched_jobs = nullptr;
    obs::Counter* batch_fallbacks = nullptr;
    obs::Counter* h2d_bytes = nullptr;
    obs::Counter* d2h_bytes = nullptr;
    obs::Counter* flops = nullptr;
    obs::LogBucketHistogram* latency = nullptr;
    obs::LogBucketHistogram* queue_wait = nullptr;
    obs::LogBucketHistogram* batch_size = nullptr;
  };
  Metrics metrics_;

  /// Requires mutex_ held.  Device section `index`, appending sections up
  /// to it.
  DeviceServeReport& DeviceLocked(int index);
  /// Requires mutex_ held.  The section of `tenant`, inserted in name
  /// order when new.
  TenantServeReport& TenantLocked(const std::string& tenant);

  mutable std::mutex mutex_;
  /// Every count and sum of the report; Snapshot() adds the rates and
  /// percentiles derived from them and from the fields below.
  ServerReport report_;
  /// Completed jobs' virtual latency and queue wait, in completion order:
  /// the exact percentiles need every sample.
  std::vector<double> latencies_;
  std::vector<double> queue_waits_;
  /// Completed jobs' summed flops and virtual span [min arrival, max
  /// finish].
  double flops_ = 0.0;
  double min_arrival_ = 0.0;
  double max_finish_ = 0.0;
};

}  // namespace oocgemm::serve
