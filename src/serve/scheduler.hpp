// The scheduler: worker threads that drain the admitted-job queue and
// multiplex jobs over the node's processors.
//
//  * Device work goes through core::DevicePool, which grants one exclusive
//    lease per device (each virtual GPU's timeline and allocator are
//    single-tenant state).  CPU-only jobs bypass the pool and run
//    concurrently on the shared thread pool.
//  * Placement: GPU-eligible work goes to the first free device, in the
//    pool's rate-hint-then-index order, whose capacity holds the job's
//    planned working set.  The lease is the job's whole device-memory
//    budget: the panel plan sizes every buffer under that capacity.  When
//    every such device is busy, single-chunk kAuto jobs degrade to the CPU
//    and larger ones wait their turn.  With max_devices_per_job > 1, a
//    multi-chunk Hybrid job additionally grabs whatever other candidates
//    are free at dispatch and spans them via core::MultiGpuHybrid.
//  * An operand-sharing batch pins to exactly one device: its persistent
//    GpuWorkspace and resident B panels are that device's memory.
//  * Pool exhaustion retries here, not in the executor: core::RetryWithReplan
//    doubles the plan's nnz safety factor before each re-plan, bounded by
//    the job's exec.max_oom_attempts, and each executor call makes one
//    attempt.
//  * A job's timeout is a wall-clock deadline stamped at submission: the
//    scheduler checks it before running a queued job, and the executors
//    check it at chunk and segment boundaries and between retry attempts.
//    No thread watches the clock.
//  * A job resolves where it finishes: its completion callback runs on the
//    worker that finished it.
//
// Completed jobs are booked onto virtual *lanes* — one GPU lane per pool
// device, a few CPU lanes — continuing the repository's virtual-time
// methodology: a job starts at max(its arrival, lane availability) and
// occupies its lane(s) for the run's virtual makespan (Hybrid occupies a
// CPU lane and its device lane(s) together).  Throughput and latency
// percentiles in ServerStats come from this timeline, so they compose with
// every other virtual-seconds figure in the repo.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate/calibrator.hpp"
#include "common/thread_pool.hpp"
#include "core/device_pool.hpp"
#include "kernels/accumulators.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/server_stats.hpp"

namespace oocgemm::serve {

struct SchedulerConfig {
  /// Concurrent scheduler workers (each runs one job at a time).
  int num_workers = 3;
  /// Virtual CPU lanes for the booking timeline.  Roughly "how many CPU
  /// jobs the socket co-runs at full cost-model rate" — an approximation;
  /// keep it <= num_workers - 1 so a lane always has a worker behind it.
  int cpu_lanes = 2;

  /// Upper bound on the members of an operand-sharing batch dispatched as
  /// one device run (core::BatchedOutOfCore); 1 disables batch formation.
  /// A worker that pops a GPU-eligible job peels up to max_batch_jobs - 1
  /// queued companions sharing its B operand.
  int max_batch_jobs = 1;

  /// Devices one multi-chunk Hybrid job may span when extra pool devices
  /// are free at dispatch (via core::MultiGpuHybrid).  1 keeps Algorithm
  /// 4's single-GPU hybrid; spanning is opportunistic — it never waits for
  /// a second device, so queued neighbours are not starved.
  int max_devices_per_job = 1;

  /// Accumulator strategy forced on every job's kernels (`--kernel`).
  /// kAuto keeps per-row-group registry routing; any other value
  /// overrides the job's own executor options at dispatch.
  kernels::AccumulatorKind kernel = kernels::AccumulatorKind::kAuto;
};

/// A job after admission, en route to a worker.
struct ScheduledJob {
  std::uint64_t id = 0;
  SpgemmJob job;
  JobDemand demand;
  /// Submission time plus the job's timeout; max() when it has none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Called exactly once with the job's result, on the worker thread that
  /// resolved it.
  std::function<void(JobResult)> done;
  /// Failovers inherited from a batch whose device faulted: when the batch
  /// falls back to per-job runs, each member starts its metrics from here.
  int failover_credit = 0;
};

using JobQueue = BoundedJobQueue<std::unique_ptr<ScheduledJob>>;

class Scheduler {
 public:
  Scheduler(core::DevicePool& devices, ThreadPool& pool,
            SchedulerConfig config, JobQueue& queue,
            AdmissionController& admission, ServerStats& stats);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void Start();
  /// Closes the queue, lets workers drain every queued job, joins.
  void Stop();

  /// The server's cost-model calibrator (may be null).  Workers tick it on
  /// the completion path (MaybeTick).  In apply mode the dispatch path
  /// overrides each job's hybrid split and kernel-routing scales with the
  /// dispatched device's fitted state.  Set before Start().
  void set_calibrator(calibrate::CostModelCalibrator* calibrator) {
    calibrator_ = calibrator;
  }

  core::DevicePool& device_pool() { return devices_; }
  const core::DevicePool& device_pool() const { return devices_; }
  /// Cumulative booked virtual seconds of each device lane (utilization
  /// numerator of the per-device report sections).
  std::vector<double> GpuLaneBusySeconds() const;

 private:
  void WorkerLoop();
  void RunJob(ScheduledJob& item);
  /// Runs an operand-sharing batch (leader first) through
  /// core::BatchedOutOfCore under one lease; falls back to per-job RunJob
  /// when the batch fails as a whole.  Resolves every member.
  void RunBatch(std::vector<std::unique_ptr<ScheduledJob>>& batch);
  /// True when the job's deadline passed while it was still queued;
  /// finishes it with the not-executed marker when so.
  bool FinishIfExpiredInQueue(ScheduledJob& item);
  /// Completes a job: releases admission, records stats, calls its `done`,
  /// then runs a calibrator tick if one is due.
  void FinishJob(ScheduledJob& item, JobResult result);
  StatusOr<core::RunResult> Dispatch(core::ExecutionMode mode,
                                     const ScheduledJob& item,
                                     const core::ExecutorOptions& exec,
                                     const std::vector<vgpu::Device*>& devs);
  /// Books `duration` for the job on a CPU lane (when `uses_cpu`) and the
  /// listed device lanes; returns {start, finish}.
  std::pair<double, double> BookLanes(bool uses_cpu,
                                      const std::vector<int>& gpu_lanes,
                                      double arrival, double duration);

  core::DevicePool& devices_;
  ThreadPool& pool_;
  SchedulerConfig config_;
  JobQueue& queue_;
  AdmissionController& admission_;
  ServerStats& stats_;
  calibrate::CostModelCalibrator* calibrator_ = nullptr;

  std::vector<std::thread> workers_;

  // Virtual booking lanes: one per pool device, plus the CPU lanes.
  mutable std::mutex lanes_mutex_;
  std::vector<double> gpu_lanes_;
  std::vector<double> gpu_busy_;  // summed booked durations per device lane
  std::vector<double> cpu_lanes_;
};

}  // namespace oocgemm::serve
