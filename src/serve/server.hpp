// The serving runtime's front door: submit SpgemmJobs, get a completion
// callback or a future.
//
//   vgpu::Device device(vgpu::ScaledV100Properties(10));
//   ThreadPool pool;
//   serve::SpgemmServer server(device, pool);
//   auto future = server.Submit({a, b, {.priority = 1}});
//   serve::JobResult r = future.get();    // r.c, r.metrics, r.status
//   server.Submit({a, b, {}}, [](serve::JobResult r) { /* ... */ });
//
// Multi-device nodes hand the server a fleet instead; the scheduler then
// leases each device-side job the first free device that fits it (see
// core::DevicePool):
//
//   serve::SpgemmServer server({&dev0, &dev1, &dev2}, pool);
//
// Submission runs validation, demand estimation and admission control on
// the caller's thread (cheap — estimator plus panel planning, and the plan
// made there is the one the job runs on a device of that size); accepted
// jobs enter the bounded priority queue, rejected ones resolve at once, on
// the submitting thread, with the rejection status.  Every submitted job
// resolves exactly once — there is no silent drop path.
// Feasibility is judged against the *largest* pool device: a job only the
// big device can hold is admitted, and placement keeps it off the small
// ones.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calibrate/calibrator.hpp"
#include "common/thread_pool.hpp"
#include "core/device_pool.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/server_stats.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::serve {

struct ServerConfig {
  SchedulerConfig scheduler;
  /// Bound of the pending-job queue; pushes beyond it are rejections.
  std::size_t max_queue = 64;
  AdmissionLimits admission;
  /// How Submit prices jobs: kExact runs the full analysis pass per
  /// submission; kEstimate prices from the OCEAN sampling estimator (with
  /// per-job fallback to exact when the sample is unreliable) and plans the
  /// job from the same estimate.  Either way the job runs admission's plan.
  AdmissionMode admission_mode = AdmissionMode::kExact;
  /// Sampling estimator configuration for kEstimate (seed, sample rate,
  /// variance cutoff).
  estimate::EstimatorOptions estimator;
  /// Applied when a job's own timeout_seconds is 0.
  double default_timeout_seconds = 0.0;

  /// When non-empty, per-instance metrics (the queue-depth gauge) carry a
  /// {"shard": instance_label} label instead of sharing the process-wide
  /// unlabeled point.  A fleet of in-process servers needs this: unlabeled,
  /// every shard's queue would scribble over one gauge.
  std::string instance_label;

  /// Closed-loop cost-model calibration (`--calibrate`): kOff = no
  /// calibrator; kObserve = fit live rates and export oocgemm_calibrate_*
  /// metrics but keep every decision static; kApply = admission latency
  /// estimates, hybrid split, placement tie-breaks and kernel routing all
  /// consume the fitted model.
  calibrate::CalibratorConfig calibrate;
};

/// Cheap routing-time health summary of one server, read lock-free off the
/// queue and the device pool.  The fleet router probes shards with this
/// before placing a job, so obviously-doomed placements (dead pool, queue
/// at the rejection threshold) are skipped instead of bounced.
struct ShardProbe {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  int healthy_devices = 0;
  int total_devices = 0;
  bool accepting = false;  // false once Shutdown began

  /// Routable = accepting, at least one healthy device, and queue depth
  /// under `pressure_limit` of capacity (1.0 = only skip when full).
  bool Routable(double pressure_limit = 1.0) const {
    const double limit = queue_capacity == 0
                             ? 0.0
                             : pressure_limit *
                                   static_cast<double>(queue_capacity);
    return accepting && healthy_devices > 0 &&
           static_cast<double>(queue_depth) < limit;
  }
};

class SpgemmServer {
 public:
  /// Single-device node (the PR 1-2 shape): a pool of one.
  SpgemmServer(vgpu::Device& device, ThreadPool& pool,
               ServerConfig config = {});
  /// Multi-device node; the server does not own the devices.
  SpgemmServer(std::vector<vgpu::Device*> devices, ThreadPool& pool,
               ServerConfig config = {});
  ~SpgemmServer();

  SpgemmServer(const SpgemmServer&) = delete;
  SpgemmServer& operator=(const SpgemmServer&) = delete;

  /// Thread-safe.  Calls `done` exactly once: with the product, or with a
  /// rejection/timeout/failure status in JobResult::status.  It runs on the
  /// thread that resolved the job — the caller's for a rejection, else the
  /// scheduler worker that finished it — so it must neither block nor
  /// throw.
  void Submit(SpgemmJob job, std::function<void(JobResult)> done);
  /// The same, resolving a future instead; Drain() waits for these.
  std::future<JobResult> Submit(SpgemmJob job);

  /// Blocks until every job submitted so far for a future has resolved it.
  void Drain();

  /// Stops accepting, drains the queue, joins the workers.  Idempotent;
  /// also run by the destructor.
  void Shutdown();

  /// Snapshot of the aggregate report plus one DeviceServeReport per pool
  /// device (lease and contention counters read off the device pool,
  /// lane busy seconds and utilization from the scheduler's timeline).
  ServerReport Report() const;
  /// Routing-time health summary; thread-safe and cheap (two atomic-ish
  /// reads), suitable for the fleet router's per-submit probe.
  ShardProbe Probe() const;
  core::DevicePool& device_pool() { return devices_; }
  const core::DevicePool& device_pool() const { return devices_; }
  const ServerConfig& config() const { return config_; }
  /// Non-null while calibrate.mode != kOff (tests drive TickNow()).
  calibrate::CostModelCalibrator* calibrator() { return calibrator_.get(); }

 private:
  void Reject(std::uint64_t id, Status status, const std::string& tenant,
              const std::function<void(JobResult)>& done);

  core::DevicePool devices_;
  ServerConfig config_;
  ServerStats stats_;
  AdmissionController admission_;
  JobQueue queue_;
  Scheduler scheduler_;
  std::unique_ptr<calibrate::CostModelCalibrator> calibrator_;

  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::int64_t pending_ = 0;
  bool shut_down_ = false;
};

}  // namespace oocgemm::serve
