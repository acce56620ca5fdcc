#include "serve/scheduler.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "core/batched.hpp"
#include "core/executors.hpp"
#include "core/multi_gpu.hpp"
#include "core/retry.hpp"
#include "serve/batching.hpp"

namespace oocgemm::serve {

namespace {

/// Plans with at most this many chunks count as small: a small kAuto job
/// takes a device only if one is free at dispatch, else runs on the CPU.
constexpr int kSmallJobChunks = 1;

bool NeedsDevice(core::ExecutionMode mode) {
  return mode == core::ExecutionMode::kGpuOutOfCore ||
         mode == core::ExecutionMode::kGpuSynchronous ||
         mode == core::ExecutionMode::kHybrid;
}

}  // namespace

Scheduler::Scheduler(core::DevicePool& devices, ThreadPool& pool,
                     SchedulerConfig config, JobQueue& queue,
                     AdmissionController& admission, ServerStats& stats)
    : devices_(devices),
      pool_(pool),
      config_(config),
      queue_(queue),
      admission_(admission),
      stats_(stats) {
  config_.num_workers = std::max(1, config_.num_workers);
  config_.cpu_lanes = std::max(1, config_.cpu_lanes);
  config_.max_batch_jobs = std::max(1, config_.max_batch_jobs);
  config_.max_devices_per_job = std::max(1, config_.max_devices_per_job);
  gpu_lanes_.assign(static_cast<std::size_t>(devices_.size()), 0.0);
  gpu_busy_.assign(static_cast<std::size_t>(devices_.size()), 0.0);
  cpu_lanes_.assign(static_cast<std::size_t>(config_.cpu_lanes), 0.0);
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Scheduler::Stop() {
  if (workers_.empty()) return;
  queue_.Close();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

double Scheduler::VirtualNow() const {
  std::unique_lock<std::mutex> lock(lanes_mutex_);
  double now = 0.0;
  for (double lane : gpu_lanes_) now = std::max(now, lane);
  for (double lane : cpu_lanes_) now = std::max(now, lane);
  return now;
}

std::vector<double> Scheduler::GpuLaneBusySeconds() const {
  std::unique_lock<std::mutex> lock(lanes_mutex_);
  return gpu_busy_;
}

void Scheduler::WorkerLoop() {
  while (auto popped = queue_.Pop()) {
    std::vector<std::unique_ptr<ScheduledJob>> batch;
    batch.push_back(std::move(*popped));
    if (config_.max_batch_jobs > 1 && BatchEligible(*batch.front())) {
      auto companions = PeelBatchCompanions(
          *batch.front(), queue_,
          static_cast<std::size_t>(config_.max_batch_jobs - 1));
      for (auto& c : companions) batch.push_back(std::move(c));
    }
    if (batch.size() == 1) {
      RunJob(*batch.front());
    } else {
      RunBatch(batch);
    }
  }
}

StatusOr<core::RunResult> Scheduler::Dispatch(
    core::ExecutionMode mode, const ScheduledJob& item,
    const core::ExecutorOptions& exec,
    const std::vector<vgpu::Device*>& devs) {
  const sparse::Csr& a = *item.job.a;
  const sparse::Csr& b = *item.job.b;
  switch (mode) {
    case core::ExecutionMode::kCpuOnly:
      return core::CpuMulticore(a, b, exec, pool_);
    case core::ExecutionMode::kGpuOutOfCore:
      return core::AsyncOutOfCore(*devs.front(), a, b, exec, pool_);
    case core::ExecutionMode::kGpuSynchronous:
      return core::SyncOutOfCore(*devs.front(), a, b, exec, pool_);
    case core::ExecutionMode::kHybrid: {
      if (devs.size() == 1) return core::Hybrid(*devs.front(), a, b, exec, pool_);
      auto mg = core::MultiGpuHybrid(devs, a, b, exec, pool_);
      if (!mg.ok()) return mg.status();
      return core::RunResult{std::move(mg->c), mg->stats.combined};
    }
    case core::ExecutionMode::kAuto:
      break;
  }
  return Status::Internal("unrouted execution mode");
}

std::pair<double, double> Scheduler::BookLanes(
    bool uses_cpu, const std::vector<int>& gpu_lanes, double arrival,
    double duration) {
  std::unique_lock<std::mutex> lock(lanes_mutex_);
  double start = arrival;
  std::size_t cpu_lane = 0;
  if (uses_cpu) {
    cpu_lane = static_cast<std::size_t>(
        std::min_element(cpu_lanes_.begin(), cpu_lanes_.end()) -
        cpu_lanes_.begin());
    start = std::max(start, cpu_lanes_[cpu_lane]);
  }
  for (int g : gpu_lanes) {
    start = std::max(start, gpu_lanes_[static_cast<std::size_t>(g)]);
  }
  const double finish = start + duration;
  if (uses_cpu) cpu_lanes_[cpu_lane] = finish;
  for (int g : gpu_lanes) {
    gpu_lanes_[static_cast<std::size_t>(g)] = finish;
    gpu_busy_[static_cast<std::size_t>(g)] += duration;
  }
  return {start, finish};
}

void Scheduler::FinishJob(ScheduledJob& item, JobResult result) {
  admission_.Release(item.demand);
  result.metrics.tenant = item.job.options.tenant;
  stats_.RecordOutcome(result.metrics);
  item.done(std::move(result));
}

bool Scheduler::FinishIfExpiredInQueue(ScheduledJob& item) {
  if (!core::DeadlinePassed(item.deadline)) return false;
  JobResult result;
  JobMetrics& m = result.metrics;
  m.id = item.id;
  m.virtual_arrival = item.job.options.virtual_arrival;
  m.outcome = JobOutcome::kTimedOut;
  // No executor ever saw this job: leave `executor` meaningless and say so
  // explicitly, so stats can separate queue expiries from mid-run timeouts.
  m.executed = false;
  result.status = Status::Cancelled(
      "timed out after " + std::to_string(item.job.options.timeout_seconds) +
      "s while queued");
  FinishJob(item, std::move(result));
  return true;
}

void Scheduler::RunJob(ScheduledJob& item) {
  if (FinishIfExpiredInQueue(item)) return;

  JobResult result;
  JobMetrics& m = result.metrics;
  m.id = item.id;
  m.virtual_arrival = item.job.options.virtual_arrival;
  m.failovers = item.failover_credit;

  const JobOptions& opts = item.job.options;

  auto finish = [&](JobOutcome outcome, Status status) {
    m.outcome = outcome;
    result.status = std::move(status);
    FinishJob(item, std::move(result));
  };

  // Execute with scheduler-owned retry-with-replan on the job's own budget
  // (exec.max_oom_attempts); each executor call inside makes one attempt.
  core::ExecutorOptions exec = opts.exec;
  exec.deadline = item.deadline;
  // Admission's plan is the job's plan: it runs on any device of the size
  // it was made for, and an overflow retry or a synchronous run plans again.
  exec.plan.prior = item.demand.plan;
  if (config_.kernel != kernels::AccumulatorKind::kAuto) {
    exec.spgemm.accumulator = config_.kernel;
  }
  // The job's own (static) split ratio, kept apart from the per-round
  // calibrated override so failover rounds never compound overrides.
  const double static_gpu_ratio = exec.gpu_ratio;

  core::ExecutionMode mode = opts.mode;
  std::vector<int> gpu_lane_indices;
  StatusOr<core::RunResult> run = Status::Internal("not attempted");
  WallTimer wall;

  // Failover rounds: a round whose run fails because a held device faulted
  // marks the dead lane unhealthy and re-plans the job from scratch — the
  // pool now excludes that lane, so the job lands on a survivor (or, for
  // kAuto, degrades to the CPU path once no healthy device fits).
  const int max_rounds = std::max(1, devices_.size() + 1);
  for (int round = 0;; ++round) {
    // Route.  kAuto mirrors core::Multiply's policy, plus graceful
    // degradation: a small job takes a device only if one is free this
    // instant.  The pool leases only devices whose capacity holds the job's
    // planned working set, so a job never lands on a device it could not
    // fit, and the exclusive lease gives it all of that device's memory.
    mode = opts.mode;
    gpu_lane_indices.clear();
    core::DevicePool::Slot slot;
    std::vector<core::DevicePool::Slot> span;
    const std::int64_t want = item.demand.planned_device_bytes();
    if (mode == core::ExecutionMode::kAuto) {
      if (!item.demand.gpu_feasible()) {
        mode = core::ExecutionMode::kCpuOnly;
      } else if (item.demand.planned_chunks() <= kSmallJobChunks) {
        slot = devices_.TryAcquire(want);
        mode = slot.held() ? core::ExecutionMode::kGpuOutOfCore
                           : core::ExecutionMode::kCpuOnly;
      } else {
        slot = devices_.Acquire(want);
        // Feasible by estimate but no pool device is actually large enough
        // (heterogeneous fleet, or every fitting lane failed): the CPU path
        // is the graceful route.
        mode = slot.held() ? core::ExecutionMode::kHybrid
                           : core::ExecutionMode::kCpuOnly;
      }
    } else if (NeedsDevice(mode)) {
      slot = devices_.Acquire(want);
      if (!slot.held()) {
        finish(JobOutcome::kFailed,
               Status::FailedPrecondition(
                   "no pool device can hold the job's planned working set (" +
                   std::to_string(want) + " bytes)"));
        return;
      }
    }

    // A multi-chunk Hybrid job may span extra devices that are free right
    // now (opportunistic — never waits).
    if (slot.held() && mode == core::ExecutionMode::kHybrid &&
        config_.max_devices_per_job > 1) {
      span = devices_.TryAcquireFree(config_.max_devices_per_job - 1, want);
    }

    std::vector<vgpu::Device*> devs;
    if (slot.held()) {
      devs.push_back(&slot.device());
      gpu_lane_indices.push_back(slot.index());
      for (auto& extra : span) {
        devs.push_back(&extra.device());
        gpu_lane_indices.push_back(extra.index());
      }
    }
    m.executor = mode;
    m.executed = true;
    m.device_index = slot.held() ? slot.index() : -1;
    m.devices_used = static_cast<int>(devs.size());

    // Calibrated dispatch overrides (apply mode only): the hybrid split
    // becomes the dispatched device's fitted S/(S+1) and the kernel router
    // sees its fitted cost scales.  A model that carries the static
    // constants reproduces the static values exactly (differential test).
    exec.gpu_ratio = static_gpu_ratio;
    exec.spgemm.routing = opts.exec.spgemm.routing;
    if (calibrator_ != nullptr) {
      if (auto model = calibrator_->apply_model()) {
        exec.gpu_ratio = model->GpuRatioFor(m.device_index, static_gpu_ratio);
        exec.spgemm.routing = model->RouteScalesFor(m.device_index);
      }
    }

    run = core::RetryWithReplan(
        exec,
        [&](const core::ExecutorOptions& o) {
          return Dispatch(mode, item, o, devs);
        },
        &m.attempts);

    // Inspect the held lanes' health BEFORE releasing them: a dead device
    // is pulled from the pool (no future lease lands on it) and a faulted
    // run becomes a failover round instead of a client-visible failure.
    // A dead span member under a *successful* run (core::MultiGpuHybrid
    // pruned it internally and re-dealt on the survivors) is still pulled.
    bool device_fault = false;
    auto inspect = [&](core::DevicePool::Slot& held) {
      if (!held.held() || held.device().health().ok()) return;
      if (!run.ok()) device_fault = true;
      if (held.device().dead()) {
        devices_.MarkUnhealthy(held.index());
        stats_.RecordDeviceFailure(held.index());
      }
    };
    inspect(slot);
    for (auto& extra : span) inspect(extra);

    for (auto& extra : span) extra.Release();
    slot.Release();

    // A run past its deadline is over, device fault or not.
    const bool expired = core::DeadlinePassed(item.deadline);
    if (!run.ok() && device_fault && !expired && round + 1 < max_rounds) {
      ++m.failovers;
      continue;
    }
    break;
  }
  m.wall_seconds = wall.Seconds();

  if (!run.ok()) {
    if (run.status().code() == StatusCode::kCancelled) {
      finish(JobOutcome::kTimedOut, run.status());
    } else {
      m.device_oom = run.status().code() == StatusCode::kOutOfMemory;
      finish(JobOutcome::kFailed, run.status());
    }
    return;
  }

  m.stats = run->stats;
  m.exec_seconds = run->stats.total_seconds;
  const bool uses_cpu = mode == core::ExecutionMode::kCpuOnly ||
                        mode == core::ExecutionMode::kHybrid;
  auto [vstart, vfinish] =
      BookLanes(uses_cpu, gpu_lane_indices, m.virtual_arrival, m.exec_seconds);
  m.virtual_start = vstart;
  m.virtual_finish = vfinish;
  m.queue_seconds = vstart - m.virtual_arrival;
  m.latency_seconds = vfinish - m.virtual_arrival;
  result.c = std::move(run.value().c);
  finish(JobOutcome::kCompleted, Status::Ok());
}

void Scheduler::RunBatch(std::vector<std::unique_ptr<ScheduledJob>>& batch) {
  // Sweep members whose deadline passed while queued before paying for the
  // device; a member whose deadline passes later stops at a segment
  // boundary inside the batched executor.
  std::vector<std::unique_ptr<ScheduledJob>> live;
  live.reserve(batch.size());
  for (auto& item : batch) {
    if (!FinishIfExpiredInQueue(*item)) live.push_back(std::move(item));
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    RunJob(*live.front());
    return;
  }

  auto fall_back = [&] {
    stats_.RecordBatchFallback();
    for (auto& item : live) RunJob(*item);
  };

  // The batch pins to exactly one device: its persistent GpuWorkspace and
  // resident B panels are that device's memory, so members cannot migrate
  // mid-batch.  One lease covers the whole batch: the members run back to
  // back on a shared workspace, so the batch's device demand is the max —
  // not the sum — of the members'.
  const std::int64_t want = BatchPlannedDeviceBytes(live);
  core::DevicePool::Slot slot = devices_.Acquire(want);
  if (!slot.held()) {
    // No pool device is large enough for the batch's shared workspace; the
    // members re-run individually where per-job policy applies.
    fall_back();
    return;
  }

  // The leader's executor config drives the batch; per-member deadlines and
  // admission plans go through the specs.  Pool overflow replans the whole
  // batch with the same policy as the per-job path, on the leader's budget.
  const ScheduledJob& leader = *live.front();
  core::ExecutorOptions exec = leader.job.options.exec;
  exec.deadline = std::chrono::steady_clock::time_point::max();
  if (config_.kernel != kernels::AccumulatorKind::kAuto) {
    exec.spgemm.accumulator = config_.kernel;
  }
  // The batch pins to one device, so the routing override is that device's.
  if (calibrator_ != nullptr) {
    if (auto model = calibrator_->apply_model()) {
      exec.spgemm.routing = model->RouteScalesFor(slot.index());
    }
  }
  std::vector<core::BatchJobSpec> specs;
  specs.reserve(live.size());
  for (auto& item : live) {
    core::BatchJobSpec spec;
    spec.a = item->job.a.get();
    spec.deadline = item->deadline;
    spec.plan = item->demand.plan;
    specs.push_back(spec);
  }

  int attempts = 0;
  WallTimer wall;
  StatusOr<core::BatchedRunResult> run = core::RetryWithReplan(
      exec,
      [&](const core::ExecutorOptions& o) {
        return core::BatchedOutOfCore(slot.device(), specs, *leader.job.b, o,
                                      pool_);
      },
      &attempts);
  const double wall_seconds = wall.Seconds();

  const int batch_device = slot.index();

  // Inspect the batch device before releasing the lease: a dead lane is
  // pulled from the pool so the members' individual re-runs (and everyone
  // else) re-plan onto the survivors.
  bool device_fault = false;
  if (!run.ok() && !slot.device().health().ok()) {
    device_fault = true;
    if (slot.device().dead()) {
      devices_.MarkUnhealthy(batch_device);
      stats_.RecordDeviceFailure(batch_device);
    }
  }

  slot.Release();

  if (!run.ok()) {
    // Whole-batch failure (planning error, unrecoverable overflow, device
    // fault): the members re-run individually where per-job policy applies.
    // A device fault counts as one failover for every member that re-runs.
    if (device_fault) {
      for (auto& item : live) ++item->failover_credit;
    }
    fall_back();
    return;
  }
  stats_.RecordBatch(static_cast<std::int64_t>(live.size()));

  // The batch occupies its device's lane as one span; it cannot start
  // before all members arrived, and each member finishes at its own offset.
  double arrival = 0.0;
  for (auto& item : live) {
    arrival = std::max(arrival, item->job.options.virtual_arrival);
  }
  const double start =
      BookLanes(false, {batch_device}, arrival, run->batch_makespan).first;

  for (std::size_t i = 0; i < live.size(); ++i) {
    ScheduledJob& item = *live[i];
    core::BatchJobResult& jr = run.value().jobs[i];
    JobResult result;
    JobMetrics& m = result.metrics;
    m.id = item.id;
    m.virtual_arrival = item.job.options.virtual_arrival;
    m.executed = true;
    m.executor = core::ExecutionMode::kGpuOutOfCore;
    m.device_index = batch_device;
    m.devices_used = 1;
    m.batch_size = static_cast<int>(live.size());
    m.attempts = attempts;
    m.wall_seconds = wall_seconds / static_cast<double>(live.size());
    if (!jr.status.ok()) {
      m.outcome = jr.status.code() == StatusCode::kCancelled
                      ? JobOutcome::kTimedOut
                      : JobOutcome::kFailed;
      m.device_oom = jr.status.code() == StatusCode::kOutOfMemory;
      result.status = std::move(jr.status);
      FinishJob(item, std::move(result));
      continue;
    }
    m.stats = jr.run.stats;
    m.exec_seconds = jr.run.stats.total_seconds;
    m.virtual_start = start;
    m.virtual_finish = start + std::max(0.0, jr.run.stats.total_seconds);
    m.queue_seconds = m.virtual_start - m.virtual_arrival;
    m.latency_seconds = m.virtual_finish - m.virtual_arrival;
    m.outcome = JobOutcome::kCompleted;
    result.status = Status::Ok();
    result.c = std::move(jr.run.c);
    FinishJob(item, std::move(result));
  }
}

}  // namespace oocgemm::serve
