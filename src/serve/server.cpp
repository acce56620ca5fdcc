#include "serve/server.hpp"

namespace oocgemm::serve {

SpgemmServer::SpgemmServer(vgpu::Device& device, ThreadPool& pool,
                           ServerConfig config)
    : SpgemmServer(std::vector<vgpu::Device*>{&device}, pool,
                   std::move(config)) {}

SpgemmServer::SpgemmServer(std::vector<vgpu::Device*> devices,
                           ThreadPool& pool, ServerConfig config)
    : devices_(std::move(devices)),
      config_(config),
      admission_(config.admission),
      queue_(config.max_queue),
      scheduler_(devices_, pool, config.scheduler, queue_, admission_,
                 stats_) {
  const obs::Labels queue_labels =
      config_.instance_label.empty()
          ? obs::Labels{}
          : obs::Labels{{"shard", config_.instance_label}};
  queue_.set_depth_gauge(&obs::MetricsRegistry::Default().GetGauge(
      "oocgemm_serve_queue_depth", queue_labels,
      "Jobs waiting in the bounded priority queue"));
  if (!config_.metrics_path.empty()) {
    obs::Snapshotter::Options opts;
    opts.interval_seconds = config_.metrics_interval_seconds;
    opts.prometheus_path = config_.metrics_path;
    opts.json_path = config_.metrics_path + ".json";
    snapshotter_ = std::make_unique<obs::Snapshotter>(
        obs::MetricsRegistry::Default(), std::move(opts));
  }
  scheduler_.set_on_job_done([this] {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (--pending_ == 0) pending_cv_.notify_all();
  });
  if (config_.calibrate.mode != calibrate::CalibrateMode::kOff) {
    calibrator_ = std::make_unique<calibrate::CostModelCalibrator>(
        config_.calibrate, &devices_);
    scheduler_.set_calibrator(calibrator_.get());
    calibrator_->Start();
  }
  scheduler_.Start();
}

SpgemmServer::~SpgemmServer() { Shutdown(); }

std::future<JobResult> SpgemmServer::Reject(std::uint64_t id, Status status,
                                            const std::string& tenant) {
  static obs::Counter& rejects = obs::MetricsRegistry::Default().GetCounter(
      "oocgemm_serve_admission_rejects", {},
      "Submissions refused before reaching the queue");
  rejects.Add(1);
  JobResult result;
  result.status = std::move(status);
  result.metrics.id = id;
  result.metrics.tenant = tenant;
  result.metrics.outcome = JobOutcome::kRejected;
  stats_.RecordOutcome(result.metrics);
  std::promise<JobResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::future<JobResult> SpgemmServer::Submit(SpgemmJob job) {
  const std::uint64_t id = next_id_.fetch_add(1);
  stats_.RecordSubmitted(job.options.tenant);

  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (shut_down_) {
      lock.unlock();
      return Reject(id, Status::FailedPrecondition("server is shut down"),
                    job.options.tenant);
    }
  }
  if (!job.a || !job.b) {
    return Reject(id, Status::InvalidArgument("job is missing an operand"),
                  job.options.tenant);
  }
  if (job.a->cols() != job.b->rows()) {
    return Reject(id, Status::InvalidArgument("dimension mismatch"),
                  job.options.tenant);
  }
  if (job.options.timeout_seconds <= 0.0) {
    job.options.timeout_seconds = config_.default_timeout_seconds;
  }

  const bool use_estimate = config_.admission_mode == AdmissionMode::kEstimate;
  // In apply mode admission prices latency at the fitted rates; observe
  // mode keeps the static estimate (apply_model() is null there).
  std::shared_ptr<const calibrate::CalibratedModel> model =
      calibrator_ != nullptr ? calibrator_->apply_model() : nullptr;
  JobDemand demand =
      use_estimate
          ? EstimateJobDemandSampled(*job.a, *job.b,
                                     devices_.max_device_capacity(),
                                     job.options.exec, config_.estimator,
                                     model.get())
          : EstimateJobDemand(*job.a, *job.b, devices_.max_device_capacity(),
                              job.options.exec, model.get());
  obs::MetricsRegistry::Default()
      .GetCounter("oocgemm_estimate_admissions_total",
                  {{"mode", demand.estimated ? "estimate" : "exact"}},
                  "Admission decisions by the demand path that priced them "
                  "(estimate-mode fallbacks count as exact)")
      .Add(1);
  if (demand.estimated) {
    // The run should plan and order chunks from the estimate admission
    // already paid for — not re-run the exact analysis.
    job.options.exec.plan.use_sampling_estimator = true;
    job.options.exec.plan.estimator_seed = config_.estimator.seed;
    job.options.exec.plan.estimate_hint = demand.estimate;
  }
  Status admitted = admission_.Admit(demand, job.options.mode);
  if (!admitted.ok()) {
    return Reject(id, std::move(admitted), job.options.tenant);
  }

  auto item = std::make_unique<ScheduledJob>();
  item->id = id;
  item->demand = demand;
  item->submit_wall = std::chrono::steady_clock::now();
  item->cancel = std::make_shared<std::atomic<bool>>(false);
  const int priority = job.options.priority;
  const std::string tenant = job.options.tenant;
  item->job = std::move(job);
  std::future<JobResult> future = item->promise.get_future();

  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  if (!queue_.TryPush(priority, std::move(item))) {
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      if (--pending_ == 0) pending_cv_.notify_all();
    }
    admission_.Release(demand);
    return Reject(id,
                  Status::ResourceExhausted(
                      "job queue is full (" +
                      std::to_string(queue_.capacity()) + " pending)"),
                  tenant);
  }
  return future;
}

void SpgemmServer::Drain() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

void SpgemmServer::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    shut_down_ = true;
  }
  scheduler_.Stop();  // drains the queue: every accepted job resolves
  // Calibrator after the scheduler: its final tick folds in the last jobs'
  // traffic, and the snapshotter below then exports the final fitted state.
  if (calibrator_ != nullptr) calibrator_->Stop();
  // Final snapshot after the scheduler quiesced: the exported files end at
  // the terminal counter state the reconciliation checks compare against.
  if (snapshotter_ != nullptr) snapshotter_->Stop();
}

ShardProbe SpgemmServer::Probe() const {
  ShardProbe p;
  p.queue_depth = queue_.size();
  p.queue_capacity = queue_.capacity();
  p.healthy_devices = devices_.healthy_count();
  p.total_devices = devices_.size();
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    p.accepting = !shut_down_;
  }
  return p;
}

ServerReport SpgemmServer::Report() const {
  ServerReport r = stats_.Snapshot();
  const std::size_t n = static_cast<std::size_t>(devices_.size());
  if (r.devices.size() < n) r.devices.resize(n);
  const std::vector<double> busy = scheduler_.GpuLaneBusySeconds();
  for (std::size_t i = 0; i < n; ++i) {
    DeviceServeReport& d = r.devices[i];
    d.index = static_cast<int>(i);
    d.lease_count = devices_.lease_count(static_cast<int>(i));
    d.contention_count = devices_.contention_count(static_cast<int>(i));
    d.capacity_bytes = devices_.device(static_cast<int>(i)).capacity();
    d.healthy = devices_.health(static_cast<int>(i)) ==
                core::DevicePool::DeviceHealth::kHealthy;
    if (i < busy.size()) d.busy_seconds = busy[i];
    if (r.virtual_makespan_seconds > 0.0) {
      d.utilization = d.busy_seconds / r.virtual_makespan_seconds;
    }
  }
  return r;
}

}  // namespace oocgemm::serve
