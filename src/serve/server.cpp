#include "serve/server.hpp"

#include "obs/metrics.hpp"

namespace oocgemm::serve {

namespace {

/// `seconds` from now; max() (no deadline) when it is not positive or lies
/// past the clock's range.
std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const double room =
      std::chrono::duration<double>(Clock::time_point::max() - now).count();
  if (!(seconds > 0.0) || !(seconds < room)) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

}  // namespace

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
  if (config_.calibrate.mode != calibrate::CalibrateMode::kOff) {
    calibrator_ = std::make_unique<calibrate::CostModelCalibrator>(
        config_.calibrate, &devices_);
    scheduler_.set_calibrator(calibrator_.get());
    calibrator_->Start();
  }
  scheduler_.Start();
}

SpgemmServer::~SpgemmServer() { Shutdown(); }

void SpgemmServer::Reject(std::uint64_t id, Status status,
                          const std::string& tenant,
                          const std::function<void(JobResult)>& done) {
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
  done(std::move(result));
}

std::future<JobResult> SpgemmServer::Submit(SpgemmJob job) {
  auto promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> future = promise->get_future();
  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  Submit(std::move(job), [this, promise](JobResult result) {
    promise->set_value(std::move(result));
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (--pending_ == 0) pending_cv_.notify_all();
  });
  return future;
}

void SpgemmServer::Submit(SpgemmJob job,
                          std::function<void(JobResult)> done) {
  const std::uint64_t id = next_id_.fetch_add(1);
  stats_.RecordSubmitted(job.options.tenant);

  {
    std::unique_lock<std::mutex> lock(pending_mutex_);
    if (shut_down_) {
      lock.unlock();
      Reject(id, Status::FailedPrecondition("server is shut down"),
             job.options.tenant, done);
      return;
    }
  }
  if (!job.a || !job.b) {
    Reject(id, Status::InvalidArgument("job is missing an operand"),
           job.options.tenant, done);
    return;
  }
  if (job.a->cols() != job.b->rows()) {
    Reject(id, Status::InvalidArgument("dimension mismatch"),
           job.options.tenant, done);
    return;
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
  // The job runs under the options admission planned it with, so the
  // scheduler's hand-over of demand.plan is a plan made for them.
  if (demand.plan != nullptr) job.options.exec.plan = demand.plan->options;
  Status admitted = admission_.Admit(demand, job.options.mode);
  if (!admitted.ok()) {
    Reject(id, std::move(admitted), job.options.tenant, done);
    return;
  }

  auto item = std::make_unique<ScheduledJob>();
  item->id = id;
  item->demand = demand;
  item->deadline = DeadlineAfter(job.options.timeout_seconds);
  item->done = std::move(done);
  const int priority = job.options.priority;
  item->job = std::move(job);

  if (!queue_.TryPush(priority, std::move(item))) {
    // A refused push leaves `item` with the caller.
    admission_.Release(demand);
    Reject(id,
           Status::ResourceExhausted("job queue is full (" +
                                     std::to_string(queue_.capacity()) +
                                     " pending)"),
           item->job.options.tenant, item->done);
  }
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
  // traffic, so a metrics exporter stopped after Shutdown sees the final
  // fitted state.
  if (calibrator_ != nullptr) calibrator_->Stop();
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
