#include "serve/admission.hpp"

#include <numeric>

#include "common/format.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "partition/panel_plan.hpp"
#include "sparse/analysis.hpp"
#include "sparse/types.hpp"

namespace oocgemm::serve {

namespace {

/// Saturating host-bytes estimate of the assembled product.
std::int64_t EstBytesOut(double est_nnz_out, sparse::index_t rows) {
  const double entry_bytes = static_cast<double>(sizeof(sparse::index_t) +
                                                 sizeof(sparse::value_t));
  return common::SaturatingAdd(
      common::SaturatingCast(est_nnz_out * entry_bytes),
      common::SaturatingMul(
          static_cast<std::int64_t>(rows) + 1,
          static_cast<std::int64_t>(sizeof(sparse::offset_t))));
}

/// Plans the job under `plan_opts`, always anew (a prior is dropped).
void FillPlanDemand(
    const sparse::Csr& a, const sparse::Csr& b, std::int64_t device_capacity,
    partition::PlanOptions plan_opts,
    std::shared_ptr<const estimate::ProductEstimate> estimate, JobDemand* d) {
  plan_opts.prior = nullptr;
  auto plan = partition::PlanPanels(a, b, device_capacity, plan_opts,
                                    std::move(estimate));
  if (plan.ok()) {
    d->plan = std::make_shared<const partition::PanelPlan>(
        std::move(plan).value());
  }
}

/// Prices the demand's modeled latency at the model's rates (static rates
/// when `model` is null).  The static reference uses the job's own cost
/// model, so admission and execution agree on what "static" means.
void FillExecSeconds(const core::ExecutorOptions& exec,
                     const calibrate::CalibratedModel* model, JobDemand* d) {
  const calibrate::ExecRates static_rates =
      calibrate::StaticExecRates(exec.spgemm.cost_model);
  const calibrate::ExecRates rates =
      model != nullptr ? model->AdmissionRates(static_rates) : static_rates;
  d->est_exec_seconds = calibrate::EstimateExecSeconds(
      d->flops, common::SaturatingAdd(d->bytes_a, d->bytes_b),
      d->est_bytes_out, d->gpu_feasible(), d->planned_chunks(), rates);
}

void RecordAnalysisSeconds(const char* mode, double seconds) {
  obs::MetricsRegistry::Default()
      .GetDoubleCounter(
          "oocgemm_estimate_analysis_seconds_total", {{"mode", mode}},
          "Host wall seconds spent in admission demand analysis, by path; "
          "exact minus estimate at equal job counts is the analysis time "
          "the estimator saves")
      .Add(seconds);
}

}  // namespace

const char* AdmissionModeName(AdmissionMode mode) {
  switch (mode) {
    case AdmissionMode::kExact: return "exact";
    case AdmissionMode::kEstimate: return "estimate";
  }
  return "unknown";
}

bool ParseAdmissionMode(const std::string& text, AdmissionMode* mode) {
  if (text == "exact") {
    *mode = AdmissionMode::kExact;
    return true;
  }
  if (text == "estimate") {
    *mode = AdmissionMode::kEstimate;
    return true;
  }
  return false;
}

JobDemand EstimateJobDemand(const sparse::Csr& a, const sparse::Csr& b,
                            std::int64_t device_capacity,
                            const core::ExecutorOptions& exec,
                            const calibrate::CalibratedModel* model) {
  WallTimer timer;
  JobDemand d;
  d.flops = sparse::TotalFlops(a, b);
  d.bytes_a = a.StorageBytes();
  d.bytes_b = b.StorageBytes();

  const double sample = exec.plan.nnz_sample_fraction > 0.0
                            ? exec.plan.nnz_sample_fraction
                            : 0.05;
  sparse::RowNnzEstimate est = sparse::EstimateRowNnz(a, b, sample);
  d.est_nnz_out =
      std::accumulate(est.per_row.begin(), est.per_row.end(), 0.0);
  d.est_bytes_out = EstBytesOut(d.est_nnz_out, a.rows());

  // The exact path must never plan from the sampling estimator, even when
  // the job's own executor options turn it on — it is this mode's job to
  // be the estimator-free baseline (and the fallback).
  partition::PlanOptions plan_opts = exec.plan;
  plan_opts.use_sampling_estimator = false;
  FillPlanDemand(a, b, device_capacity, plan_opts, nullptr, &d);
  FillExecSeconds(exec, model, &d);
  d.analysis_seconds = timer.Seconds();
  RecordAnalysisSeconds("exact", d.analysis_seconds);
  return d;
}

JobDemand EstimateJobDemandSampled(const sparse::Csr& a, const sparse::Csr& b,
                                   std::int64_t device_capacity,
                                   const core::ExecutorOptions& exec,
                                   const estimate::EstimatorOptions& opts,
                                   const calibrate::CalibratedModel* model) {
  WallTimer timer;
  auto est = std::make_shared<const estimate::ProductEstimate>(
      estimate::EstimateProduct(a, b, opts));
  if (!est->reliable) {
    // The estimator's own variance check failed: price the job exactly.
    // Small matrices land here (cheap to analyze anyway); large ones
    // sample enough rows to stay on the fast path.
    obs::MetricsRegistry::Default()
        .GetCounter("oocgemm_estimate_fallbacks_total", {},
                    "Estimate-mode admissions that fell back to the exact "
                    "path on the estimator's variance check")
        .Add(1);
    JobDemand d = EstimateJobDemand(a, b, device_capacity, exec, model);
    d.estimator_fallback = true;
    d.est_rel_stderr = est->rel_stderr;
    return d;
  }

  JobDemand d;
  d.estimated = true;
  d.est_rel_stderr = est->rel_stderr;
  d.flops = common::SaturatingCast(est->total_flops);
  d.bytes_a = a.StorageBytes();
  d.bytes_b = b.StorageBytes();
  d.est_nnz_out = est->total_nnz;
  d.est_bytes_out = EstBytesOut(d.est_nnz_out, a.rows());

  partition::PlanOptions plan_opts = exec.plan;
  plan_opts.use_sampling_estimator = true;
  plan_opts.estimator_seed = opts.seed;
  FillPlanDemand(a, b, device_capacity, plan_opts, std::move(est), &d);
  FillExecSeconds(exec, model, &d);
  d.analysis_seconds = timer.Seconds();
  RecordAnalysisSeconds("estimate", d.analysis_seconds);
  return d;
}

namespace {

bool NeedsDevice(core::ExecutionMode mode) {
  switch (mode) {
    case core::ExecutionMode::kGpuOutOfCore:
    case core::ExecutionMode::kGpuSynchronous:
    case core::ExecutionMode::kHybrid:
      return true;
    case core::ExecutionMode::kAuto:
    case core::ExecutionMode::kCpuOnly:
      return false;
  }
  return false;
}

}  // namespace

Status AdmissionController::Admit(const JobDemand& demand,
                                  core::ExecutionMode mode) {
  if (NeedsDevice(mode) && !demand.gpu_feasible()) {
    return Status::FailedPrecondition(
        "job requires the device but no panel split fits its memory");
  }
  if (limits_.max_est_exec_seconds > 0.0 &&
      demand.est_exec_seconds > limits_.max_est_exec_seconds) {
    return Status::FailedPrecondition(
        "job's modeled latency " + std::to_string(demand.est_exec_seconds) +
        "s exceeds the " + std::to_string(limits_.max_est_exec_seconds) +
        "s admission deadline");
  }
  if (demand.overflowed()) {
    // A byte product clamped at the int64 rail: the true footprint is
    // unrepresentable, so it cannot fit any finite budget.
    return Status::ResourceExhausted(
        "job demand overflows 64-bit byte accounting (host_bytes saturated "
        "at " +
        HumanBytes(demand.host_bytes()) + "); no budget can admit it");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (common::SaturatingAdd(outstanding_, demand.host_bytes()) >
      limits_.host_bytes_budget) {
    return Status::ResourceExhausted(
        "outstanding jobs hold " + HumanBytes(outstanding_) + ", admitting " +
        HumanBytes(demand.host_bytes()) + " would exceed the " +
        HumanBytes(limits_.host_bytes_budget) + " budget");
  }
  outstanding_ = common::SaturatingAdd(outstanding_, demand.host_bytes());
  return Status::Ok();
}

void AdmissionController::Release(const JobDemand& demand) {
  std::unique_lock<std::mutex> lock(mutex_);
  outstanding_ -= demand.host_bytes();
  if (outstanding_ < 0) outstanding_ = 0;
}

std::int64_t AdmissionController::outstanding_bytes() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return outstanding_;
}

}  // namespace oocgemm::serve
