#include "calibrate/calibrator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/saturating.hpp"

namespace oocgemm::calibrate {
namespace {

// Guard rails on published values: the route scales stay within a band so
// one pathological tick cannot flip every routing decision, and the hybrid
// ratio never collapses to "all CPU" / "all GPU" (both extremes starve the
// other lane and the fit loses its signal).
constexpr double kMinRouteScale = 0.25;
constexpr double kMaxRouteScale = 8.0;
constexpr double kMinGpuRatio = 0.05;
constexpr double kMaxGpuRatio = 0.95;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

std::int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-clock nanoseconds `seconds` after `now`, saturating short of
/// kNever, which marks ticks as not armed.
std::int64_t DueAfter(std::int64_t now, double seconds) {
  return std::min(kNever - 1, common::SaturatingAdd(
                                  now, common::SaturatingCast(seconds * 1e9)));
}

obs::Labels DeviceLabels(int index) {
  return {{"device", std::to_string(index)}};
}

/// Counter delta with reset tolerance: a ResetForTest (or registry swap)
/// makes the counter go backwards; treat that as "resync, no sample".
double Delta(double now, double* prev) {
  const double d = now - *prev;
  *prev = now;
  return d >= 0.0 ? d : 0.0;
}

}  // namespace

const char* CalibrateModeName(CalibrateMode mode) {
  switch (mode) {
    case CalibrateMode::kOff:
      return "off";
    case CalibrateMode::kObserve:
      return "observe";
    case CalibrateMode::kApply:
      return "apply";
  }
  return "off";
}

bool ParseCalibrateMode(const std::string& text, CalibrateMode* mode) {
  if (text == "off") {
    *mode = CalibrateMode::kOff;
  } else if (text == "observe") {
    *mode = CalibrateMode::kObserve;
  } else if (text == "apply") {
    *mode = CalibrateMode::kApply;
  } else {
    return false;
  }
  return true;
}

CostModelCalibrator::CostModelCalibrator(CalibratorConfig config,
                                         core::DevicePool* pool,
                                         obs::MetricsRegistry* registry)
    : config_(config), pool_(pool), registry_(registry) {
  const int n = pool_ != nullptr ? pool_->size() : 0;
  fits_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fits_.push_back(DeviceFits{
        OverheadRateFit(StaticExecRates().kernel_launch_overhead)});
  }
  // Baseline: counters accumulated before the calibrator existed must not
  // contaminate the first tick's deltas.
  std::lock_guard<std::mutex> lock(mutex_);
  IngestLocked(registry_->Snapshot(), /*record=*/false);
}

CostModelCalibrator::~CostModelCalibrator() { Stop(); }

void CostModelCalibrator::Start() {
  if (config_.mode == CalibrateMode::kOff ||
      !(config_.interval_seconds > 0.0)) {
    return;
  }
  std::int64_t disarmed = kNever;
  next_tick_ns_.compare_exchange_strong(
      disarmed, DueAfter(SteadyNowNanos(), config_.interval_seconds));
}

void CostModelCalibrator::Stop() {
  if (next_tick_ns_.exchange(kNever) != kNever) {
    // The final tick: traffic since the last completion-path tick is still
    // folded in, so short runs calibrate too.
    TickNow();
  }
}

void CostModelCalibrator::MaybeTick() {
  const std::int64_t now = SteadyNowNanos();
  std::int64_t due = next_tick_ns_.load();
  if (now < due) return;
  if (next_tick_ns_.compare_exchange_strong(
          due, DueAfter(now, config_.interval_seconds))) {
    TickNow();
  }
}

void CostModelCalibrator::TickNow() {
  const obs::RegistrySnapshot snap = registry_->Snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  IngestLocked(snap, /*record=*/true);
  for (DeviceFits& f : fits_) f.rate.Commit();
  cpu_fit_.Commit();
  PublishLocked();
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const CalibratedModel> CostModelCalibrator::model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_;
}

void CostModelCalibrator::IngestLocked(const obs::RegistrySnapshot& snap,
                                       bool record) {
  for (int i = 0; i < static_cast<int>(fits_.size()); ++i) {
    DeviceFits& f = fits_[static_cast<std::size_t>(i)];
    const obs::Labels labels = DeviceLabels(i);
    const double launches = Delta(
        snap.Value("oocgemm_vgpu_kernel_launches", labels), &f.launches);
    const double flops =
        Delta(snap.Value("oocgemm_kernels_device_flops", labels), &f.flops);
    const double kernel_s = Delta(
        snap.Value("oocgemm_vgpu_kernel_seconds", labels), &f.kernel_seconds);
    if (!record) continue;
    // The kernel-seconds counter records wall intervals *including* any
    // injected delay faults — exactly the degradation signal the fitted
    // effective rate must see.
    if (flops > 0.0 && kernel_s > 0.0) f.rate.Add(launches, flops, kernel_s);
  }
  const double cpu_f = Delta(snap.Value("oocgemm_core_cpu_flops"), &cpu_flops_);
  const double cpu_s =
      Delta(snap.Value("oocgemm_core_cpu_seconds"), &cpu_seconds_);
  if (record && cpu_f > 0.0 && cpu_s > 0.0) cpu_fit_.Add(cpu_f, cpu_s);
}

void CostModelCalibrator::PublishLocked() {
  const ExecRates s = StaticExecRates();

  CalibratedModel::CpuModel cpu;
  cpu.confident = cpu_fit_.confident();
  cpu.flop_rate = cpu.confident ? cpu_fit_.rate() : s.cpu_flop_rate;

  std::vector<CalibratedModel::DeviceModel> devices(fits_.size());
  for (std::size_t i = 0; i < fits_.size(); ++i) {
    const DeviceFits& f = fits_[i];
    CalibratedModel::DeviceModel& d = devices[i];
    d.rate_confident = f.rate.confident() && f.rate.effective_rate() > 0.0;
    // Steering uses the *effective* rate (per-launch overhead included at
    // the observed launch intensity): a device drowning in launch delay
    // must look slow to the split/placement levers even though its
    // marginal flop rate stays healthy.
    d.flop_rate = d.rate_confident ? f.rate.effective_rate() : s.gpu_flop_rate;
    d.launch_overhead =
        d.rate_confident ? f.rate.overhead() : s.kernel_launch_overhead;
    if (d.rate_confident && cpu.confident && cpu.flop_rate > 0.0) {
      // The paper's split rule with live inputs: Ratio = S/(S+1), S the
      // *fitted* GPU/CPU speedup of this device.
      const double speedup = d.flop_rate / cpu.flop_rate;
      d.gpu_ratio =
          std::clamp(speedup / (speedup + 1.0), kMinGpuRatio, kMaxGpuRatio);
      d.ratio_confident = true;
    }
    if (d.rate_confident && d.flop_rate > 0.0) {
      d.routing.compute_scale = std::clamp(s.gpu_flop_rate / d.flop_rate,
                                           kMinRouteScale, kMaxRouteScale);
      d.routing.overhead_scale =
          s.kernel_launch_overhead > 0.0
              ? std::clamp(d.launch_overhead / s.kernel_launch_overhead,
                           kMinRouteScale, kMaxRouteScale)
              : 1.0;
    }
  }

  // Apply mode steers placement: push the fitted effective rate into the
  // pool so free devices are leased faster (undegraded) first.
  if (config_.mode == CalibrateMode::kApply && pool_ != nullptr) {
    for (std::size_t i = 0; i < devices.size(); ++i) {
      pool_->set_rate_hint(static_cast<int>(i),
                           devices[i].rate_confident ? devices[i].flop_rate
                                                     : 0.0);
    }
  }

  // oocgemm_calibrate_* exports: one gauge per fitted quantity plus
  // sample/outlier accounting, so dashboards (and the feedback test) can
  // watch the loop converge.
  obs::MetricsRegistry& reg = *registry_;
  reg.GetCounter("oocgemm_calibrate_ticks", {}, "Calibration passes run")
      .Add(1);
  for (std::size_t i = 0; i < fits_.size(); ++i) {
    const int idx = static_cast<int>(i);
    const DeviceFits& f = fits_[i];
    const CalibratedModel::DeviceModel& d = devices[i];
    const obs::Labels labels = {{"device", std::to_string(idx)},
                                {"fit", "rate"}};
    reg.GetGauge("oocgemm_calibrate_samples", labels,
                 "Committed samples per fit")
        .Set(f.rate.samples());
    reg.GetGauge("oocgemm_calibrate_outliers", labels,
                 "Winsorized samples per fit")
        .Set(f.rate.outliers());
    reg.GetGauge("oocgemm_calibrate_confident", labels,
                 "1 when the fit passed the confidence gate")
        .Set(d.rate_confident ? 1 : 0);
    reg.GetGauge("oocgemm_calibrate_fitted_rate", labels,
                 "Fitted effective flops/s, static while gated")
        .Set(static_cast<std::int64_t>(d.flop_rate));
    reg.GetGauge("oocgemm_calibrate_gpu_ratio_millis", DeviceLabels(idx),
                 "Fitted hybrid split ratio x1000 (static when 0 samples)")
        .Set(static_cast<std::int64_t>(
            std::lround((d.ratio_confident ? d.gpu_ratio : 0.0) * 1000.0)));
    reg.GetHistogram("oocgemm_calibrate_rate_residual", DeviceLabels(idx),
                     "Relative residual scale of the device rate fit")
        .Record(f.rate.residual_scale());
  }
  reg.GetGauge("oocgemm_calibrate_cpu_flop_rate", {},
               "Fitted CPU effective flop rate (static while gated)")
      .Set(static_cast<std::int64_t>(cpu.flop_rate));
  reg.GetGauge("oocgemm_calibrate_cpu_confident", {},
               "1 when the CPU rate fit passed the confidence gate")
      .Set(cpu.confident ? 1 : 0);

  model_ = std::make_shared<const CalibratedModel>(std::move(devices), cpu);
}

}  // namespace oocgemm::calibrate
