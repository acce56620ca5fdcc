// Closed-loop cost-model calibration from live metrics.
//
// The repo's planning constants are static (DeviceProperties bandwidths,
// CostModel flop rates, ExecutorOptions::gpu_ratio = 0.67 from the paper's
// Ratio = S/(S+1) rule) even though devices drift at runtime — they are
// heterogeneous, and injected delay faults degrade them mid-run.  The
// obs registry already records, per device, the ground truth those
// constants approximate: h2d/d2h bytes *and* engine-busy seconds, kernel
// seconds (including injected delays), and — added with this subsystem —
// per-device numeric flops plus CPU flops/seconds.
//
// CostModelCalibrator closes the loop.  Each tick it snapshots the
// registry, forms per-device (delta bytes, delta seconds) and
// (delta flops, delta seconds) samples, and feeds them to robust online
// regressions (calibrate/fit.hpp).  When a refit passes the confidence
// gate it publishes a CalibratedModel consumed at four decision points:
//
//   (a) hybrid split — the scheduler overrides gpu_ratio with the
//       dispatched device's S/(S+1), S = fitted device rate / fitted CPU
//       rate (paper rule, live inputs);
//   (b) admission — EstimateJobDemand[Sampled] price latency with the
//       fitted rates (AdmissionRates);
//   (c) placement — DevicePool leases free devices in order of fitted
//       effective rate, steering work off degraded devices;
//   (d) kernel routing — RouteRow cost scales track the fitted/static
//       rate ratio.
//
// Modes: kOff (no calibrator), kObserve (fit + oocgemm_calibrate_*
// metrics, decisions stay static), kApply (fitted model feeds all four
// decision points).  Ticks come from an optional background thread
// (interval_seconds > 0) or explicit TickNow() calls (tests, benches).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "calibrate/fit.hpp"
#include "calibrate/model.hpp"
#include "core/device_pool.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::calibrate {

enum class CalibrateMode { kOff, kObserve, kApply };

const char* CalibrateModeName(CalibrateMode mode);
/// Parses "off" / "observe" / "apply"; false on anything else.
bool ParseCalibrateMode(const std::string& text, CalibrateMode* mode);

struct CalibratorConfig {
  CalibrateMode mode = CalibrateMode::kOff;
  /// Background tick period in wall seconds; 0 disables the thread (ticks
  /// then only happen through TickNow()).
  double interval_seconds = 0.0;
  FitConfig fit;
  /// Static reference rates the fits are gated against and compared to.
  // CostModel{} is the default argument spelled out: GCC 12 misreports the
  // defaulted temporary as dangling wherever this initializer is inlined.
  ExecRates static_rates = StaticExecRates(kernels::CostModel{});
};

class CostModelCalibrator {
 public:
  /// Observes the pool's devices (metric labels {"device", index}).  The
  /// baseline snapshot is taken here, so counters accumulated before the
  /// calibrator existed never contaminate the first tick's deltas.  Does
  /// not own the pool.
  CostModelCalibrator(CalibratorConfig config, core::DevicePool* pool,
                      obs::MetricsRegistry* registry =
                          &obs::MetricsRegistry::Default());
  ~CostModelCalibrator();

  CostModelCalibrator(const CostModelCalibrator&) = delete;
  CostModelCalibrator& operator=(const CostModelCalibrator&) = delete;

  /// Starts the background tick thread when interval_seconds > 0.
  void Start();
  /// Stops the thread (idempotent); one final tick runs first so the last
  /// interval's traffic is never lost.
  void Stop();

  /// One calibration pass: snapshot, delta, fit, publish.  Thread-safe.
  void TickNow();

  /// The latest fitted model (never null after the first tick; null
  /// before).  Confidence gates live inside the model, so callers use it
  /// unconditionally.
  std::shared_ptr<const CalibratedModel> model() const;

  /// The model the serving stack should *act* on: model() in kApply mode,
  /// null otherwise (observe mode fits and exports but never steers).
  std::shared_ptr<const CalibratedModel> apply_model() const {
    return config_.mode == CalibrateMode::kApply ? model() : nullptr;
  }

  const CalibratorConfig& config() const { return config_; }
  std::int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  struct DeviceFits {
    LinearFit h2d;        // (bytes, seconds)
    LinearFit d2h;        // (bytes, seconds)
    OverheadRateFit rate; // (launches, flops, kernel seconds w/ delays)
    // Previous-tick counter values (deltas are formed against these).
    double h2d_bytes = 0.0, h2d_seconds = 0.0;
    double d2h_bytes = 0.0, d2h_seconds = 0.0;
    double launches = 0.0, flops = 0.0, kernel_seconds = 0.0;
  };

  void ThreadLoop();
  /// Requires mutex_ held.  Forms counter deltas against the previous tick
  /// and feeds them to the fits (`record` false only seeds the baseline).
  void IngestLocked(const obs::RegistrySnapshot& snap, bool record);
  /// Requires mutex_ held.  Builds and publishes the model + metrics.
  void PublishLocked();

  CalibratorConfig config_;
  core::DevicePool* pool_;
  obs::MetricsRegistry* registry_;

  mutable std::mutex mutex_;
  std::vector<DeviceFits> fits_;
  LinearFit cpu_fit_;
  double cpu_flops_ = 0.0, cpu_seconds_ = 0.0;
  std::shared_ptr<const CalibratedModel> model_;

  std::atomic<std::int64_t> ticks_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace oocgemm::calibrate
