// The calibrated cost model: per-device constants the calibrator fitted
// from live metrics, plus the decision hooks the serving stack consults.
//
// Every hook degrades to the static behaviour when the underlying fit is
// not confident, and a model built by FromStatic() — carrying exactly the
// static constants — reproduces every static decision bit-for-bit (the
// differential harness in test_calibrate_differential.cpp pins this down):
//
//  * GpuRatioFor returns the stored per-device hybrid ratio verbatim (the
//    calibrator stores S/(S+1) of the fitted per-device speedup; FromStatic
//    stores the caller's static ratio itself, so no recomputation can
//    introduce a ulp of drift);
//  * RouteScalesFor returns identity scales unless the device's compute
//    fit diverged from the static rate;
//  * RateHintFor returns 0 (no placement preference) until the device's
//    compute fit passes the confidence gate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::calibrate {

/// The compute rates of one device and the CPU.  All rates are "effective,
/// end to end" (they absorb launch overheads and phase mix).
struct ExecRates {
  double gpu_flop_rate = 0.0;        // flops/s through the whole GPU pipeline
  double cpu_flop_rate = 0.0;        // flops/s of the multicore path
  double kernel_launch_overhead = 0.0;  // seconds per kernel launch
};

/// The static reference rates, derived from the same constants the
/// executors hard-code: kernels::kCostModel's rates at a reference
/// compression ratio and the device's launch overhead.  This is the
/// baseline every fitted rate is compared against, and the published value
/// while the confidence gate holds.
ExecRates StaticExecRates(
    const vgpu::DeviceProperties& props = vgpu::ScaledV100Properties(10));

/// Reference compression ratio at which the static flop rates are taken
/// (the serve workload's typical band; only used as a fixed operating
/// point so fitted and static rates are comparable).
inline constexpr double kReferenceCompressionRatio = 4.0;

class CalibratedModel {
 public:
  struct DeviceModel {
    double flop_rate = 0.0;       // effective flops/s; valid iff rate_confident
    /// Fitted seconds per kernel launch; valid iff rate_confident (the
    /// two-term fit resolves both together, or falls back to the static
    /// overhead, which is stored here either way).
    double launch_overhead = 0.0;
    /// Hybrid split ratio S/(S+1) from this device's fitted speedup over
    /// the fitted CPU rate; valid iff ratio_confident.
    double gpu_ratio = 0.0;
    /// Routing cost scales vs the static model (identity when the fit
    /// matches the static constants).
    kernels::RouteCalibration routing;
    bool rate_confident = false;
    bool ratio_confident = false;
  };
  struct CpuModel {
    double flop_rate = 0.0;
    bool confident = false;
  };

  CalibratedModel(std::vector<DeviceModel> devices, CpuModel cpu)
      : devices_(std::move(devices)), cpu_(cpu) {}

  /// A model carrying exactly the static constants for `num_devices`
  /// devices: static_ratio stored verbatim, identity route scales, rates
  /// from StaticExecRates.  Feeding this model to any decision point must
  /// reproduce the static decision — the differential harness's fixture.
  static CalibratedModel FromStatic(int num_devices, double static_ratio,
                                    const ExecRates& rates = StaticExecRates());

  int num_devices() const { return static_cast<int>(devices_.size()); }
  const DeviceModel& device(int index) const {
    return devices_[static_cast<std::size_t>(index)];
  }
  const CpuModel& cpu() const { return cpu_; }

  /// Hybrid split ratio for a job dispatched to `device`: the stored
  /// fitted ratio, or `static_ratio` while the fit is not confident (or
  /// the index is out of range — a CPU-only dispatch).
  double GpuRatioFor(int device, double static_ratio) const {
    if (device < 0 || device >= num_devices()) return static_ratio;
    const DeviceModel& d = devices_[static_cast<std::size_t>(device)];
    return d.ratio_confident ? d.gpu_ratio : static_ratio;
  }

  /// Routing cost scales for kernels launched on `device`; identity while
  /// not confident.
  kernels::RouteCalibration RouteScalesFor(int device) const {
    if (device < 0 || device >= num_devices()) return {};
    const DeviceModel& d = devices_[static_cast<std::size_t>(device)];
    return d.rate_confident ? d.routing : kernels::RouteCalibration{};
  }

  /// Fitted effective flop rate of `device`, or 0 when not confident —
  /// the DevicePool placement tie-break hint.
  double RateHintFor(int device) const {
    if (device < 0 || device >= num_devices()) return 0.0;
    const DeviceModel& d = devices_[static_cast<std::size_t>(device)];
    return d.rate_confident ? d.flop_rate : 0.0;
  }

 private:
  std::vector<DeviceModel> devices_;
  CpuModel cpu_;
};

}  // namespace oocgemm::calibrate
