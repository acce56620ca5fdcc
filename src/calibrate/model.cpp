#include "calibrate/model.hpp"

#include <cmath>

#include "kernels/cost_model.hpp"

namespace oocgemm::calibrate {

ExecRates StaticExecRates(const vgpu::DeviceProperties& props) {
  const kernels::CostModel& cm = kernels::kCostModel;
  ExecRates r;
  r.gpu_flop_rate = cm.NumericRate(kReferenceCompressionRatio);
  // The CPU model is seconds = coeff * flops / cr^exp; at the reference
  // compression ratio the effective rate is the inverse per-flop cost.
  r.cpu_flop_rate =
      1.0 / (cm.cpu_seconds_per_flop_coeff /
             std::pow(kReferenceCompressionRatio, cm.cpu_flop_exponent));
  r.kernel_launch_overhead = props.kernel_launch_overhead;
  return r;
}

CalibratedModel CalibratedModel::FromStatic(int num_devices,
                                            double static_ratio,
                                            const ExecRates& rates) {
  std::vector<DeviceModel> devices(
      static_cast<std::size_t>(std::max(0, num_devices)));
  for (DeviceModel& d : devices) {
    d.flop_rate = rates.gpu_flop_rate;
    d.launch_overhead = rates.kernel_launch_overhead;
    d.gpu_ratio = static_ratio;  // stored verbatim: zero recomputation drift
    d.routing = kernels::RouteCalibration{};
    d.rate_confident = d.ratio_confident = true;
  }
  CpuModel cpu;
  cpu.flop_rate = rates.cpu_flop_rate;
  cpu.confident = true;
  return CalibratedModel(std::move(devices), cpu);
}

}  // namespace oocgemm::calibrate
