#include "core/spgemm.hpp"

#include <memory>

#include "partition/panel_plan.hpp"

namespace oocgemm::core {

StatusOr<RunResult> Multiply(vgpu::Device& device, const sparse::Csr& a,
                             const sparse::Csr& b,
                             const MultiplyOptions& options, ThreadPool& pool) {
  switch (options.mode) {
    case ExecutionMode::kGpuOutOfCore:
      return AsyncOutOfCore(device, a, b, options, pool);
    case ExecutionMode::kGpuSynchronous:
      return SyncOutOfCore(device, a, b, options, pool);
    case ExecutionMode::kHybrid:
      return Hybrid(device, a, b, options, pool);
    case ExecutionMode::kCpuOnly:
      return CpuMulticore(a, b, options, pool);
    case ExecutionMode::kAuto:
      break;
  }
  // kAuto: probe the plan, then run it.  A single-chunk problem runs
  // in-core on the GPU (the hybrid split would only idle one side);
  // anything larger engages both processors.
  auto plan = partition::PlanPanels(a, b, device.capacity(), options.plan);
  if (!plan.ok()) return plan.status();
  MultiplyOptions planned = options;
  planned.plan.prior =
      std::make_shared<const partition::PanelPlan>(std::move(plan).value());
  if (planned.plan.prior->num_chunks() <= 1) {
    return AsyncOutOfCore(device, a, b, planned, pool);
  }
  return Hybrid(device, a, b, planned, pool);
}

StatusOr<RunResult> Multiply(vgpu::Device& device, const sparse::Csr& a,
                             const sparse::Csr& b) {
  return Multiply(device, a, b, MultiplyOptions{}, GlobalThreadPool());
}

}  // namespace oocgemm::core
