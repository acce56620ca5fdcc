#include "serve/batching.hpp"

namespace oocgemm::serve {

bool BatchEligible(const ScheduledJob& item) {
  if (item.job.b == nullptr || item.job.a == nullptr) return false;
  if (!item.demand.gpu_feasible()) return false;
  const core::ExecutionMode mode = item.job.options.mode;
  return mode == core::ExecutionMode::kAuto ||
         mode == core::ExecutionMode::kGpuOutOfCore;
}

std::vector<std::unique_ptr<ScheduledJob>> PeelBatchCompanions(
    const ScheduledJob& leader, JobQueue& queue, std::size_t max_companions) {
  if (max_companions == 0 || !BatchEligible(leader)) return {};
  return queue.ExtractIf(
      [&leader](const std::unique_ptr<ScheduledJob>& candidate) {
        return candidate != nullptr && candidate->job.b == leader.job.b &&
               BatchEligible(*candidate);
      },
      max_companions);
}

std::int64_t BatchPlannedDeviceBytes(
    const std::vector<std::unique_ptr<ScheduledJob>>& batch) {
  std::vector<const partition::PanelPlan*> plans;
  for (const auto& item : batch) plans.push_back(item->demand.plan.get());
  return partition::WorkspaceFor(plans).bytes();
}

}  // namespace oocgemm::serve
