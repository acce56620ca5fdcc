#include "core/multi_gpu.hpp"

#include <algorithm>
#include <numeric>

#include "core/lanes.hpp"
#include "core/retry.hpp"

namespace oocgemm::core {

namespace {

/// Generalized Algorithm 4: D devices of single-GPU ratio r = S/(S+1)
/// together take D*S / (D*S + 1) of the flops.
double MultiGpuShare(std::size_t num_devices, double gpu_ratio) {
  const double r = std::clamp(gpu_ratio, 0.0, 1.0);
  if (r >= 1.0) return 1.0;
  const double ds = static_cast<double>(num_devices) * (r / (1.0 - r));
  return ds / (ds + 1.0);
}

}  // namespace

StatusOr<MultiGpuResult> MultiGpuHybrid(
    const std::vector<vgpu::Device*>& devices, const sparse::Csr& a,
    const sparse::Csr& b, const ExecutorOptions& options, ThreadPool& pool) {
  if (devices.empty()) {
    return Status::InvalidArgument("MultiGpuHybrid needs at least one device");
  }

  // Devices still in the deal.  A device that faults mid-run is pruned and
  // the attempt re-dealt across the survivors inside the retry-with-replan,
  // so a prune spends no pool-overflow attempt and keeps the attempt's
  // safety factor.
  std::vector<vgpu::Device*> live = devices;
  std::vector<int> live_ids(devices.size());
  std::iota(live_ids.begin(), live_ids.end(), 0);
  std::vector<int> failed_devices;
  auto run = RetryWithReplan(options, [&](const ExecutorOptions& o) {
    for (;;) {
      int failed = -1;
      auto lanes = RunLanes(live, a, b, MultiGpuShare(live.size(), o.gpu_ratio),
                            o, pool, /*sink=*/nullptr, &failed);
      // Re-deal only after a device fault that leaves a survivor.
      // RunGpuChunks dropped every payload of the faulted lane, so no
      // partial chunk leaks through.
      if (lanes.ok() || failed < 0 || live.size() == 1 ||
          live[static_cast<std::size_t>(failed)]->health().ok()) {
        return lanes;
      }
      failed_devices.push_back(live_ids[static_cast<std::size_t>(failed)]);
      live.erase(live.begin() + failed);
      live_ids.erase(live_ids.begin() + failed);
    }
  });
  if (!run.ok()) return run.status();

  MultiGpuResult result;
  result.c = std::move(run->c);
  RunStats& combined = result.stats.combined;
  combined = run->stats;
  // No one trace covers several devices, but their transfer bytes add up:
  // the combined stats carry the per-device sums.
  combined.bytes_h2d = 0;
  combined.bytes_d2h = 0;
  for (std::size_t d = 0; d < live.size(); ++d) {
    const GpuRunOutput& lane = run->lanes[d];
    result.stats.gpu_seconds.push_back(lane.makespan);
    RunStats per;
    per.flops = lane.flops;
    per.nnz_out = lane.nnz;
    per.num_chunks = lane.chunks_run;
    per.num_gpu_chunks = lane.chunks_run;
    per.b_panel_uploads = lane.b_panel_uploads;
    per.b_panel_hits = lane.b_panel_hits;
    FillStatsFromTrace(live[d]->trace(), per);
    per.total_seconds = std::max(per.total_seconds, lane.makespan);
    per.gpu_seconds = lane.makespan;
    combined.bytes_h2d += per.bytes_h2d;
    combined.bytes_d2h += per.bytes_d2h;
    result.stats.per_device.push_back(per);
  }
  result.stats.failed_devices = failed_devices;
  RecordRun("multigpu", combined);
  return result;
}

}  // namespace oocgemm::core
