// Multi-GPU extension of the hybrid executor (the paper's future-work
// direction: "our ultimate goal of continuing to scale SpGEMM computations
// to arbitrarily large matrices").
//
// Algorithm 4 generalizes directly: with D identical GPUs of per-device
// speedup S over the CPU, the GPUs collectively take
// Ratio_D = D*S / (D*S + 1) of the flops; the flop-sorted GPU prefix is
// dealt round-robin across devices (each device then holds a similar mix
// of heavy and light chunks), and each device runs the same asynchronous
// pipeline on its own streams, pools and panel cache.  The CPU processes
// the remaining chunks, and the makespan is the slowest worker.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "core/executor_options.hpp"
#include "core/run_stats.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::core {

struct MultiGpuStats {
  /// The whole run.  It has no engine times (no one trace covers several
  /// devices); its transfer bytes are the sums over `per_device`.
  RunStats combined;
  /// Virtual makespan of each GPU worker.
  std::vector<double> gpu_seconds;
  /// Per-device accounting, parallel to the *surviving* devices (the
  /// `devices` argument minus `failed_devices`): each entry carries that
  /// device's chunk count, output nnz, panel traffic and trace-derived
  /// engine times.  The round-robin deal guarantees num_gpu_chunks across
  /// entries differs by at most one.
  std::vector<RunStats> per_device;
  /// Indices (into the `devices` argument) of devices that faulted and
  /// were pruned mid-run; their chunks re-ran on the survivors.
  std::vector<int> failed_devices;
};

struct MultiGpuResult {
  sparse::Csr c;
  MultiGpuStats stats;
};

/// C = A * B across `devices` plus the CPU.  All devices should have the
/// same capacity (the plan is built for the smallest).  With
/// options.gpu_ratio = r, the GPUs collectively receive
/// D*r' / (D*r' + (1-r')) of the flops where r' is the single-GPU ratio —
/// i.e. the generalized Algorithm 4 rule.
///
/// Partial failure: when a device faults mid-run (its sticky health status
/// turns non-OK) and at least one other device survives, the faulted
/// device is pruned, its index recorded in stats.failed_devices, and the
/// whole call re-deals across the survivors — no partial chunk from the
/// faulted device is ever assembled.  Only when the *last* device faults
/// does the call fail, with the device's typed status.  Pool overflow
/// re-plans within options.max_oom_attempts (core::RetryWithReplan); a
/// prune re-deals within the current attempt, so it spends no attempt and
/// keeps the attempt's nnz_safety_factor.  A deadline seen passed by any
/// lane ends the call with kCancelled.
StatusOr<MultiGpuResult> MultiGpuHybrid(
    const std::vector<vgpu::Device*>& devices, const sparse::Csr& a,
    const sparse::Csr& b, const ExecutorOptions& options, ThreadPool& pool);

}  // namespace oocgemm::core
