// The one chunk-lane runner under the executors, and the one function that
// fills the RunStats of every GPU path.
//
// The paper's asynchronous pipeline and its hybrid split (Algorithm 4) are
// one chunk loop that differs only in where each chunk runs: RunLanes takes
// the chunks in order, deals the flop-ordered prefix holding `gpu_share` of
// the flops round-robin to D >= 1 devices (one RunGpuChunks call each) and
// runs the rest on the CPU.  AsyncOutOfCore is one device at share 1, the
// streamed variant adds a sink, Hybrid is one device at gpu_ratio and
// MultiGpuHybrid is D devices at the generalized ratio.  SyncOutOfCore runs
// RunGpuChunks on a blocking workspace and shares only BuildRunStats.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/chunk_sink.hpp"
#include "core/cpu_runner.hpp"
#include "core/executor_options.hpp"
#include "core/gpu_runner.hpp"
#include "core/problem.hpp"
#include "core/run_stats.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::core {

struct LaneRun {
  RunStats stats;
  sparse::Csr c;  // the assembled product; empty when streamed to a sink
  partition::PanelBoundaries row_bounds;  // the plan's chunk grid
  partition::PanelBoundaries col_bounds;
  std::vector<GpuRunOutput> lanes;  // one per device, payloads moved out
};

/// C = A * B per Algorithm 4 over `devices` plus the CPU, planned for the
/// smallest device.  Chunks are taken in options.reorder_chunks order; each
/// device lane starts on a reset timeline at virtual time 0, like the CPU
/// lane, and the makespan is the latest lane.  A sink takes a share-1 run
/// (no CPU lane): every payload goes to it and LaneRun::c stays empty.  On
/// failure, `*failed_device` holds the index of the device lane that
/// failed, or -1.
StatusOr<LaneRun> RunLanes(const std::vector<vgpu::Device*>& devices,
                           const sparse::Csr& a, const sparse::Csr& b,
                           double gpu_share, const ExecutorOptions& options,
                           ThreadPool& pool, ChunkSink* sink = nullptr,
                           int* failed_device = nullptr);

/// The RunStats of one run of `prep` from its GPU lanes and optional CPU
/// lane.  `device` is the run's only device: its trace fills the engine
/// fields (and stretches total_seconds to the trace's span, which includes
/// any workspace teardown already issued) and its peak the memory field.
/// Pass null for runs over several devices or on a shared timeline.  Also
/// records the run's estimate-error, phase and chunk-flops metrics.
RunStats BuildRunStats(const PreparedProblem& prep,
                       std::span<const GpuRunOutput> lanes,
                       const CpuRunOutput* cpu, const vgpu::Device* device);

/// AssembleChunks over the plan's grid, with the host wall time booked to
/// oocgemm_core_assemble_wall_seconds.
sparse::Csr TimedAssemble(const PreparedProblem& prep,
                          std::vector<ChunkPayload> payloads);

/// Run-level accounting of a completed entry-point call.
void RecordRun(const char* executor, const RunStats& stats);

}  // namespace oocgemm::core
