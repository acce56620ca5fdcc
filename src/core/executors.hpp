// The end-to-end SpGEMM paths the paper evaluates, plus the streamed
// variant of the asynchronous one:
//
//  * SyncOutOfCore  — "synchronous, partitioned spECK": Algorithm 3 in
//    row-major order, dynamic device allocation inside each chunk, and a
//    host-blocking transfer of each chunk before the next one starts.
//    The baseline of Fig. 4 and Fig. 8.
//  * AsyncOutOfCore — the paper's out-of-core GPU implementation:
//    pre-allocated pools, double buffering, divided & scheduled transfers,
//    chunks in decreasing-flop order.  The "GPU" series of Fig. 7/8.
//  * CpuMulticore   — the Nagasaka-style multicore baseline ("CPU" series
//    of Fig. 7); runs entirely in host memory.
//  * Hybrid         — Algorithm 4: flop-sorted chunks split between the
//    asynchronous GPU pipeline and the CPU at `gpu_ratio` (65%).
//  * AsyncOutOfCoreStreamed — AsyncOutOfCore with payloads handed to a
//    ChunkSink instead of being assembled.
//
// The GPU paths share one chunk loop (core/lanes.hpp) and one overflow
// retry (core/retry.hpp).  All paths return the assembled result matrix
// plus virtual-time statistics so benchmarks can print the paper's tables
// and figures.
#pragma once

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/chunk_sink.hpp"
#include "core/executor_options.hpp"
#include "core/run_stats.hpp"
#include "partition/panels.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::core {

/// C = A * B out-of-core, synchronous baseline.  Resets the device timeline.
StatusOr<RunResult> SyncOutOfCore(vgpu::Device& device, const sparse::Csr& a,
                                  const sparse::Csr& b,
                                  const ExecutorOptions& options,
                                  ThreadPool& pool);

/// C = A * B out-of-core, the paper's asynchronous design.
StatusOr<RunResult> AsyncOutOfCore(vgpu::Device& device, const sparse::Csr& a,
                                   const sparse::Csr& b,
                                   const ExecutorOptions& options,
                                   ThreadPool& pool);

/// C = A * B on the multicore CPU (no device involved; the virtual time
/// comes from the calibrated CPU cost model).
StatusOr<RunResult> CpuMulticore(const sparse::Csr& a, const sparse::Csr& b,
                                 const ExecutorOptions& options,
                                 ThreadPool& pool);

/// C = A * B split across GPU and CPU per Algorithm 4.
StatusOr<RunResult> Hybrid(vgpu::Device& device, const sparse::Csr& a,
                           const sparse::Csr& b,
                           const ExecutorOptions& options, ThreadPool& pool);

/// Result of a streamed run: the matrix never materializes in host memory —
/// chunks went to the caller's ChunkSink in completion order.
struct StreamedRunResult {
  RunStats stats;
  partition::PanelBoundaries row_bounds;  // for DiskChunkSink::Finalize /
  partition::PanelBoundaries col_bounds;  // later assembly
};

/// The asynchronous executor with chunk streaming: use with DiskChunkSink
/// for outputs larger than host memory.  Note: if a pool overflow forces a
/// re-plan, chunks of the abandoned attempt may already have reached the
/// sink (DiskChunkSink simply overwrites / orphans them; AssembleFromDisk
/// reads only the final manifest's grid).
StatusOr<StreamedRunResult> AsyncOutOfCoreStreamed(
    vgpu::Device& device, const sparse::Csr& a, const sparse::Csr& b,
    const ExecutorOptions& options, ThreadPool& pool, ChunkSink& sink);

}  // namespace oocgemm::core
