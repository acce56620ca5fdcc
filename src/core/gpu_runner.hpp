// Pipelined execution of a sequence of chunks on the virtual GPU — the
// asynchronous engine of Section IV:
//
//  * two streams and two memory pools (double buffering);
//  * no dynamic device allocation: each chunk's panels, scratch and output
//    live in its slot's pre-allocated pool (Section IV-B);
//  * divided & scheduled transfers: while chunk i runs, chunk i-1's output
//    payload moves D2H in two portions interleaved with chunk i's small
//    info transfers — info(i), portion1(i-1), symbolic-info(i),
//    portion2(i-1) — exactly the Fig. 6 engine order;
//  * the caller chooses the chunk order (decreasing flops per Section IV-C,
//    or Algorithm 3's row-major order).
//
// The same runner serves every GPU lane of the executors (see lanes.hpp) and,
// on a blocking single-slot workspace, the synchronous baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "core/assembler.hpp"
#include "core/chunk_sink.hpp"
#include "core/executor_options.hpp"
#include "core/panel_cache.hpp"
#include "core/problem.hpp"
#include "kernels/spgemm_phases.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory_pool.hpp"
#include "vgpu/memory_source.hpp"

namespace oocgemm::core {

/// Device-side working state of the chunk pipeline: its streams, one
/// memory source per stream and the input panel cache.  A run normally
/// builds one internally, but a caller that executes several runs against
/// the same operand — the batched executor — builds one sized for the whole
/// batch and passes it to every run, so pool pre-allocation happens once
/// and cached panels (notably the shared B column panels) survive from job
/// to job.
struct GpuWorkspace {
  static constexpr int kMaxSlots = 2;  // "two streams and two buffers"

  /// The asynchronous pipeline (Section IV-B): two streams, each drawing
  /// from its own pre-allocated chunk pool.  Pre-allocates the pools and
  /// the panel cache (serializing Mallocs on the device timeline, like any
  /// cudaMalloc).
  GpuWorkspace(vgpu::Device& device, vgpu::HostContext& host,
               std::int64_t pool_bytes, std::int64_t max_a_panel_bytes,
               std::int64_t max_b_panel_bytes);

  /// The synchronous baseline ("synchronous spECK"): one stream, and every
  /// chunk buffer is a device Malloc of its own.  RunGpuChunks drains each
  /// chunk's payload and frees its buffers before the next chunk starts.
  GpuWorkspace(vgpu::Device& device, vgpu::HostContext& host,
               std::int64_t max_a_panel_bytes, std::int64_t max_b_panel_bytes);

  /// Releases the workspace's streams.
  ~GpuWorkspace();

  GpuWorkspace(const GpuWorkspace&) = delete;
  GpuWorkspace& operator=(const GpuWorkspace&) = delete;

  /// OK unless a fault-injected Malloc emptied one of the pools or the
  /// panel cache at construction; RunGpuChunks checks before issuing work.
  Status init_status() const;

  vgpu::Device& device;
  /// Streams in use: kMaxSlots when pipelined, 1 when blocking.
  int slots = kMaxSlots;
  vgpu::Stream* streams[kMaxSlots] = {};
  std::unique_ptr<vgpu::MemoryPool> pools[kMaxSlots];
  std::unique_ptr<vgpu::DeviceMemorySource> sources[kMaxSlots];
  PanelCache cache;
  kernels::AccumulatorScratch scratch;
};

struct GpuRunOutput {
  std::vector<ChunkPayload> payloads;
  /// Virtual time at which the last chunk (including its transfer) finished.
  double makespan = 0.0;
  int chunks_run = 0;
  std::int64_t flops = 0;
  std::int64_t nnz = 0;
  /// B-column-panel traffic of this run (uploads = cache misses); deltas
  /// over the workspace's counters, so they attribute correctly when a
  /// shared workspace serves several runs.
  std::int64_t b_panel_uploads = 0;
  std::int64_t b_panel_hits = 0;
};

/// Runs chunks `order[0..count)` of `prep` on `device`.  `host` carries the
/// issuing thread's virtual clock (starts at host.now).  Fails on pool OOM
/// (triggering the executors' re-planning retry) or panel upload OOM.
/// Checks options.deadline at chunk boundaries.
///
/// When `sink` is given, each chunk payload is handed to it as soon as its
/// transfers drain (completion order) and `GpuRunOutput::payloads` stays
/// empty — the streaming mode used for outputs beyond host memory.
///
/// When `workspace` is given, the run issues work through the caller's
/// streams/pools/cache instead of building its own; the workspace's pools
/// must be at least `prep.plan.pool_bytes` and its cache slots at least the
/// plan's panel maxima.  The pipeline drains before returning either way.
StatusOr<GpuRunOutput> RunGpuChunks(vgpu::Device& device,
                                    vgpu::HostContext& host,
                                    const PreparedProblem& prep,
                                    const std::vector<int>& order,
                                    const ExecutorOptions& options,
                                    ChunkSink* sink = nullptr,
                                    GpuWorkspace* workspace = nullptr);

}  // namespace oocgemm::core
