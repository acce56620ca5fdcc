#include "core/gpu_runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/panel_cache.hpp"
#include "obs/metrics.hpp"
#include "kernels/device_csr.hpp"
#include "kernels/device_spgemm.hpp"
#include "vgpu/memory_pool.hpp"
#include "vgpu/memory_source.hpp"

namespace oocgemm::core {

using kernels::ChunkPipeline;
using kernels::ChunkProduct;
using kernels::DeviceCsr;
using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;

namespace {

/// A chunk whose kernels are issued and whose payload is (being) moved.
struct PendingChunk {
  int slot = 0;
  ChunkProduct product;
  ChunkPayload payload;           // host destination buffers
  vgpu::Stream* stream = nullptr;
  std::int64_t rows_transferred = 0;  // payload rows already issued D2H
};

/// Issues the D2H payload transfer of rows [rows_from, rows_to) of the
/// pending chunk on its own stream (after its numeric phase by stream
/// order).  Column-id and value arrays move as separate copies, as they are
/// separate ranges of device memory.  An empty range issues nothing unless
/// `copy_empty` is set (the synchronous baseline copies every chunk).
void IssuePayloadRows(vgpu::Device& device, vgpu::HostContext& host,
                      PendingChunk& pending, index_t rows_from,
                      index_t rows_to, bool pinned, const char* what,
                      bool copy_empty = false) {
  const ChunkProduct& p = pending.product;
  OOC_CHECK(0 <= rows_from && rows_from <= rows_to && rows_to <= p.rows);
  const offset_t e0 = p.row_offsets[static_cast<std::size_t>(rows_from)];
  const offset_t e1 = p.row_offsets[static_cast<std::size_t>(rows_to)];
  const std::int64_t entries = e1 - e0;
  if (entries <= 0 && !copy_empty) {
    pending.rows_transferred = rows_to;
    return;
  }
  const std::string tag = "chunk[" + std::to_string(pending.payload.row_panel) +
                          "," + std::to_string(pending.payload.col_panel) +
                          "]." + what;
  device.MemcpyD2HAsync(
      host, *pending.stream, pending.payload.col_ids.data() + e0,
      p.d_col_ids.Slice(e0 * static_cast<std::int64_t>(sizeof(index_t)),
                        entries * static_cast<std::int64_t>(sizeof(index_t))),
      entries * static_cast<std::int64_t>(sizeof(index_t)), tag + ".col_ids",
      pinned);
  device.MemcpyD2HAsync(
      host, *pending.stream, pending.payload.values.data() + e0,
      p.d_values.Slice(e0 * static_cast<std::int64_t>(sizeof(value_t)),
                       entries * static_cast<std::int64_t>(sizeof(value_t))),
      entries * static_cast<std::int64_t>(sizeof(value_t)), tag + ".values",
      pinned);
  pending.rows_transferred = rows_to;
}

}  // namespace

GpuWorkspace::GpuWorkspace(vgpu::Device& device, vgpu::HostContext& host,
                           std::int64_t pool_bytes,
                           std::int64_t max_a_panel_bytes,
                           std::int64_t max_b_panel_bytes)
    : device(device),
      streams{device.CreateStream("pipe0"), device.CreateStream("pipe1")},
      cache(device, host, max_a_panel_bytes, max_b_panel_bytes) {
  for (int s = 0; s < kMaxSlots; ++s) {
    pools[s] = std::make_unique<vgpu::MemoryPool>(device, host, pool_bytes,
                                                  "pool" + std::to_string(s));
    sources[s] = std::make_unique<vgpu::PoolMemorySource>(*pools[s]);
  }
}

GpuWorkspace::GpuWorkspace(vgpu::Device& device, vgpu::HostContext& host,
                           std::int64_t max_a_panel_bytes,
                           std::int64_t max_b_panel_bytes)
    : device(device),
      slots(1),
      streams{device.CreateStream("sync"), nullptr},
      sources{std::make_unique<vgpu::MallocMemorySource>(device), nullptr},
      cache(device, host, max_a_panel_bytes, max_b_panel_bytes) {}

GpuWorkspace::~GpuWorkspace() {
  for (vgpu::Stream* stream : streams) {
    if (stream != nullptr) device.DestroyStream(stream);
  }
}

Status GpuWorkspace::init_status() const {
  if (!cache.init_status().ok()) return cache.init_status();
  for (int s = 0; s < slots; ++s) {
    if (pools[s] != nullptr && !pools[s]->init_status().ok()) {
      return pools[s]->init_status();
    }
  }
  return Status::Ok();
}

StatusOr<GpuRunOutput> RunGpuChunks(vgpu::Device& device,
                                    vgpu::HostContext& host,
                                    const PreparedProblem& prep,
                                    const std::vector<int>& order,
                                    const ExecutorOptions& options,
                                    ChunkSink* sink, GpuWorkspace* workspace) {
  GpuRunOutput out;
  if (order.empty()) {
    out.makespan = host.now;
    return out;
  }

  OOC_RETURN_IF_ERROR(device.health());
  std::unique_ptr<GpuWorkspace> local;
  if (workspace == nullptr) {
    local = std::make_unique<GpuWorkspace>(device, host, prep.plan.pool_bytes,
                                           prep.plan.max_a_panel_bytes,
                                           prep.plan.max_b_panel_bytes);
    workspace = local.get();
  }
  OOC_RETURN_IF_ERROR(workspace->init_status());
  const int slots = workspace->slots;
  const bool blocking = slots == 1;
  vgpu::Stream** streams = workspace->streams;
  std::unique_ptr<vgpu::DeviceMemorySource>* sources = workspace->sources;
  PanelCache& cache = workspace->cache;
  kernels::AccumulatorScratch& scratch = workspace->scratch;
  const std::int64_t b_misses_before = cache.misses(PanelCache::kB);
  const std::int64_t b_hits_before = cache.hits(PanelCache::kB);
  // Pending chunks: the one whose payload is in flight (prev) and, per
  // slot, the one whose payload completed but is awaiting finalization.
  std::optional<PendingChunk> slot_pending[GpuWorkspace::kMaxSlots];
  std::optional<PendingChunk> prev;  // numeric done, payload not fully issued

  Status sink_status = Status::Ok();
  Status device_status = Status::Ok();
  auto finalize_slot = [&](int slot) {
    if (!slot_pending[slot]) return;
    PendingChunk& done = *slot_pending[slot];
    // All transfers of this chunk were issued on its stream; draining the
    // stream guarantees the payload landed (virtually and physically).
    device.StreamSynchronize(host, *done.stream);
    // Sticky-error checkpoint: if anything faulted since the last check,
    // this payload may be incomplete or corrupted — drop it rather than
    // ever assembling a wrong C.  The run fails at the loop's next check.
    const Status health = device.health();
    // A dynamic source frees the chunk's buffers now; a pool recycles.
    kernels::ReleaseChunk(host, *sources[slot], done.product);
    if (!health.ok()) {
      if (device_status.ok()) device_status = health;
    } else {
      out.nnz += done.product.nnz;
      if (sink == nullptr) {
        out.payloads.push_back(std::move(done.payload));
      } else if (sink_status.ok()) {
        sink_status = sink->Consume(std::move(done.payload));
      }
    }
    slot_pending[slot].reset();
    sources[slot]->Recycle();
  };

  // Mid-pipeline abort: drain what was issued, then return the workspace to
  // a clean state — recycled pools and an invalidated panel cache — so a
  // caller-owned workspace does not carry leaked reservations or suspect
  // panels into its next run.
  auto fail = [&](const Status& status) -> Status {
    device.DeviceSynchronize(host);
    prev.reset();
    for (int s = 0; s < slots; ++s) {
      slot_pending[s].reset();
      sources[s]->Recycle();
    }
    cache.Invalidate(PanelCache::kA);
    cache.Invalidate(PanelCache::kB);
    return status;
  };

  const bool scheduled =
      !blocking && options.transfer_schedule == TransferSchedule::kScheduled;

  for (std::size_t k = 0; k < order.size(); ++k) {
    if (DeadlinePassed(options.deadline)) {
      return fail(Status::Cancelled("gpu runner passed its deadline at chunk " +
                                    std::to_string(k)));
    }
    const partition::ChunkDesc& desc =
        prep.plan.chunks[static_cast<std::size_t>(order[k])];
    const int slot = static_cast<int>(k) % slots;
    finalize_slot(slot);  // reuse of the slot's pool requires its drain
    if (!device_status.ok()) return fail(device_status);

    // Fetch this chunk's panels (H2D engine if not cached — runs
    // concurrently with the other slot's D2H payload).
    const std::string tag =
        "chunk[" + std::to_string(desc.row_panel) + "," +
        std::to_string(desc.col_panel) + "]";
    auto da = cache.Acquire(
        host, *streams[slot], PanelCache::kA, desc.row_panel,
        prep.a_panels[static_cast<std::size_t>(desc.row_panel)],
        options.pinned_host);
    if (!da.ok()) return fail(da.status());
    auto db = cache.Acquire(host, *streams[slot], PanelCache::kB,
                            desc.col_panel, prep.b_panel(desc.col_panel),
                            options.pinned_host);
    if (!db.ok()) return fail(db.status());

    ChunkPipeline pipeline(device, options.spgemm, scratch);
    // A failed stage leaves the chunk's partial buffers with the pipeline;
    // a dynamic source must free them before the run fails.
    auto abandon = [&](const Status& status) {
      ChunkProduct partial = pipeline.TakeProduct();
      kernels::ReleaseChunk(host, *sources[slot], partial);
      return fail(status);
    };

    // Stage 1 + Fig. 6 transfer #1 (this chunk's analysis info).
    if (Status st = pipeline.RunAnalysis(host, *streams[slot], da.value(),
                                         db.value(), *sources[slot], tag);
        !st.ok()) {
      return abandon(st);
    }

    // Fig. 6 transfer #2: first portion of the previous chunk's payload,
    // overlapping this chunk's symbolic phase.
    if (prev && scheduled) {
      const index_t split_row = static_cast<index_t>(
          static_cast<double>(prev->product.rows) * options.split_fraction);
      IssuePayloadRows(device, host, *prev, 0, split_row, options.pinned_host,
                       "portion1");
    }

    // Stage 2 + Fig. 6 transfer #3 (this chunk's symbolic info).
    if (Status st = pipeline.RunSymbolic(host, *streams[slot]); !st.ok()) {
      return abandon(st);
    }

    // Fig. 6 transfer #4: the remainder of the previous chunk's payload,
    // overlapping this chunk's numeric phase.
    if (prev) {
      IssuePayloadRows(device, host, *prev,
                       static_cast<index_t>(prev->rows_transferred),
                       prev->product.rows, options.pinned_host,
                       scheduled ? "portion2" : "payload");
      slot_pending[prev->slot] = std::move(*prev);
      prev.reset();
    }

    // Stage 3.
    pipeline.RunNumeric(host, *streams[slot]);
    cache.MarkUse(*streams[slot], PanelCache::kA, desc.row_panel);
    cache.MarkUse(*streams[slot], PanelCache::kB, desc.col_panel);

    PendingChunk cur;
    cur.slot = slot;
    cur.product = pipeline.TakeProduct();
    cur.stream = streams[slot];
    cur.payload.row_panel = desc.row_panel;
    cur.payload.col_panel = desc.col_panel;
    cur.payload.row_offsets = cur.product.row_offsets;
    cur.payload.col_ids.resize(static_cast<std::size_t>(cur.product.nnz));
    cur.payload.values.resize(static_cast<std::size_t>(cur.product.nnz));
    // product.flops is exact (from the device analysis phase): on
    // estimate-seeded plans this is the lazy correction of desc.flops.
    out.flops += cur.product.flops;
    if (prep.plan.estimated() && cur.product.flops > 0) {
      static obs::LogBucketHistogram& chunk_err =
          obs::MetricsRegistry::Default().GetHistogram(
              "oocgemm_estimate_chunk_flops_rel_error", {},
              "Relative error |estimated - exact| / exact of per-chunk flop "
              "predictions on estimate-seeded plans");
      chunk_err.Record(
          std::abs(static_cast<double>(desc.flops - cur.product.flops)) /
          static_cast<double>(cur.product.flops));
    }

    if (scheduled) {
      prev = std::move(cur);
    } else {
      // The naive double-buffering schedule: queue the whole payload right
      // after the numeric phase (Fig. 5's problematic ordering — the next
      // chunk's info transfer will stall behind it).
      IssuePayloadRows(device, host, cur, 0, cur.product.rows,
                       options.pinned_host, "payload", blocking);
      slot_pending[cur.slot] = std::move(cur);
      if (blocking) {
        // "Data movement was done synchronously": the payload lands and
        // the chunk's buffers are freed before the next chunk starts.
        finalize_slot(slot);
        if (!device_status.ok()) return fail(device_status);
      }
    }
  }

  // Drain: the last chunk's payload has nothing left to overlap with.
  if (prev) {
    IssuePayloadRows(device, host, *prev,
                     static_cast<index_t>(prev->rows_transferred),
                     prev->product.rows, options.pinned_host, "tail");
    slot_pending[prev->slot] = std::move(*prev);
    prev.reset();
  }
  for (int s = 0; s < slots; ++s) finalize_slot(s);
  if (!device_status.ok()) return fail(device_status);
  if (!sink_status.ok()) return fail(sink_status);

  device.DeviceSynchronize(host);
  if (Status health = device.health(); !health.ok()) return fail(health);
  out.makespan = host.now;
  out.chunks_run = static_cast<int>(order.size());
  out.b_panel_uploads = cache.misses(PanelCache::kB) - b_misses_before;
  out.b_panel_hits = cache.hits(PanelCache::kB) - b_hits_before;
  return out;
}

}  // namespace oocgemm::core
