#include "core/executors.hpp"

#include <numeric>

#include "core/cpu_runner.hpp"
#include "core/gpu_runner.hpp"
#include "core/lanes.hpp"
#include "core/problem.hpp"
#include "core/retry.hpp"
#include "kernels/cost_model.hpp"
#include "kernels/cpu_spgemm.hpp"
#include "sparse/analysis.hpp"

namespace oocgemm::core {

using sparse::Csr;

namespace {

/// One device through the lane runner: the asynchronous pipeline at share
/// 1, Algorithm 4's hybrid at gpu_ratio.
StatusOr<RunResult> RunOnDevice(const char* executor, vgpu::Device& device,
                                const Csr& a, const Csr& b, double gpu_share,
                                const ExecutorOptions& options,
                                ThreadPool& pool) {
  auto r = RetryWithReplan(
      options, [&](const ExecutorOptions& o) -> StatusOr<RunResult> {
        auto run = RunLanes({&device}, a, b, gpu_share, o, pool);
        if (!run.ok()) return run.status();
        return RunResult{std::move(run->c), run->stats};
      });
  if (r.ok()) RecordRun(executor, r->stats);
  return r;
}

}  // namespace

StatusOr<RunResult> SyncOutOfCore(vgpu::Device& device, const Csr& a,
                                  const Csr& b, const ExecutorOptions& options,
                                  ThreadPool& pool) {
  // The baseline uses one working set at a time: no double buffering.
  ExecutorOptions sync_options = options;
  sync_options.plan.buffers = 1;
  auto r = RetryWithReplan(
      sync_options, [&](const ExecutorOptions& o) -> StatusOr<RunResult> {
        auto prep_or = PrepareProblem(a, b, device.capacity(), o, pool);
        if (!prep_or.ok()) return prep_or.status();
        const PreparedProblem& prep = prep_or.value();
        device.ResetTimeline();
        vgpu::HostContext host;
        GpuWorkspace workspace(device, host, prep.plan.max_a_panel_bytes,
                               prep.plan.max_b_panel_bytes);
        // Algorithm 3: the row-major chunk grid, one chunk at a time.
        std::vector<int> order(prep.plan.chunks.size());
        std::iota(order.begin(), order.end(), 0);
        auto run = RunGpuChunks(device, host, prep, order, o,
                                /*sink=*/nullptr, &workspace);
        if (!run.ok()) return run.status();
        // The stats read the trace before the workspace's frees reach it.
        RunResult result;
        result.stats = BuildRunStats(prep, std::span(&run.value(), 1),
                                     /*cpu=*/nullptr, &device);
        result.c = TimedAssemble(prep, std::move(run->payloads));
        return result;
      });
  if (r.ok()) RecordRun("sync", r->stats);
  return r;
}

StatusOr<RunResult> AsyncOutOfCore(vgpu::Device& device, const Csr& a,
                                   const Csr& b,
                                   const ExecutorOptions& options,
                                   ThreadPool& pool) {
  return RunOnDevice("async", device, a, b, 1.0, options, pool);
}

StatusOr<RunResult> CpuMulticore(const Csr& a, const Csr& b,
                                 const ExecutorOptions& options,
                                 ThreadPool& pool) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch");
  }
  kernels::CpuSpgemmOptions cpu_options;
  cpu_options.accumulator = options.spgemm.accumulator;
  cpu_options.routing = options.spgemm.routing;
  Csr c = kernels::CpuSpgemm(a, b, pool, cpu_options);

  RunResult result;
  result.stats.flops = sparse::TotalFlops(a, b);
  result.stats.nnz_out = c.nnz();
  result.stats.compression_ratio =
      c.nnz() > 0 ? static_cast<double>(result.stats.flops) /
                        static_cast<double>(c.nnz())
                  : 0.0;
  result.stats.total_seconds = kernels::kCostModel.CpuChunkSeconds(
      result.stats.flops, result.stats.compression_ratio);
  // The calibrator's CPU-rate fit must see CPU-only traffic too.
  RecordCpuWork(result.stats.flops, result.stats.total_seconds);
  result.stats.cpu_seconds = result.stats.total_seconds;
  result.stats.num_chunks = 1;
  result.stats.num_cpu_chunks = 1;
  result.c = std::move(c);
  RecordRun("cpu", result.stats);
  return result;
}

StatusOr<RunResult> Hybrid(vgpu::Device& device, const Csr& a, const Csr& b,
                           const ExecutorOptions& options, ThreadPool& pool) {
  return RunOnDevice("hybrid", device, a, b, options.gpu_ratio, options, pool);
}

StatusOr<StreamedRunResult> AsyncOutOfCoreStreamed(
    vgpu::Device& device, const Csr& a, const Csr& b,
    const ExecutorOptions& options, ThreadPool& pool, ChunkSink& sink) {
  auto r = RetryWithReplan(
      options, [&](const ExecutorOptions& o) -> StatusOr<StreamedRunResult> {
        auto run = RunLanes({&device}, a, b, 1.0, o, pool, &sink);
        if (!run.ok()) return run.status();
        return StreamedRunResult{run->stats, std::move(run->row_bounds),
                                 std::move(run->col_bounds)};
      });
  if (r.ok()) RecordRun("async-streamed", r->stats);
  return r;
}

}  // namespace oocgemm::core
