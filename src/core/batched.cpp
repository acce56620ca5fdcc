#include "core/batched.hpp"

#include <algorithm>
#include <utility>

#include "core/gpu_runner.hpp"
#include "core/lanes.hpp"
#include "core/problem.hpp"
#include "core/retry.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::core {

namespace {

StatusOr<BatchedRunResult> BatchedOutOfCoreImpl(
    vgpu::Device& device, const std::vector<BatchJobSpec>& jobs,
    const std::vector<const sparse::Csr*>& as,
    const std::vector<std::shared_ptr<const partition::PanelPlan>>& priors,
    const sparse::Csr& b, const ExecutorOptions& options, ThreadPool& pool) {
  auto preps_or = PrepareSharedOperandProblems(as, b, device.capacity(),
                                               options, pool, priors);
  if (!preps_or.ok()) return preps_or.status();
  const std::vector<PreparedProblem>& preps = preps_or.value();

  const std::size_t n = jobs.size();
  const int nc = preps.front().plan.num_col_panels;

  // One workspace sized for the largest member serves every segment: pool
  // pre-allocation happens once per batch, and the panel cache — holding
  // the shared B column panels — survives across jobs.  Each member's plan
  // fits the budget alone; their maxima together may not.
  std::vector<const partition::PanelPlan*> plans;
  for (const PreparedProblem& p : preps) plans.push_back(&p.plan);
  const partition::WorkspaceSizes sizes = partition::WorkspaceFor(plans);
  const std::int64_t budget = partition::PlanBudget(device.capacity());
  if (sizes.bytes() > budget) {
    return Status::ResourceExhausted(
        "batch workspace of " + std::to_string(sizes.bytes()) +
        " bytes exceeds the plan budget of " + std::to_string(budget));
  }

  device.ResetTimeline();
  vgpu::HostContext host;
  GpuWorkspace workspace(device, host, sizes.pool, sizes.a_panel,
                         sizes.b_panel);
  OOC_RETURN_IF_ERROR(workspace.init_status());

  // Segment orders: chunks of job i touching column panel j, flop-ordered
  // within the segment when reordering is on (Section IV-C, constrained to
  // the batch's column-panel-major walk).
  std::vector<std::vector<std::vector<int>>> segments(n);
  for (std::size_t i = 0; i < n; ++i) {
    segments[i].resize(static_cast<std::size_t>(nc));
    for (int id = 0; id < preps[i].num_chunks(); ++id) {
      const partition::ChunkDesc& desc =
          preps[i].plan.chunks[static_cast<std::size_t>(id)];
      segments[i][static_cast<std::size_t>(desc.col_panel)].push_back(id);
    }
    if (options.reorder_chunks) {
      for (std::vector<int>& seg : segments[i]) {
        std::sort(seg.begin(), seg.end(), [&](int lhs, int rhs) {
          return preps[i].plan.chunks[static_cast<std::size_t>(lhs)].flops >
                 preps[i].plan.chunks[static_cast<std::size_t>(rhs)].flops;
        });
      }
    }
  }

  ExecutorOptions seg_options = options;
  // Members' deadlines are segment-granular.
  seg_options.deadline = std::chrono::steady_clock::time_point::max();

  // Per-job accumulation across the job's (job x column panel) segments:
  // one lane whose makespan is when its latest segment drained.
  std::vector<GpuRunOutput> acc(n);
  std::vector<bool> cancelled(n, false);
  for (int j = 0; j < nc; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancelled[i]) continue;
      if (DeadlinePassed(jobs[i].deadline)) {
        cancelled[i] = true;
        continue;
      }
      const std::vector<int>& order = segments[i][static_cast<std::size_t>(j)];
      if (order.empty()) continue;
      // A panel ids are per-job row indices; forget the previous job's
      // panels so identical indices cannot alias across matrices.
      workspace.cache.Invalidate(PanelCache::kA);
      auto run = RunGpuChunks(device, host, preps[i], order, seg_options,
                              /*sink=*/nullptr, &workspace);
      if (!run.ok()) return run.status();  // fails the whole batch
      for (ChunkPayload& p : run->payloads) {
        acc[i].payloads.push_back(std::move(p));
      }
      acc[i].nnz += run->nnz;
      acc[i].flops += run->flops;
      acc[i].chunks_run += run->chunks_run;
      acc[i].b_panel_uploads += run->b_panel_uploads;
      acc[i].b_panel_hits += run->b_panel_hits;
      acc[i].makespan = run->makespan;
    }
  }
  device.DeviceSynchronize(host);

  BatchedRunResult out;
  out.batch_makespan = host.now;
  out.num_col_panels = nc;
  out.b_panel_uploads = workspace.cache.misses(PanelCache::kB);
  out.b_panel_hits = workspace.cache.hits(PanelCache::kB);
  out.jobs.resize(n);
  // The batch shares one timeline, so members take no trace fields but an
  // integer share of its transfer bytes; the shares of the members that
  // finish add up to the batch's total.
  const std::int64_t h2d = device.trace().Bytes(vgpu::OpCategory::kH2D);
  const std::int64_t d2h = device.trace().Bytes(vgpu::OpCategory::kD2H);
  const std::int64_t finished =
      std::count(cancelled.begin(), cancelled.end(), false);
  std::int64_t rank = 0;  // among the members that finish
  auto share = [&](std::int64_t total) {
    return total / finished + (rank < total % finished ? 1 : 0);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (cancelled[i]) {
      out.jobs[i].status =
          Status::Cancelled("batched job " + std::to_string(i) +
                            " passed its deadline between segments");
      continue;
    }
    RunResult& rr = out.jobs[i].run;
    rr.stats = BuildRunStats(preps[i], std::span(&acc[i], 1), /*cpu=*/nullptr,
                             /*device=*/nullptr);
    rr.stats.device_peak_bytes = device.peak_bytes();
    rr.stats.bytes_h2d = share(h2d);
    rr.stats.bytes_d2h = share(d2h);
    ++rank;
    rr.c = TimedAssemble(preps[i], std::move(acc[i].payloads));
  }
  return out;
}

}  // namespace

StatusOr<BatchedRunResult> BatchedOutOfCore(vgpu::Device& device,
                                            const std::vector<BatchJobSpec>& jobs,
                                            const sparse::Csr& b,
                                            const ExecutorOptions& options,
                                            ThreadPool& pool) {
  if (jobs.empty()) {
    return Status::InvalidArgument("BatchedOutOfCore: empty batch");
  }
  std::vector<const sparse::Csr*> as;
  std::vector<std::shared_ptr<const partition::PanelPlan>> priors;
  as.reserve(jobs.size());
  priors.reserve(jobs.size());
  for (const BatchJobSpec& spec : jobs) {
    if (spec.a == nullptr) {
      return Status::InvalidArgument("BatchedOutOfCore: null operand");
    }
    as.push_back(spec.a);
    priors.push_back(spec.plan);
  }

  // Same pool-overflow policy as the single-job executors: replan the whole
  // batch with a doubled safety factor (chunks shrink together, so the
  // shared column split stays common), each member from its own estimate.
  auto r = RetryWithReplan(options, [&](const ExecutorOptions& o) {
    return BatchedOutOfCoreImpl(device, jobs, as, priors, b, o, pool);
  });
  if (r.ok()) {
    obs::MetricsRegistry::Default()
        .GetCounter("oocgemm_core_runs", {{"executor", "batched"}},
                    "Completed executor runs")
        .Add(1);
  }
  return r;
}

}  // namespace oocgemm::core
