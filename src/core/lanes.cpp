#include "core/lanes.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "partition/chunk.hpp"

namespace oocgemm::core {

namespace {

obs::DoubleCounter& PhaseSeconds(const std::string& phase) {
  return obs::MetricsRegistry::Default().GetDoubleCounter(
      "oocgemm_core_phase_seconds", {{"phase", phase}},
      "Virtual device seconds of each SpGEMM kernel phase "
      "(analysis/symbolic/numeric)");
}

std::vector<int> ChunkOrder(const PreparedProblem& prep, bool reorder) {
  if (reorder) return partition::OrderByFlopsDecreasing(prep.plan.chunks);
  std::vector<int> order(prep.plan.chunks.size());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace

void RecordRun(const char* executor, const RunStats& stats) {
  auto& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("oocgemm_core_runs", {{"executor", executor}},
                 "Completed executor runs")
      .Add(1);
  reg.GetHistogram("oocgemm_core_run_seconds", {{"executor", executor}},
                   "Virtual end-to-end seconds per completed run")
      .Record(stats.total_seconds);
}

RunStats BuildRunStats(const PreparedProblem& prep,
                       std::span<const GpuRunOutput> lanes,
                       const CpuRunOutput* cpu, const vgpu::Device* device) {
  RunStats stats;
  // The runners' per-chunk exact tally (device analysis phase / the CPU
  // runner's nnz(A)-walk).  On estimate-seeded plans it lazily corrects the
  // provisional planned flops; exact plans already agree with it.
  std::int64_t exact_flops = 0;
  for (const GpuRunOutput& lane : lanes) {
    stats.gpu_seconds = std::max(stats.gpu_seconds, lane.makespan);
    stats.nnz_out += lane.nnz;
    stats.num_gpu_chunks += lane.chunks_run;
    stats.b_panel_uploads += lane.b_panel_uploads;
    stats.b_panel_hits += lane.b_panel_hits;
    exact_flops += lane.flops;
  }
  if (cpu != nullptr) {
    stats.cpu_seconds = cpu->busy_seconds;
    stats.nnz_out += cpu->nnz;
    stats.num_cpu_chunks = cpu->chunks_run;
    exact_flops += cpu->flops;
  }
  stats.total_seconds = std::max(stats.gpu_seconds, stats.cpu_seconds);
  stats.num_chunks = prep.num_chunks();
  stats.num_row_panels = prep.plan.num_row_panels;
  stats.num_col_panels = prep.plan.num_col_panels;
  stats.flops = prep.total_flops;

  auto& reg = obs::MetricsRegistry::Default();
  if (prep.plan.estimated()) {
    auto rel_error = [&](const char* quantity, std::int64_t estimated,
                         std::int64_t actual) {
      reg.GetHistogram("oocgemm_estimate_rel_error", {{"quantity", quantity}},
                       "Relative error |estimated - actual| / actual of "
                       "whole-run estimator predictions")
          .Record(std::abs(static_cast<double>(estimated - actual)) /
                  static_cast<double>(actual));
    };
    if (exact_flops > 0) rel_error("flops", prep.total_flops, exact_flops);
    stats.flops = exact_flops;
    if (stats.nnz_out > 0) {
      std::int64_t planned_nnz = 0;
      for (const auto& c : prep.plan.chunks) planned_nnz += c.estimated_nnz;
      rel_error("nnz", planned_nnz, stats.nnz_out);
    }
  }
  if (device != nullptr) {
    stats.device_peak_bytes = device->peak_bytes();
    const vgpu::Trace& trace = device->trace();
    FillStatsFromTrace(trace, stats);
    PhaseSeconds("analysis").Add(trace.BusyTimeLabeled(".analysis"));
    PhaseSeconds("symbolic").Add(trace.BusyTimeLabeled(".symbolic"));
    PhaseSeconds("numeric").Add(trace.BusyTimeLabeled(".numeric"));
  }
  auto& chunk_flops = reg.GetHistogram("oocgemm_core_chunk_flops", {},
                                       "Flops per planned chunk");
  for (const auto& c : prep.plan.chunks) {
    chunk_flops.Record(static_cast<double>(c.flops));
  }
  stats.compression_ratio =
      stats.nnz_out > 0 ? static_cast<double>(stats.flops) /
                              static_cast<double>(stats.nnz_out)
                        : 0.0;
  return stats;
}

sparse::Csr TimedAssemble(const PreparedProblem& prep,
                          std::vector<ChunkPayload> payloads) {
  static obs::DoubleCounter& assemble_seconds =
      obs::MetricsRegistry::Default().GetDoubleCounter(
          "oocgemm_core_assemble_wall_seconds", {},
          "Host wall seconds spent assembling output chunks into C");
  WallTimer timer;
  sparse::Csr c =
      AssembleChunks(prep.plan.row_bounds, prep.plan.col_bounds,
                     std::move(payloads));
  assemble_seconds.Add(timer.Seconds());
  return c;
}

StatusOr<LaneRun> RunLanes(const std::vector<vgpu::Device*>& devices,
                           const sparse::Csr& a, const sparse::Csr& b,
                           double gpu_share, const ExecutorOptions& options,
                           ThreadPool& pool, ChunkSink* sink,
                           int* failed_device) {
  if (failed_device != nullptr) *failed_device = -1;
  std::int64_t capacity = devices.front()->capacity();
  for (const vgpu::Device* d : devices) {
    capacity = std::min(capacity, d->capacity());
  }
  auto prep_or = PrepareProblem(a, b, capacity, options, pool);
  if (!prep_or.ok()) return prep_or.status();
  const PreparedProblem& prep = prep_or.value();

  // Algorithm 4: the leading chunks holding `gpu_share` of the flops go to
  // the devices, dealt round-robin so each gets a comparable mix of heavy
  // and light chunks; the CPU takes the rest.
  const std::vector<int> order = ChunkOrder(prep, options.reorder_chunks);
  const int num_gpu =
      partition::CountGpuChunks(prep.plan.chunks, order, gpu_share);
  std::vector<std::vector<int>> dealt(devices.size());
  for (int i = 0; i < num_gpu; ++i) {
    dealt[static_cast<std::size_t>(i) % devices.size()].push_back(
        order[static_cast<std::size_t>(i)]);
  }
  const std::vector<int> cpu_order(order.begin() + num_gpu, order.end());
  OOC_CHECK(sink == nullptr || cpu_order.empty());

  // "We launch two parallel threads: one thread for GPU and one for CPU."
  // Every lane's virtual clock starts at zero.
  LaneRun run;
  std::vector<ChunkPayload> payloads;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    devices[d]->ResetTimeline();
    vgpu::HostContext host;
    auto lane = RunGpuChunks(*devices[d], host, prep, dealt[d], options, sink);
    if (!lane.ok()) {
      if (failed_device != nullptr) *failed_device = static_cast<int>(d);
      return lane.status();
    }
    for (ChunkPayload& p : lane->payloads) payloads.push_back(std::move(p));
    lane->payloads.clear();
    run.lanes.push_back(std::move(lane.value()));
  }
  CpuRunOutput cpu;
  if (!cpu_order.empty()) cpu = RunCpuChunks(prep, cpu_order, options, pool);
  if (cpu.cancelled) {
    return Status::Cancelled("CPU lane passed its deadline between chunks");
  }

  run.stats = BuildRunStats(prep, run.lanes, &cpu,
                            devices.size() == 1 ? devices.front() : nullptr);
  if (sink == nullptr) {
    for (ChunkPayload& p : cpu.payloads) payloads.push_back(std::move(p));
    run.c = TimedAssemble(prep, std::move(payloads));
  }
  run.row_bounds = prep.plan.row_bounds;
  run.col_bounds = prep.plan.col_bounds;
  return run;
}

}  // namespace oocgemm::core
