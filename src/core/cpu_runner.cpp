#include "core/cpu_runner.hpp"

#include <cmath>

#include "kernels/cpu_spgemm.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::core {

namespace {

/// Exact multiply flops of one chunk: O(nnz(a_panel)) walk over A's column
/// ids against the B panel's row lengths.  Only paid on estimate-seeded
/// plans, where ChunkDesc::flops is a prediction — the exact count both
/// feeds the cost model and corrects the run stats lazily.
std::int64_t ExactChunkFlops(const sparse::Csr& a_panel,
                             const sparse::Csr& b_panel) {
  std::int64_t products = 0;
  for (sparse::index_t k : a_panel.col_ids()) {
    products += b_panel.row_nnz(k);
  }
  return 2 * products;
}

}  // namespace

void RecordCpuWork(std::int64_t flops, double seconds) {
  static obs::Counter& flops_total = obs::MetricsRegistry::Default().GetCounter(
      "oocgemm_core_cpu_flops", {}, "Flops executed on the CPU path");
  static obs::DoubleCounter& seconds_total =
      obs::MetricsRegistry::Default().GetDoubleCounter(
          "oocgemm_core_cpu_seconds", {},
          "Modeled busy seconds of the CPU path");
  flops_total.Add(flops);
  seconds_total.Add(seconds);
}

CpuRunOutput RunCpuChunks(const PreparedProblem& prep,
                          const std::vector<int>& order,
                          const ExecutorOptions& options, ThreadPool& pool) {
  CpuRunOutput out;
  const kernels::CostModel& cm = options.spgemm.cost_model;
  kernels::CpuSpgemmOptions cpu_options;
  cpu_options.accumulator = options.spgemm.accumulator;
  cpu_options.routing = options.spgemm.routing;
  auto& chunk_err = obs::MetricsRegistry::Default().GetHistogram(
      "oocgemm_estimate_chunk_flops_rel_error", {},
      "Relative error |estimated - exact| / exact of per-chunk flop "
      "predictions on estimate-seeded plans");

  for (int id : order) {
    if (DeadlinePassed(options.deadline)) {
      out.cancelled = true;
      return out;
    }
    const partition::ChunkDesc& desc =
        prep.plan.chunks[static_cast<std::size_t>(id)];
    const sparse::Csr& a_panel =
        prep.a_panels[static_cast<std::size_t>(desc.row_panel)];
    const sparse::Csr& b_panel = prep.b_panel(desc.col_panel);
    sparse::Csr c = kernels::CpuSpgemm(a_panel, b_panel, pool, cpu_options);

    std::int64_t chunk_flops = desc.flops;
    if (prep.plan.estimated()) {
      chunk_flops = ExactChunkFlops(a_panel, b_panel);
      if (chunk_flops > 0) {
        chunk_err.Record(
            std::abs(static_cast<double>(desc.flops - chunk_flops)) /
            static_cast<double>(chunk_flops));
      }
    }
    const double cr = c.nnz() > 0 ? static_cast<double>(chunk_flops) /
                                        static_cast<double>(c.nnz())
                                  : 1.0;
    const double chunk_seconds = cm.CpuChunkSeconds(chunk_flops, cr);
    out.busy_seconds += chunk_seconds;
    out.flops += chunk_flops;
    out.nnz += c.nnz();
    ++out.chunks_run;
    RecordCpuWork(chunk_flops, chunk_seconds);

    ChunkPayload payload;
    payload.row_panel = desc.row_panel;
    payload.col_panel = desc.col_panel;
    payload.row_offsets = c.row_offsets();
    payload.col_ids = c.col_ids();
    payload.values = c.values();
    out.payloads.push_back(std::move(payload));
  }
  return out;
}

}  // namespace oocgemm::core
