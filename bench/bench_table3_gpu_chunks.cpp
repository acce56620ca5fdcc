// Table III: the number of chunks assigned to the GPU under the fixed 65%
// flop ratio, versus the number that gives the best hybrid performance
// (found by exhaustive search over all prefix sizes of the flop-sorted
// order).  Paper: the 65% rule matches the best case on 7 of 9 matrices
// and costs < 5% on the rest.
#include <cstdio>

#include "bench_util.hpp"
#include "core/cpu_runner.hpp"
#include "core/gpu_runner.hpp"
#include "core/problem.hpp"
#include "partition/chunk.hpp"

namespace {

using namespace oocgemm;

/// Hybrid makespan with the first `num_gpu` flop-sorted chunks on the GPU.
double HybridSeconds(const core::PreparedProblem& prep,
                     const std::vector<int>& order, int num_gpu,
                     const core::ExecutorOptions& options, ThreadPool& pool) {
  vgpu::Device device(bench::BenchDeviceProperties());
  vgpu::HostContext gpu_host;
  std::vector<int> gpu_order(order.begin(), order.begin() + num_gpu);
  std::vector<int> cpu_order(order.begin() + num_gpu, order.end());
  auto gpu = core::RunGpuChunks(device, gpu_host, prep, gpu_order, options);
  OOC_CHECK(gpu.ok());
  core::CpuRunOutput cpu = core::RunCpuChunks(prep, cpu_order, options, pool);
  return std::max(gpu->makespan, cpu.busy_seconds);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Table III - GPU chunk count: fixed S/(S+1) ratio vs exhaustive best",
      "IPDPS'21 Sec. V-E, Table III",
      "the 65% rule picks the best count for most matrices; small loss "
      "otherwise");

  bench::BenchContext ctx;
  TablePrinter table({"matrix", "chunks", "best #GPU", "ratio-rule #GPU", "match",
                      "perf drop"});
  for (const auto& spec : sparse::PaperMatrices(bench::kBenchScaleShift)) {
    sparse::Csr a = spec.build();
    vgpu::Device plan_device(bench::BenchDeviceProperties());
    auto prep = core::PrepareProblem(a, a, plan_device.capacity(),
                                     ctx.options, ctx.pool);
    if (!prep.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.abbr.c_str(),
                   prep.status().ToString().c_str());
      return 1;
    }
    const std::vector<partition::ChunkDesc>& chunks = prep->plan.chunks;
    std::vector<int> order = partition::OrderByFlopsDecreasing(chunks);
    const int ratio_count =
        partition::CountGpuChunks(chunks, order, ctx.options.gpu_ratio);

    int best_count = 0;
    double best_seconds = 1e300;
    for (int g = 0; g <= prep->num_chunks(); ++g) {
      const double t =
          HybridSeconds(prep.value(), order, g, ctx.options, ctx.pool);
      if (t < best_seconds) {
        best_seconds = t;
        best_count = g;
      }
    }
    const double ratio_seconds = HybridSeconds(prep.value(), order,
                                               ratio_count, ctx.options,
                                               ctx.pool);
    const double drop = ratio_seconds / best_seconds - 1.0;
    table.AddRow({spec.abbr, std::to_string(prep->num_chunks()),
                  std::to_string(best_count), std::to_string(ratio_count),
                  best_count == ratio_count ? "yes" : "no",
                  Fixed(100.0 * drop, 2) + " %"});
  }
  table.Print();
  return 0;
}
