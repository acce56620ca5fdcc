// Ablation (paper Sec. IV-B): the asynchronous design choices.
//  1. Transfer schedule: the paper's divided & interleaved transfers
//     (Fig. 6) vs naive double buffering (Fig. 5).
//  2. Split fraction: the 33% first-portion rule, swept 0..1.
//  3. Pinned vs pageable host staging.
//  4. Worst-case pre-allocation bound: how loose the flop-based upper
//     bound on chunk nnz is (the reason the paper manages its own pool).
#include <cstdio>

#include "bench_util.hpp"
#include "core/problem.hpp"
#include "partition/chunk.hpp"

int main() {
  using namespace oocgemm;
  bench::PrintHeader(
      "Ablation - asynchronous execution design choices",
      "IPDPS'21 Sec. IV-B (pre-allocation; dividing & scheduling transfers)",
      "scheduled beats naive; split ~1/3 is near-optimal; pageable staging "
      "hurts; the worst-case bound over-allocates severely");

  bench::BenchContext ctx;
  sparse::Csr a = sparse::PaperMatrix("com-lj", bench::kBenchScaleShift).build();
  std::printf("matrix: com-lj stand-in, %s\n\n", a.DebugString().c_str());

  // --- 1. transfer schedule + 3. pinned staging --------------------------------
  {
    TablePrinter table({"variant", "total", "vs paper design"});
    double base = 0.0;
    struct Variant {
      const char* name;
      core::TransferSchedule schedule;
      bool pinned;
    } variants[] = {
        {"scheduled + pinned (paper)", core::TransferSchedule::kScheduled, true},
        {"naive double-buffering", core::TransferSchedule::kNaive, true},
        {"scheduled + pageable host", core::TransferSchedule::kScheduled,
         false},
    };
    for (const auto& v : variants) {
      core::ExecutorOptions options = ctx.options;
      options.transfer_schedule = v.schedule;
      options.pinned_host = v.pinned;
      vgpu::Device device(bench::BenchDeviceProperties());
      auto r = core::AsyncOutOfCore(device, a, a, options, ctx.pool);
      if (!r.ok()) {
        std::fprintf(stderr, "%s failed\n", v.name);
        return 1;
      }
      if (base == 0.0) base = r->stats.total_seconds;
      table.AddRow({v.name, HumanSeconds(r->stats.total_seconds),
                    Fixed(100.0 * (r->stats.total_seconds / base - 1.0), 1) +
                        " %"});
    }
    table.Print();
    std::printf("\n");
  }

  // --- 2. split-fraction sweep ---------------------------------------------------
  {
    TablePrinter table({"first portion", "total", "vs 33%"});
    double at_33 = 0.0;
    for (double split : {0.0, 0.15, 0.33, 0.5, 0.67, 0.85, 1.0}) {
      core::ExecutorOptions options = ctx.options;
      options.split_fraction = split;
      vgpu::Device device(bench::BenchDeviceProperties());
      auto r = core::AsyncOutOfCore(device, a, a, options, ctx.pool);
      if (!r.ok()) return 1;
      if (split == 0.33) at_33 = r->stats.total_seconds;
      table.AddRow({Fixed(split, 2), HumanSeconds(r->stats.total_seconds),
                    at_33 > 0.0
                        ? Fixed(100.0 * (r->stats.total_seconds / at_33 - 1.0),
                                2) + " %"
                        : "-"});
    }
    table.Print();
    std::printf("(33%% row baseline printed once it is measured; earlier "
                "rows show '-')\n\n");
  }

  // --- 4. upper-bound looseness ---------------------------------------------------
  {
    std::printf("worst-case (flop-based) allocation bound vs actual output "
                "(the paper's reason to manage memory itself):\n");
    TablePrinter table({"matrix", "worst-case bound", "actual nnz",
                        "over-allocation", "estimator error"});
    for (const auto& spec : sparse::PaperMatrices(bench::kBenchScaleShift)) {
      sparse::Csr m = spec.build();
      vgpu::Device device(bench::BenchDeviceProperties());
      auto prep =
          core::PrepareProblem(m, m, device.capacity(), ctx.options, ctx.pool);
      if (!prep.ok()) return 1;
      auto r = core::AsyncOutOfCore(device, m, m, ctx.options, ctx.pool);
      if (!r.ok()) return 1;
      std::int64_t bound_total = 0, est_total = 0;
      for (const auto& c : prep->plan.chunks) {
        bound_total += c.upper_bound_nnz;
        est_total += c.estimated_nnz;
      }
      table.AddRow(
          {spec.abbr, HumanCount(static_cast<double>(bound_total)),
           HumanCount(static_cast<double>(r->stats.nnz_out)),
           Fixed(static_cast<double>(bound_total) /
                     static_cast<double>(r->stats.nnz_out),
                 2) +
               "x",
           Fixed(100.0 * (static_cast<double>(est_total) /
                              static_cast<double>(r->stats.nnz_out) -
                          1.0),
                 1) +
               " %"});
    }
    table.Print();
  }
  return 0;
}
