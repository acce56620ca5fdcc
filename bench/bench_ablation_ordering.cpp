// Ablation: the effect of the matrix's vertex/row order on the out-of-core
// pipeline.  Row order determines how work clusters into chunks — the
// variance that Fig. 9's chunk reordering exploits — and how well panels
// compress.  We compare the natural (community/crawl) order, a random
// shuffle, a degree-descending sort, and Reverse Cuthill-McKee.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/problem.hpp"
#include "sparse/reorder.hpp"

namespace {

using namespace oocgemm;

struct OrderingResult {
  double hybrid_gflops = 0.0;
  double chunk_flop_gini = 0.0;
  int chunks = 0;
};

OrderingResult RunOrdering(const sparse::Csr& m, bench::BenchContext& ctx) {
  OrderingResult out;
  vgpu::Device device(bench::BenchDeviceProperties());
  auto prep = core::PrepareProblem(m, m, device.capacity(), ctx.options,
                                   ctx.pool);
  if (prep.ok()) {
    std::vector<double> flops;
    for (const auto& c : prep->plan.chunks) {
      flops.push_back(static_cast<double>(c.flops));
    }
    out.chunk_flop_gini = GiniCoefficient(std::move(flops));
    out.chunks = prep->num_chunks();
  }
  auto r = core::Hybrid(device, m, m, ctx.options, ctx.pool);
  if (r.ok()) out.hybrid_gflops = r->stats.gflops();
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation - matrix ordering vs chunk skew and hybrid throughput",
      "relates to IPDPS'21 Sec. V-E (work distribution across chunks)",
      "orderings that cluster dense rows raise chunk-flop skew; the "
      "pipeline tolerates all of them (results identical), with modest "
      "throughput differences");

  bench::BenchContext ctx;
  for (const char* abbr : {"com-lj", "wiki0206"}) {
    sparse::DatasetSpec spec =
        sparse::PaperMatrix(abbr, bench::kBenchScaleShift);
    sparse::Csr natural = spec.build();
    std::printf("-- %s --\n", spec.abbr.c_str());

    TablePrinter table({"ordering", "chunks", "chunk-flop gini",
                        "hybrid GFLOPS"});
    struct Variant {
      const char* name;
      sparse::Csr matrix;
    } variants[] = {
        {"natural (crawl/community)", natural},
        {"random shuffle",
         sparse::PermuteSymmetric(
             natural, sparse::RandomPermutation(natural.rows(), 99))},
        {"degree descending",
         sparse::PermuteSymmetric(natural,
                                  sparse::DegreeDescendingOrder(natural))},
        {"reverse Cuthill-McKee",
         sparse::PermuteSymmetric(natural,
                                  sparse::ReverseCuthillMcKee(natural))},
    };
    for (auto& v : variants) {
      OrderingResult r = RunOrdering(v.matrix, ctx);
      table.AddRow({v.name, std::to_string(r.chunks),
                    Fixed(r.chunk_flop_gini, 3), Fixed(r.hybrid_gflops, 3)});
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
