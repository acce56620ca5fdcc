#include "kernels/cpu_spgemm.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/prefix_sum.hpp"
#include "kernels/binning.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/row_analysis.hpp"
#include "kernels/spgemm_phases.hpp"
#include "obs/kernel_metrics.hpp"

namespace oocgemm::kernels {

using sparse::Csr;
using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;

namespace {

/// Rows per parallel block (amortizes task dispatch).
constexpr std::size_t kMinGrain = 64;

struct ThreadScratch {
  AccumulatorScratch acc;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `body(rows_slice, worker)` over one routed group, parallelized
/// across slices of the group's row list, and charges the group's wall time
/// to the given per-strategy double counter.
template <typename Body>
void ForEachGroup(const RoutedGroups& routed, ThreadPool* pool, bool symbolic,
                  Body body) {
  for (int g = 0; g < kNumRowGroups; ++g) {
    const auto& group_rows = routed.groups.groups[static_cast<std::size_t>(g)];
    if (group_rows.empty()) continue;
    const AccumulatorKind kind = routed.strategy[static_cast<std::size_t>(g)];
    const auto t0 = std::chrono::steady_clock::now();
    auto block = [&](std::size_t lo, std::size_t hi, std::size_t w) {
      std::vector<index_t> rows(group_rows.begin() + static_cast<std::ptrdiff_t>(lo),
                                group_rows.begin() + static_cast<std::ptrdiff_t>(hi));
      body(rows, kind, w);
    };
    if (pool) {
      pool->ParallelFor(0, group_rows.size(), block, kMinGrain);
    } else {
      block(0, group_rows.size(), 0);
    }
    const obs::KernelStrategyMetrics m =
        obs::KernelMetricsFor(AccumulatorKindName(kind));
    (symbolic ? m.symbolic_seconds : m.numeric_seconds)->Add(SecondsSince(t0));
  }
}

Csr RunTwoPhase(const Csr& a, const Csr& b, ThreadPool* pool,
                const CpuSpgemmOptions& options) {
  OOC_CHECK(a.cols() == b.rows());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t num_threads = pool ? pool->num_threads() : 1;
  std::vector<ThreadScratch> scratch(num_threads);

  // Row analysis (flops per row drive the routing decision).
  std::vector<std::int64_t> b_row_nnz = RowNnz(b);
  std::vector<std::int64_t> row_flops(n);
  std::vector<std::int64_t> row_nnz(n);

  auto analyze_block = [&](std::size_t lo, std::size_t hi, std::size_t /*w*/) {
    AnalyzeRows(a, static_cast<index_t>(lo), static_cast<index_t>(hi),
                b_row_nnz, row_flops.data() + lo);
  };
  if (pool) {
    pool->ParallelFor(0, n, analyze_block, kMinGrain);
  } else {
    analyze_block(0, n, 0);
  }

  // Pre-symbolic routing: density comes from the occupancy model since no
  // exact output nnz exists yet.
  const RoutedGroups routed_symbolic =
      RouteRows(row_flops.data(), row_flops.data(), nullptr, n, b.cols(),
                options.accumulator, options.routing);

  // Symbolic phase, one (possibly parallel) sweep per routed work class.
  ForEachGroup(routed_symbolic, pool, /*symbolic=*/true,
               [&](const std::vector<index_t>& rows, AccumulatorKind kind,
                   std::size_t w) {
                 SymbolicRows(a.row_offsets().data(), a.col_ids().data(),
                              b.row_offsets().data(), b.col_ids().data(),
                              b.cols(), rows, row_flops.data(), kind,
                              scratch[w].acc, row_nnz.data());
               });

  std::vector<offset_t> row_offsets(n + 1);
  const std::int64_t nnz =
      ExclusiveScan(row_nnz.data(), n, row_offsets.data());

  std::vector<index_t> out_cols(static_cast<std::size_t>(nnz));
  std::vector<value_t> out_vals(static_cast<std::size_t>(nnz));

  // Re-route on exact per-row nnz for the numeric phase — the symbolic
  // pass upgraded the density estimate for free.
  const RoutedGroups routed_numeric =
      RouteRows(row_flops.data(), row_flops.data(), row_nnz.data(), n,
                b.cols(), options.accumulator, options.routing);
  RecordRoutedRows(routed_numeric);

  ForEachGroup(routed_numeric, pool, /*symbolic=*/false,
               [&](const std::vector<index_t>& rows, AccumulatorKind kind,
                   std::size_t w) {
                 NumericRows(a.row_offsets().data(), a.col_ids().data(),
                             a.values().data(), b.row_offsets().data(),
                             b.col_ids().data(), b.values().data(), b.cols(),
                             rows, row_flops.data(), kind, scratch[w].acc,
                             row_offsets.data(), out_cols.data(),
                             out_vals.data());
               });

  if (options.accumulator == AccumulatorKind::kAuto) {
    RecordRoutingQuality(routed_numeric, row_flops.data(), row_nnz.data(),
                         b.cols());
  }

  return Csr(a.rows(), b.cols(), std::move(row_offsets), std::move(out_cols),
             std::move(out_vals));
}

}  // namespace

Csr CpuSpgemm(const Csr& a, const Csr& b, ThreadPool& pool,
              const CpuSpgemmOptions& options) {
  return RunTwoPhase(a, b, &pool, options);
}

Csr CpuSpgemmSerial(const Csr& a, const Csr& b,
                    const CpuSpgemmOptions& options) {
  return RunTwoPhase(a, b, nullptr, options);
}

}  // namespace oocgemm::kernels
