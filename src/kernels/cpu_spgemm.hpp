// Multicore CPU SpGEMM in the style of Nagasaka et al. (the paper's CPU
// baseline and the CPU half of the hybrid executor, Section III-C).
//
// Two-phase hash algorithm: a parallel symbolic pass counts output-row nnz
// with per-thread hash tables, a prefix sum sizes the output, and a
// parallel numeric pass fills it.  Per-thread accumulators are reused
// across rows (no allocation in the row loop).  The paper selected this
// implementation over MKL because it handles 64-bit offsets (large
// matrices) and is faster on small ones.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "kernels/accumulators.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::kernels {

struct CpuSpgemmOptions {
  AccumulatorKind accumulator = AccumulatorKind::kHash;  // Nagasaka's choice
  /// Calibrated routing scales (identity = static cost model).
  RouteCalibration routing;
};

/// C = A * B using `pool` workers.  Aborts on dimension mismatch.
sparse::Csr CpuSpgemm(const sparse::Csr& a, const sparse::Csr& b,
                      ThreadPool& pool, const CpuSpgemmOptions& options = {});

/// Serial convenience (uses a degenerate pool-free path).
sparse::Csr CpuSpgemmSerial(const sparse::Csr& a, const sparse::Csr& b,
                            const CpuSpgemmOptions& options = {});

}  // namespace oocgemm::kernels
