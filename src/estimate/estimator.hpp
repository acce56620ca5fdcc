// OCEAN-style sampled SpGEMM output estimation (no symbolic pass).
//
// Exact admission/planning today runs `sparse::EstimateRowNnz` /
// `AnalyzeChunks`, which walk all of nnz(A) and run a real symbolic
// multiply on sampled rows — O(flops) on the sampled share.  At serve
// scale that analysis sits on the submit hot path of every job.  The OCEAN
// paper (PAPERS.md) shows structure-only sampling is enough to drive
// planning: this module estimates per-row products (flops/2), output nnz
// and compression ratio of C = A*B from
//
//   1. *Strided column draws*: for each row of A, at most
//      `kMaxDrawsPerRow` of its column ids are visited at a fixed stride
//      with a seeded random phase; each drawn id k contributes |B(k,:)|,
//      scaled by d/draws.  Cost O(min(d, draws)) per row — never O(flops).
//   2. *Row sampling + occupancy*: a seeded ~`row_sample_fraction` subset
//      of A's rows additionally gathers the drawn B rows' column ids and
//      counts distinct ids.  An effective-width occupancy model
//      D = W*(1 - exp(-P/W)) is fit to the drawn (products, distinct)
//      pair and extrapolated to the row's full product count, giving the
//      row's estimated output nnz without a symbolic pass.
//   3. *Bucket calibration*: unsampled rows reuse the mean distinct/product
//      ratio of sampled rows in the same log4(products) bucket (nearest
//      bucket fallback), mirroring `sparse::EstimateRowNnz`'s binning.
//
// The estimate carries its own reliability signal: the classical simple-
// random-sampling standard error of the distinct/products ratio across
// sampled rows.  Consumers (serve admission) fall back to the exact path
// when `reliable` is false — small matrices are cheap to analyze exactly,
// and large matrices sample enough rows to pass the check.
//
// Everything is deterministic in `seed`: identical inputs and options give
// bit-identical estimates (property-tested in test_estimate_accuracy).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace oocgemm::estimate {

struct EstimatorOptions {
  /// Fraction of A's rows that get the distinct-count (occupancy) treatment.
  double row_sample_fraction = 0.05;
  std::uint64_t seed = 1;
};

/// Cap on column draws per row of A; rows at most this long are exact.
inline constexpr int kMaxDrawsPerRow = 64;
/// Below this many sampled rows the estimate reports reliable == false.
inline constexpr int kMinSampleRows = 32;
/// Reliability cutoff on the sampled ratio's relative standard error.
inline constexpr double kMaxRelStderr = 0.35;

/// Structure-only estimate of C = A*B.  All quantities are estimates; the
/// only exact guarantees are determinism in the seed and row_products[i]
/// == exact products for rows with <= kMaxDrawsPerRow nonzeros.
struct ProductEstimate {
  /// Per-row of A: estimated multiply count (sum over k in A(i,:) of
  /// |B(k,:)|).  flops(i) = 2 * row_products[i].
  std::vector<double> row_products;
  /// Per-row of A: estimated nnz of C(i,:).
  std::vector<double> row_nnz;

  double total_products = 0.0;
  double total_nnz = 0.0;
  double total_flops = 0.0;        // 2 * total_products
  double compression_ratio = 0.0;  // total_flops / total_nnz (repo convention)

  /// Relative standard error of the sampled distinct/products ratio under
  /// simple random sampling (finite-population corrected).
  double rel_stderr = 0.0;
  std::int64_t sampled_rows = 0;
  /// False when too few rows were sampled or rel_stderr exceeds the cutoff;
  /// admission falls back to the exact analysis in that case.
  bool reliable = false;

  /// Wall-clock seconds spent inside EstimateProduct (feeds the
  /// oocgemm_estimate_analysis_seconds_total{mode} accounting).
  double analysis_seconds = 0.0;
};

/// Estimates the product structure of a * b.  Requires a.cols() == b.rows()
/// (unchecked here; callers validate operands before estimating).
ProductEstimate EstimateProduct(const sparse::Csr& a, const sparse::Csr& b,
                                const EstimatorOptions& opts = {});

/// Per-panel rollup of a ProductEstimate over row-panel boundaries
/// (`bounds` has num_panels + 1 entries, as produced by the partition
/// layer).  Upper fields inflate by the estimate's uncertainty
/// (1 + 2 * rel_stderr) — a ~95% confidence bound under the SRS model.
struct PanelTotals {
  std::vector<double> panel_products;
  std::vector<double> panel_nnz;
  std::vector<double> panel_nnz_upper;
};

PanelTotals AccumulatePanels(const ProductEstimate& est,
                             const std::vector<sparse::index_t>& bounds);

/// Occupancy extrapolation: expected distinct count after `products` draws
/// into an effective width `effective_width` — D = W*(1 - exp(-P/W)).  The
/// same model the estimator fits per sampled row; exported so the kernel
/// router can turn a row's product count into an expected output density
/// without a symbolic pass.
double OccupancyDistinct(double effective_width, double products);

}  // namespace oocgemm::estimate
