#include "estimate/estimator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace oocgemm::estimate {

namespace {

// Distinct RNG streams so the draw phases and the row-sampling coin flips
// never interleave (adding a draw to one row must not re-sample another).
constexpr std::uint64_t kDrawStream = 0x0cea11e57ull;
constexpr std::uint64_t kSampleStream = 0x0cea5a3dull;

// Cap on column ids gathered per sampled row; beyond it the drawn B rows
// are themselves strided.  Bounds the per-row cost at O(cap log cap)
// regardless of B's density.
constexpr std::int64_t kMaxGatherPerRow = 4096;

// Factor-4 product buckets, like sparse::EstimateRowNnz's calibration bins.
constexpr int kNumBuckets = 40;  // 4^40 covers any int64-range product count

int ProductBucket(double products) {
  int b = 0;
  while (products > 1.0 && b < kNumBuckets - 1) {
    products *= 0.25;
    ++b;
  }
  return b;
}

// Solves distinct = w * (1 - exp(-products / w)) for the effective width w.
// The RHS is monotone increasing in w, so bisection converges; we search on
// a log scale because w spans many orders of magnitude.
double SolveEffectiveWidth(double distinct, double products) {
  // No collisions observed: the width is unbounded from this sample.
  if (distinct >= products - 0.5) return std::numeric_limits<double>::infinity();
  double lo = std::max(distinct, 1.0);          // w >= distinct always
  double hi = std::max(lo * 2.0, products * products);  // effectively "no collisions"
  for (int it = 0; it < 64; ++it) {
    const double w = std::sqrt(lo * hi);
    const double d = w * (1.0 - std::exp(-products / w));
    if (d < distinct) {
      lo = w;
    } else {
      hi = w;
    }
    if (hi / lo < 1.0 + 1e-9) break;
  }
  return std::sqrt(lo * hi);
}

}  // namespace

double OccupancyDistinct(double w, double products) {
  if (!std::isfinite(w)) return products;
  if (w <= 0.0) return 0.0;
  return w * (1.0 - std::exp(-products / w));
}

ProductEstimate EstimateProduct(const sparse::Csr& a, const sparse::Csr& b,
                                const EstimatorOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();

  ProductEstimate est;
  const sparse::index_t rows = a.rows();
  est.row_products.assign(static_cast<std::size_t>(rows), 0.0);
  est.row_nnz.assign(static_cast<std::size_t>(rows), 0.0);

  const double max_row_nnz = static_cast<double>(b.cols());

  Pcg32 draw_rng(opts.seed, kDrawStream);
  Pcg32 sample_rng(opts.seed, kSampleStream);

  const std::vector<sparse::index_t>& acols = a.col_ids();
  const std::vector<sparse::index_t>& bcols = b.col_ids();

  // Pass 1: products for every row; occupancy-based distinct for sampled
  // rows.  Unsampled rows get a -1 sentinel and are calibrated in pass 2.
  std::vector<double> bucket_ratio_sum(kNumBuckets, 0.0);
  std::vector<std::int64_t> bucket_rows(kNumBuckets, 0);
  double samp_products_sum = 0.0, samp_nnz_sum = 0.0;
  std::vector<std::pair<double, double>> samples;  // (products, est distinct)
  // Distinct counting by epoch marks: one shared array, bumped per sampled
  // row — O(gathered ids) per row instead of a sort, same exact count.
  std::vector<sparse::index_t> mark(static_cast<std::size_t>(b.cols()), 0);
  sparse::index_t epoch = 0;

  for (sparse::index_t i = 0; i < rows; ++i) {
    const sparse::offset_t beg = a.row_begin(i);
    const sparse::offset_t end = a.row_end(i);
    const std::int64_t d = end - beg;
    if (d == 0) continue;
    const bool sampled = sample_rng.Bernoulli(opts.row_sample_fraction);

    // Strided draws into B's row lengths.
    double products;
    sparse::offset_t stride = 1, phase = 0;
    std::int64_t draws = d;
    if (d <= kMaxDrawsPerRow) {
      products = 0.0;
      for (sparse::offset_t p = beg; p < end; ++p) {
        products += static_cast<double>(b.row_nnz(acols[static_cast<std::size_t>(p)]));
      }
    } else {
      stride = static_cast<sparse::offset_t>((d + kMaxDrawsPerRow - 1) /
                                             kMaxDrawsPerRow);
      phase = static_cast<sparse::offset_t>(
          draw_rng.Below64(static_cast<std::uint64_t>(stride)));
      double drawn = 0.0;
      draws = 0;
      for (sparse::offset_t p = beg + phase; p < end; p += stride) {
        drawn += static_cast<double>(b.row_nnz(acols[static_cast<std::size_t>(p)]));
        ++draws;
      }
      products = drawn * (static_cast<double>(d) / static_cast<double>(draws));
    }
    est.row_products[static_cast<std::size_t>(i)] = products;
    est.total_products += products;

    if (!sampled) {
      est.row_nnz[static_cast<std::size_t>(i)] = -1.0;  // calibrate in pass 2
      continue;
    }

    // Gather the drawn B rows' column ids (strided again if they are
    // collectively longer than the gather cap) and count distinct via the
    // epoch marks.
    std::int64_t drawn_total = 0;
    for (sparse::offset_t p = beg + phase; p < end; p += stride) {
      drawn_total += b.row_nnz(acols[static_cast<std::size_t>(p)]);
    }
    const std::int64_t inner =
        std::max<std::int64_t>(1, (drawn_total + kMaxGatherPerRow - 1) /
                                      kMaxGatherPerRow);
    ++epoch;
    std::int64_t gathered = 0, distinct_n = 0;
    for (sparse::offset_t p = beg + phase; p < end; p += stride) {
      const sparse::index_t k = acols[static_cast<std::size_t>(p)];
      for (sparse::offset_t q = b.row_begin(k); q < b.row_end(k);
           q += static_cast<sparse::offset_t>(inner)) {
        const auto c = static_cast<std::size_t>(bcols[static_cast<std::size_t>(q)]);
        ++gathered;
        if (mark[c] != epoch) {
          mark[c] = epoch;
          ++distinct_n;
        }
      }
    }
    double row_nnz;
    if (gathered == 0) {
      row_nnz = 0.0;
    } else {
      const double distinct = static_cast<double>(distinct_n);
      const double drawn_products = static_cast<double>(gathered);
      const double w = SolveEffectiveWidth(distinct, drawn_products);
      row_nnz = std::min({OccupancyDistinct(w, products), products, max_row_nnz});
    }
    est.row_nnz[static_cast<std::size_t>(i)] = row_nnz;
    ++est.sampled_rows;
    samples.emplace_back(products, row_nnz);
    samp_products_sum += products;
    samp_nnz_sum += row_nnz;
    if (products > 0.0) {
      const int bkt = ProductBucket(products);
      bucket_ratio_sum[static_cast<std::size_t>(bkt)] += row_nnz / products;
      bucket_rows[static_cast<std::size_t>(bkt)] += 1;
    }
  }

  // Pass 2: calibrate unsampled rows from the per-bucket sampled ratios,
  // falling back to neighbouring buckets and then the global ratio.
  const double global_ratio =
      samp_products_sum > 0.0 ? samp_nnz_sum / samp_products_sum : 1.0;
  for (sparse::index_t i = 0; i < rows; ++i) {
    double& rn = est.row_nnz[static_cast<std::size_t>(i)];
    if (rn >= 0.0) continue;
    const double products = est.row_products[static_cast<std::size_t>(i)];
    const int bkt = ProductBucket(products);
    double ratio = global_ratio;
    for (int delta : {0, 1, -1, 2, -2}) {
      const int n = bkt + delta;
      if (n < 0 || n >= kNumBuckets) continue;
      if (bucket_rows[static_cast<std::size_t>(n)] > 0) {
        ratio = bucket_ratio_sum[static_cast<std::size_t>(n)] /
                static_cast<double>(bucket_rows[static_cast<std::size_t>(n)]);
        break;
      }
    }
    rn = std::min({products * ratio, products, max_row_nnz});
  }
  for (double rn : est.row_nnz) est.total_nnz += rn;

  est.total_flops = 2.0 * est.total_products;
  est.compression_ratio =
      est.total_nnz > 0.0 ? est.total_flops / est.total_nnz : 0.0;

  // Reliability: SRS standard error of the ratio estimator
  // R = sum(distinct) / sum(products) across the sampled rows.
  est.rel_stderr = std::numeric_limits<double>::infinity();
  const std::int64_t s = est.sampled_rows;
  if (s >= 2 && samp_products_sum > 0.0 && samp_nnz_sum > 0.0) {
    const double ratio = samp_nnz_sum / samp_products_sum;
    double resid_sq = 0.0;
    for (const auto& [x, y] : samples) {
      const double e = y - ratio * x;
      resid_sq += e * e;
    }
    const double sd = static_cast<double>(s);
    const double var_e = resid_sq / (sd - 1.0);
    const double f = rows > 0 ? sd / static_cast<double>(rows) : 1.0;
    const double mean_x = samp_products_sum / sd;
    const double stderr_ratio =
        std::sqrt(std::max(0.0, (1.0 - f) * var_e / sd)) / mean_x;
    est.rel_stderr = ratio > 0.0 ? stderr_ratio / ratio
                                 : std::numeric_limits<double>::infinity();
  }
  est.reliable = s >= kMinSampleRows && std::isfinite(est.rel_stderr) &&
                 est.rel_stderr <= kMaxRelStderr;

  est.analysis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return est;
}

PanelTotals AccumulatePanels(const ProductEstimate& est,
                             const std::vector<sparse::index_t>& bounds) {
  OOC_CHECK(!bounds.empty());
  const std::size_t np = bounds.size() - 1;
  PanelTotals t;
  t.panel_products.assign(np, 0.0);
  t.panel_nnz.assign(np, 0.0);
  t.panel_nnz_upper.assign(np, 0.0);
  const double inflate =
      1.0 + 2.0 * (std::isfinite(est.rel_stderr) ? est.rel_stderr : 1.0);
  for (std::size_t p = 0; p < np; ++p) {
    const auto lo = static_cast<std::size_t>(bounds[p]);
    const auto hi = static_cast<std::size_t>(bounds[p + 1]);
    for (std::size_t i = lo; i < hi && i < est.row_nnz.size(); ++i) {
      t.panel_products[p] += est.row_products[i];
      t.panel_nnz[p] += est.row_nnz[i];
    }
    t.panel_nnz_upper[p] = t.panel_nnz[p] * inflate;
  }
  return t;
}

}  // namespace oocgemm::estimate
