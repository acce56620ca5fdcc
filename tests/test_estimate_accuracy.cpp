// Property tests for the OCEAN-style sampling estimator: accuracy of the
// structure-only output-nnz estimate against the exact symbolic oracle on
// uniform (Erdos-Renyi) and power-law (R-MAT) structure, error tightening
// with the sample rate, bit-exact determinism in the seed, and the
// reliability signal consumers gate fallback on.
//
// Suites are named Estimate* so the CI TSan job's gtest filter picks them up.
#include "estimate/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sparse/analysis.hpp"
#include "test_util.hpp"

namespace oocgemm::estimate {
namespace {

double RelError(double est, double exact) {
  return exact > 0.0 ? std::abs(est - exact) / exact : std::abs(est);
}

// Mean relative error of the total output-nnz estimate over several
// generator seeds — individual draws wobble, the mean is the property.
double MeanNnzRelError(bool power_law, double rate, int num_seeds) {
  double total = 0.0;
  for (int s = 0; s < num_seeds; ++s) {
    const sparse::Csr a =
        power_law ? testutil::RandomRmat(11, 8.0, 100 + s)
                  : testutil::RandomCsr(4096, 4096, 8.0, 100 + s);
    EstimatorOptions opts;
    opts.row_sample_fraction = rate;
    opts.seed = 7;
    const ProductEstimate est = EstimateProduct(a, a, opts);
    const double exact = static_cast<double>(sparse::SymbolicNnz(a, a));
    total += RelError(est.total_nnz, exact);
  }
  return total / num_seeds;
}

TEST(EstimateAccuracy, ShortRowProductsAreExact) {
  // Rows with <= kMaxDrawsPerRow nonzeros draw every column id, so the
  // per-row product counts — and hence total_flops — are exact, not
  // estimates.  Erdos-Renyi at degree 4 keeps every row under the cap.
  const sparse::Csr a = testutil::RandomCsr(2048, 2048, 4.0, 42);
  std::int64_t max_row = 0;
  for (sparse::index_t i = 0; i < a.rows(); ++i) {
    max_row = std::max<std::int64_t>(max_row, a.row_nnz(i));
  }
  ASSERT_LE(max_row, kMaxDrawsPerRow);

  const ProductEstimate est = EstimateProduct(a, a);
  EXPECT_DOUBLE_EQ(est.total_flops,
                   static_cast<double>(sparse::TotalFlops(a, a)));
}

TEST(EstimateAccuracy, ErdosRenyiNnzWithinTolerance) {
  EXPECT_LE(MeanNnzRelError(/*power_law=*/false, /*rate=*/0.05, 5), 0.15);
}

TEST(EstimateAccuracy, PowerLawNnzWithinTolerance) {
  EXPECT_LE(MeanNnzRelError(/*power_law=*/true, /*rate=*/0.05, 5), 0.15);
}

TEST(EstimateAccuracy, ErrorTightensWithSampleRate) {
  // More sampled rows, better calibration: a 10x rate increase must not
  // make the mean error worse (small slack absorbs draw noise).
  const double coarse = MeanNnzRelError(/*power_law=*/true, 0.03, 5);
  const double fine = MeanNnzRelError(/*power_law=*/true, 0.30, 5);
  EXPECT_LE(fine, coarse + 0.02);
}

TEST(EstimateDeterminism, SameSeedGivesBitIdenticalEstimates) {
  const sparse::Csr a = testutil::RandomRmat(10, 8.0, 9);
  EstimatorOptions opts;
  opts.seed = 1234;
  const ProductEstimate x = EstimateProduct(a, a, opts);
  const ProductEstimate y = EstimateProduct(a, a, opts);
  // Everything but the wall-clock field must match exactly.
  EXPECT_EQ(x.row_products, y.row_products);
  EXPECT_EQ(x.row_nnz, y.row_nnz);
  EXPECT_EQ(x.total_products, y.total_products);
  EXPECT_EQ(x.total_nnz, y.total_nnz);
  EXPECT_EQ(x.total_flops, y.total_flops);
  EXPECT_EQ(x.compression_ratio, y.compression_ratio);
  EXPECT_EQ(x.rel_stderr, y.rel_stderr);
  EXPECT_EQ(x.sampled_rows, y.sampled_rows);
  EXPECT_EQ(x.reliable, y.reliable);

  opts.seed = 4321;
  const ProductEstimate z = EstimateProduct(a, a, opts);
  EXPECT_NE(x.row_nnz, z.row_nnz);  // a different seed samples differently
}

TEST(EstimateReliability, TinySampleIsUnreliable) {
  // 64 rows at a 5% rate can never reach kMinSampleRows: the estimate
  // must say so instead of pretending confidence.
  const sparse::Csr a = testutil::RandomCsr(64, 64, 4.0, 3);
  const ProductEstimate est = EstimateProduct(a, a);
  EXPECT_FALSE(est.reliable);
  EXPECT_LT(est.sampled_rows, kMinSampleRows);
}

TEST(EstimateReliability, LargeSampleIsReliable) {
  const sparse::Csr a = testutil::RandomRmat(11, 8.0, 5);
  const ProductEstimate est = EstimateProduct(a, a);
  EXPECT_TRUE(est.reliable);
  EXPECT_GE(est.sampled_rows, kMinSampleRows);
  EXPECT_LE(est.rel_stderr, kMaxRelStderr);
  EXPECT_GT(est.compression_ratio, 0.0);
}

TEST(EstimatePanels, AccumulateMatchesRowSums) {
  const sparse::Csr a = testutil::RandomRmat(10, 8.0, 6);
  const ProductEstimate est = EstimateProduct(a, a);
  const sparse::index_t rows = a.rows();
  const std::vector<sparse::index_t> bounds = {0, rows / 3, 2 * rows / 3,
                                               rows};
  const PanelTotals totals = AccumulatePanels(est, bounds);
  ASSERT_EQ(totals.panel_products.size(), 3u);
  ASSERT_EQ(totals.panel_nnz.size(), 3u);
  ASSERT_EQ(totals.panel_nnz_upper.size(), 3u);

  for (int p = 0; p < 3; ++p) {
    double products = 0.0, nnz = 0.0;
    for (sparse::index_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      products += est.row_products[static_cast<std::size_t>(i)];
      nnz += est.row_nnz[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(totals.panel_products[p], products, 1e-6 * (1.0 + products));
    EXPECT_NEAR(totals.panel_nnz[p], nnz, 1e-6 * (1.0 + nnz));
    // The upper field carries the ~95% SRS confidence inflation.
    EXPECT_NEAR(totals.panel_nnz_upper[p],
                totals.panel_nnz[p] * (1.0 + 2.0 * est.rel_stderr),
                1e-6 * (1.0 + totals.panel_nnz[p]));
  }
}

}  // namespace
}  // namespace oocgemm::estimate
