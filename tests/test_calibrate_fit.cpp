// Property tests for the calibrator's regression primitives
// (calibrate/fit.hpp): recovery of known synthetic constants under seeded
// multiplicative noise, bitwise order invariance of the tick batching,
// the min-samples confidence gate, winsorized outlier rejection (one wild
// sample cannot poison the fit, a persistent shift eventually wins), and
// the OverheadRateFit's two-term separation with its collinear fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "calibrate/fit.hpp"
#include "common/rng.hpp"

namespace oocgemm::calibrate {
namespace {

// Seeded lognormal multiplier via Box-Muller: exp(sigma * N(0,1)).
double LognormalNoise(Pcg32& rng, double sigma) {
  const double u1 = std::max(rng.NextDouble(), 1e-12);
  const double u2 = rng.NextDouble();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return std::exp(sigma * z);
}

TEST(CalibrateFit, LinearFitRecoversSyntheticRate) {
  constexpr double kTrueRate = 2.0e9;  // bytes per second
  LinearFit fit;
  Pcg32 rng(42);
  for (int tick = 0; tick < 20; ++tick) {
    for (int i = 0; i < 5; ++i) {
      const double bytes = rng.Uniform(1.0e6, 1.0e8);
      const double seconds =
          bytes / kTrueRate * LognormalNoise(rng, /*sigma=*/0.05);
      fit.Add(bytes, seconds);
    }
    fit.Commit();
  }
  ASSERT_TRUE(fit.confident());
  EXPECT_NEAR(fit.rate(), kTrueRate, 0.05 * kTrueRate);
  EXPECT_GT(fit.slope(), 0.0);
}

TEST(CalibrateFit, LinearFitIsOrderInvariantWithinATick) {
  // Same per-tick sample multiset, different Add order: the canonical sort
  // plus frozen-state weighting must make the fits bit-identical.
  Pcg32 rng(7);
  std::vector<std::vector<std::pair<double, double>>> ticks;
  for (int t = 0; t < 8; ++t) {
    std::vector<std::pair<double, double>> tick;
    for (int i = 0; i < 6; ++i) {
      const double x = rng.Uniform(1.0e5, 1.0e7);
      tick.push_back({x, x / 3.0e9 * LognormalNoise(rng, 0.1)});
    }
    ticks.push_back(std::move(tick));
  }

  LinearFit forward, shuffled;
  Pcg32 shuffle_rng(99);
  for (const auto& tick : ticks) {
    for (const auto& [x, y] : tick) forward.Add(x, y);
    forward.Commit();

    std::vector<std::pair<double, double>> perm = tick;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[shuffle_rng.Below64(i)]);
    }
    for (const auto& [x, y] : perm) shuffled.Add(x, y);
    shuffled.Commit();
  }
  EXPECT_EQ(forward.slope(), shuffled.slope());  // bitwise
  EXPECT_EQ(forward.residual_scale(), shuffled.residual_scale());
  EXPECT_EQ(forward.samples(), shuffled.samples());
  EXPECT_EQ(forward.outliers(), shuffled.outliers());
}

TEST(CalibrateFit, ConfidenceGateHoldsUntilMinSamples) {
  LinearFit fit;
  for (int i = 0; i < kFitMinSamples - 1; ++i) {
    fit.Add(1.0e6, 1.0e-3);
    fit.Commit();
    EXPECT_FALSE(fit.confident()) << "after " << i + 1 << " samples";
  }
  fit.Add(1.0e6, 1.0e-3);
  fit.Commit();
  EXPECT_TRUE(fit.confident());
  EXPECT_DOUBLE_EQ(fit.rate(), 1.0e9);
}

TEST(CalibrateFit, RejectsNonPositiveAndNonFiniteSamples) {
  LinearFit fit;
  fit.Add(0.0, 1.0);
  fit.Add(-5.0, 1.0);
  fit.Add(1.0, -1.0);
  fit.Add(std::nan(""), 1.0);
  fit.Add(1.0, std::numeric_limits<double>::infinity());
  fit.Commit();
  EXPECT_EQ(fit.samples(), 0);
  EXPECT_FALSE(fit.confident());
  EXPECT_EQ(fit.rate(), 0.0);
}

TEST(CalibrateFit, WinsorizationResistsOneWildOutlier) {
  constexpr double kTrueRate = 1.0e9;
  LinearFit fit;
  Pcg32 rng(11);
  for (int tick = 0; tick < 10; ++tick) {
    for (int i = 0; i < 4; ++i) {
      const double x = rng.Uniform(1.0e6, 1.0e7);
      fit.Add(x, x / kTrueRate * LognormalNoise(rng, 0.02));
    }
    fit.Commit();
  }
  ASSERT_TRUE(fit.confident());
  const double before = fit.rate();

  // One 100x-slow sample amid a normal tick: winsorized, not believed.
  fit.Add(5.0e6, 5.0e6 / kTrueRate * 100.0);
  for (int i = 0; i < 3; ++i) {
    const double x = rng.Uniform(1.0e6, 1.0e7);
    fit.Add(x, x / kTrueRate * LognormalNoise(rng, 0.02));
  }
  fit.Commit();
  EXPECT_GE(fit.outliers(), 1);
  EXPECT_NEAR(fit.rate(), before, 0.20 * before);
}

TEST(CalibrateFit, PersistentShiftEventuallyTracked) {
  // A degraded device is not an outlier: after the shift every sample
  // keeps pulling, and the EWMA decay forgets the old regime.
  constexpr double kOldRate = 1.0e9;
  constexpr double kNewRate = 2.5e8;  // 4x slower
  LinearFit fit;
  Pcg32 rng(13);
  for (int tick = 0; tick < 10; ++tick) {
    for (int i = 0; i < 4; ++i) {
      const double x = rng.Uniform(1.0e6, 1.0e7);
      fit.Add(x, x / kOldRate * LognormalNoise(rng, 0.02));
    }
    fit.Commit();
  }
  ASSERT_NEAR(fit.rate(), kOldRate, 0.1 * kOldRate);
  for (int tick = 0; tick < 40; ++tick) {
    for (int i = 0; i < 4; ++i) {
      const double x = rng.Uniform(1.0e6, 1.0e7);
      fit.Add(x, x / kNewRate * LognormalNoise(rng, 0.02));
    }
    fit.Commit();
  }
  EXPECT_NEAR(fit.rate(), kNewRate, 0.25 * kNewRate);
}

TEST(CalibrateFit, OverheadRateFitSeparatesOverheadFromRate) {
  constexpr double kOverhead = 1.0e-5;   // seconds per launch
  constexpr double kRate = 1.0e9;        // flops per second
  OverheadRateFit fit(/*static_overhead=*/5.0e-6);
  Pcg32 rng(17);
  for (int tick = 0; tick < 12; ++tick) {
    // Varying flops-per-launch across samples keeps the normal equations
    // well conditioned, so the two terms separate.
    for (int i = 0; i < 4; ++i) {
      const double launches = rng.Uniform(4.0, 64.0);
      const double flops = rng.Uniform(1.0e5, 1.0e8);
      fit.Add(launches, flops, kOverhead * launches + flops / kRate);
    }
    fit.Commit();
  }
  ASSERT_TRUE(fit.confident());
  EXPECT_TRUE(fit.overhead_resolved());
  EXPECT_NEAR(fit.overhead(), kOverhead, 0.05 * kOverhead);
  EXPECT_NEAR(fit.rate(), kRate, 0.05 * kRate);
}

TEST(CalibrateFit, EffectiveRateChargesLaunchOverheadToThroughput) {
  // A delay-degraded device: huge per-launch overhead, healthy marginal
  // rate.  The marginal rate() recovers the compute term, but the
  // effective rate — what a scheduler actually gets — must be dominated by
  // the overhead, because that is the signal the hybrid-split and
  // placement levers steer on.
  constexpr double kOverhead = 0.02;  // seconds per launch (a delay fault)
  constexpr double kRate = 1.0e9;
  OverheadRateFit fit(/*static_overhead=*/5.0e-6);
  Pcg32 rng(23);
  double total_flops = 0.0, total_seconds = 0.0;
  for (int tick = 0; tick < 12; ++tick) {
    for (int i = 0; i < 4; ++i) {
      const double launches = rng.Uniform(4.0, 64.0);
      const double flops = rng.Uniform(1.0e5, 1.0e8);
      const double seconds = kOverhead * launches + flops / kRate;
      total_flops += flops;
      total_seconds += seconds;
      fit.Add(launches, flops, seconds);
    }
    fit.Commit();
  }
  ASSERT_TRUE(fit.confident());
  // Marginal rate separates the compute term; effective rate is pinned to
  // the observed flops-over-seconds throughput, orders of magnitude lower.
  EXPECT_NEAR(fit.rate(), kRate, 0.05 * kRate);
  EXPECT_LT(fit.effective_rate(), 0.1 * fit.rate());
  // Same ballpark as the unweighted aggregate throughput (EWMA weighting
  // tilts toward recent ticks, so exact equality is not expected).
  const double aggregate = total_flops / total_seconds;
  EXPECT_GT(fit.effective_rate(), 0.2 * aggregate);
  EXPECT_LT(fit.effective_rate(), 5.0 * aggregate);
}

TEST(CalibrateFit, OverheadRateFitCollinearFallsBackToStaticOverhead) {
  // Every sample has the same flops-per-launch: the system cannot separate
  // overhead from rate, so the fit pins the static overhead and fits the
  // remainder as pure rate.
  constexpr double kStaticOverhead = 1.0e-5;
  constexpr double kRate = 2.0e9;
  OverheadRateFit fit(kStaticOverhead);
  for (int tick = 0; tick < 8; ++tick) {
    const double launches = 10.0;
    const double flops = 1.0e7;  // constant ratio across all samples
    fit.Add(launches, flops, kStaticOverhead * launches + flops / kRate);
    fit.Commit();
  }
  ASSERT_TRUE(fit.confident());
  EXPECT_FALSE(fit.overhead_resolved());
  EXPECT_DOUBLE_EQ(fit.overhead(), kStaticOverhead);
  EXPECT_NEAR(fit.rate(), kRate, 0.01 * kRate);
}

TEST(CalibrateFit, OverheadRateFitIsOrderInvariantWithinATick) {
  Pcg32 rng(23);
  OverheadRateFit forward(8.0e-6), reversed(8.0e-6);
  for (int tick = 0; tick < 6; ++tick) {
    std::vector<std::array<double, 3>> samples;
    for (int i = 0; i < 5; ++i) {
      samples.push_back({rng.Uniform(1.0, 32.0), rng.Uniform(1.0e5, 1.0e7),
                         rng.Uniform(1.0e-4, 1.0e-2)});
    }
    for (const auto& s : samples) forward.Add(s[0], s[1], s[2]);
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
      reversed.Add((*it)[0], (*it)[1], (*it)[2]);
    }
    forward.Commit();
    reversed.Commit();
  }
  EXPECT_EQ(forward.rate(), reversed.rate());  // bitwise
  EXPECT_EQ(forward.overhead(), reversed.overhead());
  EXPECT_EQ(forward.samples(), reversed.samples());
}

}  // namespace
}  // namespace oocgemm::calibrate
