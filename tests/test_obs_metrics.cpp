// Property tests for the observability core: the log-bucketed histogram's
// quantile bounds must bracket the exact order statistics of the recorded
// sample (and hence track common/stats.hpp Summarize percentiles to within
// one bucket's relative error), and Merge() of a split sample must equal
// the histogram of the whole sample bucket-for-bucket.
//
// Suites are named Metrics* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::obs {
namespace {

// Deterministic heavy- and light-tailed samples: the distributions the
// histogram has to survive in production (latencies, chunk flop counts).
std::vector<double> Lognormal(std::size_t n, double mu, double sigma,
                              std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    // Box-Muller; u1 in (0, 1] to keep the log finite.
    const double u1 = 1.0 - rng.NextDouble();
    const double u2 = rng.NextDouble();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.14159265358979323846 * u2);
    out.push_back(std::exp(mu + sigma * z));
  }
  return out;
}

std::vector<double> Pareto(std::size_t n, double xm, double alpha,
                           std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    const double u = rng.NextDouble();  // [0, 1)
    out.push_back(xm / std::pow(1.0 - u, 1.0 / alpha));
  }
  return out;
}

// The histogram targets the rank-ceil(q*n) order statistic; Summarize
// interpolates between the order statistics adjacent to q*(n-1).  The two
// definitions differ by at most one rank, so the exact percentile lies
// within one neighbouring order statistic of the histogram's bucket — for
// the smooth samples used here that is well inside one extra bucket width
// on each side.
void ExpectQuantilesBracket(const std::vector<double>& samples) {
  LogBucketHistogram hist;
  for (double v : samples) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, static_cast<std::int64_t>(samples.size()));

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const Summary summary = Summarize(samples);

  const struct {
    double q;
    double exact;
  } probes[] = {{0.50, summary.p50},
                {0.90, summary.p90},
                {0.95, summary.p95},
                {0.99, summary.p99}};
  for (const auto& probe : probes) {
    SCOPED_TRACE("q=" + std::to_string(probe.q));
    const auto bounds = snap.QuantileBounds(probe.q);
    ASSERT_LE(bounds.first, bounds.second);

    // Hard guarantee: the bucket brackets the rank-ceil(q*n) sample.
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(probe.q * static_cast<double>(sorted.size()))));
    const double order_stat = sorted[rank - 1];
    EXPECT_LE(bounds.first, order_stat * (1.0 + 1e-12));
    EXPECT_GE(bounds.second, order_stat * (1.0 - 1e-12));

    // Relative-error guarantee against Summarize: widen each side by one
    // bucket's growth factor to absorb the one-rank definitional gap.
    EXPECT_LE(bounds.first / snap.growth * (1.0 - 1e-12), probe.exact);
    EXPECT_GE(bounds.second * snap.growth * (1.0 + 1e-12), probe.exact);
  }
}

TEST(MetricsHistogram, QuantilesBracketSummarizeLognormal) {
  ExpectQuantilesBracket(Lognormal(4000, 0.0, 1.0, 11));
  ExpectQuantilesBracket(Lognormal(4000, 2.5, 0.4, 12));
  ExpectQuantilesBracket(Lognormal(500, -3.0, 1.5, 13));
}

TEST(MetricsHistogram, QuantilesBracketSummarizePareto) {
  ExpectQuantilesBracket(Pareto(4000, 1.0, 1.5, 21));
  ExpectQuantilesBracket(Pareto(4000, 0.01, 2.5, 22));
  ExpectQuantilesBracket(Pareto(800, 3.0, 1.1, 23));
}

TEST(MetricsHistogram, MergeOfSplitSampleEqualsSingleHistogram) {
  const std::vector<double> samples = Pareto(3000, 0.5, 1.3, 31);

  LogBucketHistogram whole;
  LogBucketHistogram left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.Record(samples[i]);
    (i % 3 == 0 ? left : right).Record(samples[i]);
  }
  LogBucketHistogram merged;
  merged.MergeFrom(left);
  merged.MergeFrom(right);

  const HistogramSnapshot a = whole.Snapshot();
  const HistogramSnapshot b = merged.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::abs(a.sum));
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].count, b.buckets[i].count) << "bucket " << i;
    EXPECT_DOUBLE_EQ(a.buckets[i].lower, b.buckets[i].lower);
    EXPECT_DOUBLE_EQ(a.buckets[i].upper, b.buckets[i].upper);
  }
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q));
  }
}

TEST(MetricsHistogram, NonPositiveAndNanLandInUnderflowBucket) {
  LogBucketHistogram hist;
  hist.Record(0.0);
  hist.Record(-4.5);
  hist.Record(std::nan(""));
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 3);
  ASSERT_FALSE(snap.buckets.empty());
  EXPECT_EQ(snap.buckets.front().count, 3);
  // All mass below the positive range: quantiles collapse to that bucket.
  const auto bounds = snap.QuantileBounds(0.5);
  EXPECT_EQ(bounds.first, bounds.second);
}

TEST(MetricsHistogram, EmptyQuantileIsZero) {
  LogBucketHistogram hist;
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
  // Degenerate q on an empty histogram stays {0, 0} too.
  EXPECT_EQ(snap.Quantile(0.0), 0.0);
  EXPECT_EQ(snap.Quantile(1.0), 0.0);
  EXPECT_EQ(snap.Quantile(std::nan("")), 0.0);
}

// Regression: a single recorded sample used to hit the bucket arithmetic
// with rank 0 at q=0.0 (reading bucket -1) and, for a negative sample, the
// min/max clamp inverted against the zero bucket's [0, 0] bounds.  One
// sample must simply report itself at every q.
TEST(MetricsHistogram, SingleSampleQuantileIsTheSample) {
  for (double v : {3.75, -2.5, 0.0}) {
    SCOPED_TRACE("sample=" + std::to_string(v));
    LogBucketHistogram hist;
    hist.Record(v);
    const HistogramSnapshot snap = hist.Snapshot();
    ASSERT_EQ(snap.count, 1);
    for (double q : {0.0, 0.25, 0.5, 1.0}) {
      const auto bounds = snap.QuantileBounds(q);
      EXPECT_EQ(bounds.first, v) << "q=" << q;
      EXPECT_EQ(bounds.second, v) << "q=" << q;
    }
  }
}

// q outside [0, 1] clamps; q=0.0 reports the min bucket, q=1.0 the max
// bucket, and NaN q returns {0, 0} instead of poisoning the rank index.
TEST(MetricsHistogram, QuantileEdgeArgumentsAreWellDefined) {
  LogBucketHistogram hist;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) hist.Record(v);
  const HistogramSnapshot snap = hist.Snapshot();

  const auto lo = snap.QuantileBounds(0.0);
  EXPECT_LE(lo.first, 1.0);
  EXPECT_GE(lo.second * snap.growth, 1.0);
  const auto hi = snap.QuantileBounds(1.0);
  EXPECT_EQ(hi.second, snap.max);
  EXPECT_EQ(snap.QuantileBounds(-3.0), snap.QuantileBounds(0.0));
  EXPECT_EQ(snap.QuantileBounds(7.0), snap.QuantileBounds(1.0));
  const auto nan_bounds = snap.QuantileBounds(std::nan(""));
  EXPECT_EQ(nan_bounds.first, 0.0);
  EXPECT_EQ(nan_bounds.second, 0.0);
}

TEST(MetricsRegistryApi, InstrumentsAccumulateAndSnapshotReads) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("unit_requests", {{"tenant", "a"}}, "help");
  c.Add(3);
  c.Add();
  reg.GetGauge("unit_depth").Set(7);
  reg.GetGauge("unit_depth").Add(-2);
  reg.GetDoubleCounter("unit_seconds").Add(0.5);
  reg.GetHistogram("unit_latency").Record(1.0);

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("unit_requests", {{"tenant", "a"}}), 4.0);
  EXPECT_DOUBLE_EQ(snap.Value("unit_depth"), 5.0);
  EXPECT_DOUBLE_EQ(snap.Value("unit_seconds"), 0.5);
  const HistogramSnapshot* h = snap.Histogram("unit_latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);

  // Same (name, labels) resolves to the same instrument; a different label
  // set is a distinct point under the same family.
  reg.GetCounter("unit_requests", {{"tenant", "b"}}).Add(9);
  EXPECT_DOUBLE_EQ(
      reg.Snapshot().Value("unit_requests", {{"tenant", "b"}}), 9.0);
  EXPECT_DOUBLE_EQ(
      reg.Snapshot().Value("unit_requests", {{"tenant", "a"}}), 4.0);
}

TEST(MetricsRegistryApi, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  reg.GetCounter("unit_lbl", {{"a", "1"}, {"b", "2"}}).Add(1);
  reg.GetCounter("unit_lbl", {{"b", "2"}, {"a", "1"}}).Add(1);
  EXPECT_DOUBLE_EQ(reg.Snapshot().Value("unit_lbl", {{"a", "1"}, {"b", "2"}}),
                   2.0);
}

TEST(MetricsRegistryApi, ResetForTestZeroesInPlace) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("unit_reset");
  LogBucketHistogram& h = reg.GetHistogram("unit_reset_h");
  c.Add(7);
  h.Record(1.5);
  reg.ResetForTest();
  // References stay valid and usable after the reset.
  EXPECT_EQ(c.Value(), 0);
  EXPECT_EQ(h.Count(), 0);
  c.Add(2);
  EXPECT_DOUBLE_EQ(reg.Snapshot().Value("unit_reset"), 2.0);
}

}  // namespace
}  // namespace oocgemm::obs
