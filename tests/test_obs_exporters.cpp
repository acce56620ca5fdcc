// Golden-file tests for the exposition formats.  The Prometheus text
// surface — family ordering, the counter _total convention, cumulative
// _bucket/le lines, label escaping — and the JSON mirror are contracts
// with external scrapers, so they are pinned byte-for-byte here.
//
// Suites are named Metrics* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshotter.hpp"

namespace oocgemm::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One registry exercising every exposition feature: a labelled counter
// whose label value needs escaping, an unlabelled gauge, and a bp2=1
// histogram whose power-of-two bucket bounds print as clean integers.
MetricsRegistry& GoldenRegistry() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("test_requests", {{"tenant", "a\"b\\c\nd"}},
                  "Requests served")
        .Add(3);
    r->GetGauge("test_depth", {}, "Queue depth").Set(7);
    LogBucketHistogram& h =
        r->GetHistogram("test_latency", {}, "Latency", /*buckets_per_pow2=*/1);
    h.Record(0.75);
    h.Record(1.5);
    h.Record(1.5);
    h.Record(3.0);
    return r;
  }();
  return *reg;
}

TEST(MetricsExporters, PrometheusGolden) {
  const std::string expected =
      "# HELP test_depth Queue depth\n"
      "# TYPE test_depth gauge\n"
      "test_depth 7\n"
      "# HELP test_latency Latency\n"
      "# TYPE test_latency histogram\n"
      "test_latency_bucket{le=\"1\"} 1\n"
      "test_latency_bucket{le=\"2\"} 3\n"
      "test_latency_bucket{le=\"4\"} 4\n"
      "test_latency_bucket{le=\"+Inf\"} 4\n"
      "test_latency_sum 6.75\n"
      "test_latency_count 4\n"
      "# HELP test_requests_total Requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{tenant=\"a\\\"b\\\\c\\nd\"} 3\n";
  EXPECT_EQ(ToPrometheusText(GoldenRegistry().Snapshot()), expected);
}

TEST(MetricsExporters, JsonGolden) {
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"test_depth\",\"kind\":\"gauge\",\"help\":\"Queue depth\","
      "\"points\":[{\"labels\":{},\"value\":7}]},"
      "{\"name\":\"test_latency\",\"kind\":\"histogram\",\"help\":\"Latency\","
      "\"points\":[{\"labels\":{},\"count\":4,\"sum\":6.75,\"min\":0.75,"
      "\"max\":3,\"p50\":2,\"p95\":3,\"p99\":3,"
      "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":2},"
      "{\"le\":4,\"count\":1}]}]},"
      "{\"name\":\"test_requests\",\"kind\":\"counter\","
      "\"help\":\"Requests served\","
      "\"points\":[{\"labels\":{\"tenant\":\"a\\\"b\\\\c\\nd\"},"
      "\"value\":3}]}"
      "]}";
  EXPECT_EQ(ToJson(GoldenRegistry().Snapshot()), expected);
}

TEST(MetricsExporters, EmptyRegistryExportsEmptyShapes) {
  MetricsRegistry reg;
  EXPECT_EQ(ToPrometheusText(reg.Snapshot()), "");
  EXPECT_EQ(ToJson(reg.Snapshot()), "{\"metrics\":[]}");
}

TEST(MetricsExporters, EscapeLabelValue) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  // Control bytes outside the three defined escapes would corrupt the
  // exposition line structure; they are replaced, not passed through.
  EXPECT_EQ(EscapeLabelValue("a\rb\tc\x01"
                             "d"),
            "a_b_c_d");
}

// A tenant id is arbitrary caller bytes.  Pin the full exposition of the
// nastiest id we can type: both formats must stay machine-parseable.
TEST(MetricsExporters, HostileTenantLabelGolden) {
  MetricsRegistry reg;
  const std::string hostile = "t\"x\\y\nz\r\x7f{},=";
  reg.GetCounter("test_hostile", {{"tenant", hostile}}, "Hostile labels")
      .Add(1);
  const std::string prom =
      "# HELP test_hostile_total Hostile labels\n"
      "# TYPE test_hostile_total counter\n"
      "test_hostile_total{tenant=\"t\\\"x\\\\y\\nz_\x7f{},=\"} 1\n";
  EXPECT_EQ(ToPrometheusText(reg.Snapshot()), prom);
  const std::string json =
      "{\"metrics\":["
      "{\"name\":\"test_hostile\",\"kind\":\"counter\","
      "\"help\":\"Hostile labels\","
      "\"points\":[{\"labels\":{\"tenant\":\"t\\\"x\\\\y\\nz\\r\x7f{},=\"},"
      "\"value\":1}]}"
      "]}";
  EXPECT_EQ(ToJson(reg.Snapshot()), json);
}

TEST(MetricsExporters, FormatMetricValue) {
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(-7.0), "-7");
  EXPECT_EQ(FormatMetricValue(6.75), "6.75");
  // Past the exact-integer range of double formatting, fall back to %.17g.
  EXPECT_EQ(FormatMetricValue(1e18), "1e+18");
}

TEST(MetricsExporters, CounterNamedWithTotalExportsOneSuffix) {
  MetricsRegistry reg;
  reg.GetCounter("test_admissions_total", {{"mode", "exact"}}, "Admissions")
      .Add(48);
  reg.GetDoubleCounter("test_seconds_total", {}, "Seconds").Add(0.5);
  const std::string expected =
      "# HELP test_admissions_total Admissions\n"
      "# TYPE test_admissions_total counter\n"
      "test_admissions_total{mode=\"exact\"} 48\n"
      "# HELP test_seconds_total Seconds\n"
      "# TYPE test_seconds_total counter\n"
      "test_seconds_total 0.5\n";
  EXPECT_EQ(ToPrometheusText(reg.Snapshot()), expected);
}

TEST(MetricsExporters, MissingHelpFallsBackToName) {
  MetricsRegistry reg;
  reg.GetCounter("test_nohelp").Add(1);
  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP test_nohelp_total test_nohelp\n"),
            std::string::npos);
}

TEST(MetricsExporters, WriteFileAtomicRoundTrips) {
  const std::string path = testing::TempDir() + "metrics_atomic_test.prom";
  ASSERT_TRUE(WriteFileAtomic(path, "hello 1\n").ok());
  EXPECT_EQ(ReadFile(path), "hello 1\n");
  // Overwrite goes through the same tmp+rename path.
  ASSERT_TRUE(WriteFileAtomic(path, "hello 2\n").ok());
  EXPECT_EQ(ReadFile(path), "hello 2\n");
  std::remove(path.c_str());
}

TEST(MetricsExporters, SnapshotterWritesBothFormatsOnDemand) {
  MetricsRegistry reg;
  reg.GetCounter("test_snap_events", {}, "Events").Add(5);

  Snapshotter::Options opts;
  opts.interval_seconds = 0.0;  // no background thread: on-demand only
  opts.prometheus_path = testing::TempDir() + "snapshotter_test.prom";
  opts.json_path = testing::TempDir() + "snapshotter_test.json";
  Snapshotter snap(reg, opts);
  ASSERT_TRUE(snap.WriteNow().ok());
  EXPECT_NE(ReadFile(opts.prometheus_path).find("test_snap_events_total 5\n"),
            std::string::npos);
  EXPECT_NE(ReadFile(opts.json_path)
                .find("\"name\":\"test_snap_events\""),
            std::string::npos);

  // Stop() lands one terminal write: the files reflect the final state.
  reg.GetCounter("test_snap_events").Add(2);
  snap.Stop();
  EXPECT_NE(ReadFile(opts.prometheus_path).find("test_snap_events_total 7\n"),
            std::string::npos);
  EXPECT_GE(snap.writes(), 2);
  std::remove(opts.prometheus_path.c_str());
  std::remove(opts.json_path.c_str());
}

TEST(MetricsExporters, SnapshotterBackgroundThreadWritesPeriodically) {
  MetricsRegistry reg;
  reg.GetCounter("test_bg_events").Add(1);
  Snapshotter::Options opts;
  opts.interval_seconds = 0.01;
  opts.prometheus_path = testing::TempDir() + "snapshotter_bg_test.prom";
  {
    Snapshotter snap(reg, opts);
    // Destructor stops the thread and writes the terminal snapshot even if
    // the interval never elapsed.
  }
  EXPECT_NE(ReadFile(opts.prometheus_path).find("test_bg_events_total 1\n"),
            std::string::npos);
  std::remove(opts.prometheus_path.c_str());
}

}  // namespace
}  // namespace oocgemm::obs
