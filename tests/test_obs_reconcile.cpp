// End-to-end reconciliation between the live metrics registry and the
// repo's post-mortem accounting: the counters the device/executor/serve
// layers bump on their hot paths must agree exactly with the trace-derived
// RunStats of a Hybrid run and with the ServerReport of a fault-injected
// multi-device serve run.  Also pins the disabled-registry contract: with
// set_enabled(false) a full run records nothing.
//
// Suites are named Metrics* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/executors.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshotter.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "vgpu/fault_injector.hpp"

namespace oocgemm {
namespace {

using sparse::Csr;

obs::Labels Dev(int index) {
  return {{"device", std::to_string(index)}};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MetricsReconcile, HybridRunMatchesTraceDerivedRunStats) {
  auto& reg = obs::MetricsRegistry::Default();
  vgpu::Device device(vgpu::ScaledV100Properties(14));  // 1 MiB
  ThreadPool pool(2);
  Csr a = testutil::RandomRmat(9, 8.0, 41);

  const obs::RegistrySnapshot before = reg.Snapshot();
  auto r = core::Hybrid(device, a, a, core::ExecutorOptions{}, pool);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::RegistrySnapshot after = reg.Snapshot();

  auto delta = [&](const char* name) {
    return static_cast<std::int64_t>(after.Value(name, Dev(0)) -
                                     before.Value(name, Dev(0)));
  };

  // The device counters increment at exactly the operations the trace
  // records, and RunStats is derived from that trace — so for a single
  // retry-free run the three views agree to the byte.
  ASSERT_GT(r->stats.bytes_h2d, 0);
  EXPECT_EQ(delta("oocgemm_vgpu_h2d_bytes"), r->stats.bytes_h2d);
  EXPECT_EQ(delta("oocgemm_vgpu_h2d_bytes"),
            device.trace().Bytes(vgpu::OpCategory::kH2D));
  EXPECT_EQ(delta("oocgemm_vgpu_d2h_bytes"), r->stats.bytes_d2h);
  EXPECT_EQ(delta("oocgemm_vgpu_d2h_bytes"),
            device.trace().Bytes(vgpu::OpCategory::kD2H));

  std::int64_t kernel_events = 0;
  for (const vgpu::TraceEvent& e : device.trace().events()) {
    if (e.category == vgpu::OpCategory::kKernel) ++kernel_events;
  }
  ASSERT_GT(kernel_events, 0);
  EXPECT_EQ(delta("oocgemm_vgpu_kernel_launches"), kernel_events);

  // Executor-level instrumentation fired once for this run.
  EXPECT_EQ(static_cast<std::int64_t>(
                after.Value("oocgemm_core_runs", {{"executor", "hybrid"}}) -
                before.Value("oocgemm_core_runs", {{"executor", "hybrid"}})),
            1);
  const obs::HistogramSnapshot* runs =
      after.Histogram("oocgemm_core_run_seconds", {{"executor", "hybrid"}});
  ASSERT_NE(runs, nullptr);
  EXPECT_GE(runs->count, 1);
  EXPECT_GT(after.Value("oocgemm_core_phase_seconds", {{"phase", "numeric"}}),
            before.Value("oocgemm_core_phase_seconds", {{"phase", "numeric"}}));
  // Assembly is host work: its wall seconds have a family of their own.
  EXPECT_GT(after.Value("oocgemm_core_assemble_wall_seconds", {}),
            before.Value("oocgemm_core_assemble_wall_seconds", {}));
  EXPECT_EQ(after.Value("oocgemm_core_phase_seconds", {{"phase", "assemble"}}),
            0.0);
}

TEST(MetricsReconcile, FaultInjectedServeRunMatchesServerReport) {
  auto& reg = obs::MetricsRegistry::Default();
  constexpr int kDevices = 3;
  constexpr int kVictim = 1;
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;
  for (int i = 0; i < kDevices; ++i) {
    storage.push_back(
        std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(15)));
    devices.push_back(storage.back().get());
  }
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("kernel:nth=2:kill", /*seed=*/7).value());
  devices[kVictim]->set_fault_injector(&injector);

  ThreadPool pool(2);
  serve::ServerConfig config;
  config.scheduler.num_workers = kDevices + 1;
  config.max_queue = 64;
  const std::string metrics_path = testing::TempDir() + "reconcile_serve.prom";

  const obs::RegistrySnapshot before = reg.Snapshot();
  std::vector<std::shared_ptr<const Csr>> as;
  std::vector<std::future<serve::JobResult>> futures;
  std::int64_t device_failures_total = 0;
  {
    obs::Snapshotter::Options export_options;
    export_options.interval_seconds = 0.01;
    export_options.prometheus_path = metrics_path;
    export_options.json_path = metrics_path + ".json";
    obs::Snapshotter snapshotter(reg, std::move(export_options));
    serve::SpgemmServer server(devices, pool, config);

    // Pin every lane, then free only the victim: the probe job must land
    // there, and its second kernel launch kills the device mid-run.  The
    // recovery path (failover onto the survivors) is what the metric
    // counters have to account for exactly.
    std::vector<core::DevicePool::Slot> pins;
    for (int i = 0; i < kDevices; ++i) {
      core::DevicePool::Slot s = server.device_pool().TryAcquire(0);
      ASSERT_TRUE(s.held());
      pins.push_back(std::move(s));
    }
    for (auto& s : pins) {
      if (s.index() == kVictim) s.Release();
    }
    serve::SpgemmJob probe;
    probe.a = std::make_shared<const Csr>(testutil::RandomRmat(7, 6.0, 51));
    probe.b = probe.a;
    probe.options.mode = core::ExecutionMode::kGpuOutOfCore;
    as.push_back(probe.a);
    futures.push_back(server.Submit(std::move(probe)));
    while (!injector.device_dead()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& s : pins) s.Release();

    for (int j = 0; j < 23; ++j) {
      serve::SpgemmJob job;
      job.a = std::make_shared<const Csr>(
          testutil::RandomRmat(6, 5.0, 100 + static_cast<std::uint64_t>(j)));
      job.b = job.a;
      job.options.priority = j % 3;
      as.push_back(job.a);
      futures.push_back(server.Submit(std::move(job)));
    }
    server.Drain();
    for (auto& f : futures) {
      serve::JobResult r = f.get();
      ASSERT_TRUE(r.ok()) << r.status.ToString();
    }

    const serve::ServerReport report = server.Report();
    const obs::RegistrySnapshot after = reg.Snapshot();
    auto delta = [&](const char* name) {
      return static_cast<std::int64_t>(after.Value(name) - before.Value(name));
    };

    // Serve counters aggregate the same JobMetrics stream as ServerStats,
    // so they reconcile exactly with the report — faults included.
    EXPECT_EQ(delta("oocgemm_serve_jobs_submitted"), report.submitted);
    EXPECT_EQ(delta("oocgemm_serve_jobs_completed"), report.completed);
    EXPECT_EQ(report.completed, 24);
    EXPECT_EQ(delta("oocgemm_serve_failovers"), report.failed_over);
    EXPECT_GE(report.failed_over, 1);
    EXPECT_EQ(delta("oocgemm_serve_device_failures"), report.device_failures);
    EXPECT_EQ(report.device_failures, 1);
    device_failures_total =
        static_cast<std::int64_t>(after.Value("oocgemm_serve_device_failures"));
    EXPECT_EQ(delta("oocgemm_serve_h2d_bytes"), report.transfer_bytes_h2d);
    EXPECT_EQ(delta("oocgemm_serve_d2h_bytes"), report.transfer_bytes_d2h);
    EXPECT_GT(report.transfer_bytes_h2d, 0);
    EXPECT_EQ(delta("oocgemm_serve_admission_rejects"), 0);
    EXPECT_EQ(after.Value("oocgemm_serve_queue_depth"), 0.0);

    const obs::HistogramSnapshot* lat_before =
        before.Histogram("oocgemm_serve_latency_seconds");
    const obs::HistogramSnapshot* lat_after =
        after.Histogram("oocgemm_serve_latency_seconds");
    ASSERT_NE(lat_after, nullptr);
    EXPECT_EQ(lat_after->count - (lat_before ? lat_before->count : 0),
              report.completed);

    server.Shutdown();
    snapshotter.Stop();  // lands the terminal snapshot files
  }

  // The exported exposition files carry the terminal state.
  const std::string prom = ReadFile(metrics_path);
  EXPECT_NE(prom.find("oocgemm_serve_jobs_completed_total"),
            std::string::npos);
  // The registry is process-wide, so earlier tests in the same process may
  // have contributed device failures; the file must carry the full total.
  EXPECT_NE(prom.find("oocgemm_serve_device_failures_total " +
                      std::to_string(device_failures_total)),
            std::string::npos)
      << prom.substr(0, 400);
  const std::string json = ReadFile(metrics_path + ".json");
  EXPECT_NE(json.find("\"name\":\"oocgemm_serve_latency_seconds\""),
            std::string::npos);
  std::remove(metrics_path.c_str());
  std::remove((metrics_path + ".json").c_str());
}

/// Delta of a per-device vgpu counter, summed over devices 0..count-1.
std::int64_t DeviceDelta(const obs::RegistrySnapshot& before,
                         const obs::RegistrySnapshot& after, const char* name,
                         int count) {
  double sum = 0.0;
  for (int d = 0; d < count; ++d) {
    sum += after.Value(name, Dev(d)) - before.Value(name, Dev(d));
  }
  return static_cast<std::int64_t>(sum);
}

// A job that spans devices and a batch that shares one timeline both
// complete with stats of their own; the report must still count every byte
// the devices moved.  Both servers are fault-free and every run succeeds at
// its first attempt, so no byte belongs to an attempt that did not finish.
TEST(MetricsReconcile, SpanAndBatchReportsCountEveryDeviceByte) {
  auto& reg = obs::MetricsRegistry::Default();
  ThreadPool pool(2);
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;
  for (int i = 0; i < 2; ++i) {
    storage.push_back(
        std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(14)));
    devices.push_back(storage.back().get());
  }
  auto expect_every_byte = [&](const serve::ServerReport& report,
                               const obs::RegistrySnapshot& before,
                               int count) {
    const obs::RegistrySnapshot after = reg.Snapshot();
    EXPECT_GT(report.transfer_bytes_h2d, 0);
    EXPECT_EQ(report.transfer_bytes_h2d,
              DeviceDelta(before, after, "oocgemm_vgpu_h2d_bytes", count));
    EXPECT_EQ(report.transfer_bytes_d2h,
              DeviceDelta(before, after, "oocgemm_vgpu_d2h_bytes", count));
  };

  {
    SCOPED_TRACE("hybrid job spanning two devices");
    serve::ServerConfig config;
    config.scheduler.num_workers = 1;
    config.scheduler.max_devices_per_job = 2;
    serve::SpgemmServer server(devices, pool, config);
    const obs::RegistrySnapshot before = reg.Snapshot();
    auto a = std::make_shared<const Csr>(testutil::RandomRmat(9, 8.0, 11));
    serve::SpgemmJob job{a, a, {}};
    job.options.mode = core::ExecutionMode::kHybrid;
    serve::JobResult r = server.Submit(std::move(job)).get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_EQ(r.metrics.devices_used, 2);
    ASSERT_EQ(r.metrics.attempts, 1);
    server.Drain();
    expect_every_byte(server.Report(), before, 2);
  }

  {
    SCOPED_TRACE("four jobs sharing B batched on one device");
    serve::ServerConfig config;
    config.scheduler.num_workers = 1;
    config.scheduler.max_batch_jobs = 4;
    serve::SpgemmServer server({devices[0]}, pool, config);
    const obs::RegistrySnapshot before = reg.Snapshot();
    // A CPU-only blocker holds the lone worker while the batch queues up.
    auto blocker = std::make_shared<const Csr>(testutil::RandomRmat(9, 8.0, 51));
    serve::SpgemmJob blocker_job{blocker, blocker, {}};
    blocker_job.options.mode = core::ExecutionMode::kCpuOnly;
    std::vector<std::future<serve::JobResult>> futures;
    futures.push_back(server.Submit(std::move(blocker_job)));
    auto b = std::make_shared<const Csr>(testutil::RandomRmat(9, 8.0, 50));
    for (int i = 0; i < 4; ++i) {
      auto a = std::make_shared<const Csr>(testutil::RandomCsr(
          b->rows(), b->rows(), 6.0, 500 + static_cast<std::uint64_t>(i)));
      serve::SpgemmJob job{a, b, {}};
      job.options.mode = core::ExecutionMode::kGpuOutOfCore;
      futures.push_back(server.Submit(std::move(job)));
    }
    server.Drain();
    for (auto& f : futures) {
      serve::JobResult r = f.get();
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      ASSERT_LE(r.metrics.attempts, 1);
    }
    const serve::ServerReport report = server.Report();
    ASSERT_GE(report.batches, 1);
    ASSERT_EQ(report.batch_fallbacks, 0);
    expect_every_byte(report, before, 1);
  }
}

TEST(MetricsReconcile, DisabledRegistryRecordsNothing) {
  auto& reg = obs::MetricsRegistry::Default();
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  Csr a = testutil::RandomRmat(8, 6.0, 61);

  reg.set_enabled(false);
  const obs::RegistrySnapshot before = reg.Snapshot();
  auto r = core::Hybrid(device, a, a, core::ExecutorOptions{}, pool);
  const obs::RegistrySnapshot after = reg.Snapshot();
  reg.set_enabled(true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->stats.bytes_h2d, 0);  // the run did real device work

  // First use may still *register* instruments (families appear), but no
  // value moves: every point in the after-snapshot equals its
  // before-snapshot counterpart, or is zero if it did not exist yet.
  for (const obs::MetricFamily& fa : after.families) {
    SCOPED_TRACE(fa.name);
    for (const obs::MetricPoint& pa : fa.points) {
      EXPECT_DOUBLE_EQ(pa.value, before.Value(fa.name, pa.labels));
      if (fa.kind == obs::MetricKind::kHistogram) {
        const obs::HistogramSnapshot* hb =
            before.Histogram(fa.name, pa.labels);
        EXPECT_EQ(pa.histogram.count, hb != nullptr ? hb->count : 0);
      }
    }
  }
}

}  // namespace
}  // namespace oocgemm
