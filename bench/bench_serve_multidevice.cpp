// Multi-device serving benchmark (extension beyond the paper's single-node
// evaluation): the same multi-tenant workload served from pools of 1, 2
// and 4 virtual GPUs.  Every job is an explicit out-of-core device run, so
// the device lanes are the bottleneck and the pool is the lever being
// measured.
//
// Expected: virtual jobs/sec strictly increasing from 1 to 2 devices
// (enforced), and per-device lease counts spread across the pool rather
// than piling onto device 0.  Emits BENCH_serve_multidevice.json.
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "serve/server.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace oocgemm;

std::shared_ptr<const sparse::Csr> Rmat(int scale, double edge_factor,
                                        std::uint64_t seed) {
  sparse::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return std::make_shared<const sparse::Csr>(sparse::GenerateRmat(p));
}

constexpr int kJobs = 24;

/// Serves the whole workload from a fresh pool of `num_devices` GPUs and
/// returns the report.  Every tenant squares its own operand (no shared B,
/// so no batching interference) in explicit GPU mode.
serve::ServerReport RunWorkload(
    const std::vector<std::shared_ptr<const sparse::Csr>>& as,
    int num_devices) {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;
  for (int d = 0; d < num_devices; ++d) {
    storage.push_back(
        std::make_unique<vgpu::Device>(vgpu::ScaledV100Properties(14)));
    devices.push_back(storage.back().get());
  }
  ThreadPool pool(2);
  serve::ServerConfig config;
  config.scheduler.num_workers = num_devices + 1;
  config.scheduler.cpu_lanes = 1;
  config.max_queue = kJobs + 1;
  serve::SpgemmServer server(devices, pool, config);

  std::vector<std::future<serve::JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    serve::SpgemmJob job;
    job.a = as[static_cast<std::size_t>(i)];
    job.b = as[static_cast<std::size_t>(i)];
    job.options.mode = core::ExecutionMode::kGpuOutOfCore;
    futures.push_back(server.Submit(std::move(job)));
  }
  server.Drain();
  for (auto& f : futures) {
    serve::JobResult r = f.get();
    if (!r.ok()) {
      std::fprintf(stderr, "job %llu failed: %s\n",
                   static_cast<unsigned long long>(r.metrics.id),
                   r.status.ToString().c_str());
      std::exit(1);
    }
  }
  return server.Report();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Extension - multi-device serving",
      "IPDPS'21 Sec. VII (future work, applied to the serving runtime)",
      "virtual jobs/sec strictly increasing from 1 to 2 devices; leases "
      "spread across the pool");

  std::vector<std::shared_ptr<const sparse::Csr>> as;
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(Rmat(8, 8.0, 100 + static_cast<std::uint64_t>(i)));
  }

  const std::vector<int> device_counts = {1, 2, 4};
  TablePrinter table(
      {"devices", "jobs/s", "speedup", "makespan", "p95 lat", "leases"});
  std::ostringstream runs;
  std::vector<double> jps;
  for (std::size_t i = 0; i < device_counts.size(); ++i) {
    const int d = device_counts[i];
    serve::ServerReport report = RunWorkload(as, d);
    if (report.completed != kJobs || report.device_oom_failures != 0) {
      std::fprintf(stderr, "FAIL: %lld/%d completed, %lld device OOMs\n",
                   static_cast<long long>(report.completed), kJobs,
                   static_cast<long long>(report.device_oom_failures));
      return 1;
    }
    jps.push_back(report.jobs_per_second);

    std::ostringstream leases;
    for (std::size_t j = 0; j < report.devices.size(); ++j) {
      leases << (j == 0 ? "" : "/") << report.devices[j].lease_count;
    }
    table.AddRow({std::to_string(d), Fixed(report.jobs_per_second, 2),
                  Fixed(report.jobs_per_second / jps.front(), 2) + "x",
                  HumanSeconds(report.virtual_makespan_seconds),
                  HumanSeconds(report.latency_p95), leases.str()});

    const double uploads_per_job =
        report.completed > 0
            ? static_cast<double>(report.b_panel_uploads) /
                  static_cast<double>(report.completed)
            : 0.0;
    runs << (i == 0 ? "" : ",\n") << "    {\"devices\": " << d
         << ", \"b_panel_uploads_per_job\": " << uploads_per_job
         << ", \"report\": " << report.ToJson() << "}";
  }
  table.Print();

  const double speedup_2 = jps[1] / jps[0];
  std::printf("\n1 device: %s jobs/s; 2 devices: %s jobs/s (%sx)\n",
              Fixed(jps[0], 2).c_str(), Fixed(jps[1], 2).c_str(),
              Fixed(speedup_2, 2).c_str());

  std::ostringstream json;
  json << "{\n  \"experiment\": \"serve_multidevice\",\n"
       << "  \"jobs\": " << kJobs << ",\n"
       << "  \"speedup_2_devices\": " << speedup_2 << ",\n"
       << "  \"runs\": [\n"
       << runs.str() << "\n  ]\n}";
  if (!bench::WriteBenchJson("BENCH_serve_multidevice.json", json.str())) {
    return 1;
  }

  if (jps[1] <= jps[0]) {
    std::fprintf(stderr,
                 "FAIL: jobs/sec not strictly increasing from 1 to 2 "
                 "devices (%.3f -> %.3f)\n",
                 jps[0], jps[1]);
    return 1;
  }
  return 0;
}
