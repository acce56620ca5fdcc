#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>

#include "core/executor_options.hpp"
#include "estimate/estimator.hpp"
#include "kernels/cpu_spgemm.hpp"
#include "kernels/kernel_registry.hpp"
#include "partition/panel_plan.hpp"
#include "serve/admission.hpp"
#include "sparse/analysis.hpp"
#include "suite.hpp"

namespace suite {

using namespace oocgemm;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void Metrics::Merge(const Metrics& other) {
  for (const auto& [name, entry] : other.values_) values_[name] = entry;
}

std::uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(std::uint64_t id, const char* name, std::uint64_t parent,
                    std::int64_t job, Clock::time_point start,
                    Clock::time_point end) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{id, parent, job, name, Seconds(origin_, start), Seconds(origin_, end)});
}

std::uint64_t Tracer::Add(const char* name, std::uint64_t parent,
                          std::int64_t job, Clock::time_point start,
                          Clock::time_point end) {
  const std::uint64_t id = NewId();
  Record(id, name, parent, job, start, end);
  return id;
}

bool Tracer::WriteJson(const std::string& path, const Options& options,
                       double wall_gflops_untraced,
                       double wall_gflops_traced) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, "
                "\"wall_gflops_untraced\": %.17g, \"wall_gflops_traced\": "
                "%.17g, \"spans\": [",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                wall_gflops_untraced, wall_gflops_traced);
  out << buf;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\": %llu, \"parent\": %llu, \"job\": %lld, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.job), s.name, s.start_s * 1e6,
                  s.end_s * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double FamilySum(const obs::RegistrySnapshot& snap, const std::string& name,
                 const std::string& label_key, const std::string& label_value) {
  double total = 0.0;
  for (const obs::MetricFamily& family : snap.families) {
    if (family.name != name) continue;
    for (const obs::MetricPoint& point : family.points) {
      bool match = label_value.empty();
      for (const auto& [key, value] : point.labels) {
        if (key == label_key && value == label_value) match = true;
      }
      if (match) total += point.value;
    }
  }
  return total;
}

void SetObsDeltaMetrics(const obs::RegistrySnapshot& before,
                        const obs::RegistrySnapshot& after, double jobs,
                        Metrics& m) {
  auto delta = [&](const char* name, const char* key = "",
                   const char* value = "") {
    return FamilySum(after, name, key, value) -
           FamilySum(before, name, key, value);
  };
  const double rows = delta("oocgemm_kernel_rows");
  for (const char* s : {"hash", "dense", "sort", "merge"}) {
    m.Set(std::string("kernels.rows_share.") + s,
          Ratio(delta("oocgemm_kernel_rows", "strategy", s), rows), "fraction");
  }
  m.Set("kernels.symbolic_ms",
        Ratio(1e3 * delta("oocgemm_kernel_symbolic_seconds"), jobs), "ms/job");
  m.Set("kernels.numeric_ms",
        Ratio(1e3 * delta("oocgemm_kernel_numeric_seconds"), jobs), "ms/job");
  m.Set("kernels.misroute_share", Ratio(delta("oocgemm_kernel_misroutes"), rows),
        "fraction");
  m.Set("vgpu.h2d_mib",
        Ratio(delta("oocgemm_vgpu_h2d_bytes") / (1 << 20), jobs), "MiB/job");
  m.Set("vgpu.d2h_mib",
        Ratio(delta("oocgemm_vgpu_d2h_bytes") / (1 << 20), jobs), "MiB/job");
  m.Set("vgpu.allocs", Ratio(delta("oocgemm_vgpu_allocs"), jobs), "1/job");
  const double hits = delta("oocgemm_core_panel_cache_hits");
  m.Set("core.panel_cache_hit_rate",
        Ratio(hits, hits + delta("oocgemm_core_panel_cache_misses")),
        "fraction");
  m.Set("estimate.fallbacks",
        Ratio(delta("oocgemm_estimate_fallbacks_total"), jobs), "1/job");
}

namespace {

template <typename Fn>
double TimeCall(Tracer& tracer, const char* name, std::uint64_t parent,
                std::int64_t job, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  tracer.Add(name, parent, job, t0, t1);
  return Seconds(t0, t1);
}

}  // namespace

void RunLayerReplay(const std::vector<ReplayInput>& inputs,
                    std::int64_t device_capacity, ThreadPool& pool,
                    Tracer& tracer, RunResult& result) {
  const auto phase_start = Clock::now();
  const std::uint64_t phase = tracer.NewId();
  const core::ExecutorOptions exec;
  const estimate::EstimatorOptions est_opts;
  partition::PlanOptions sampled = exec.plan;
  partition::PlanOptions estimated = exec.plan;
  estimated.use_sampling_estimator = true;

  struct Strategy {
    const char* metric;
    const char* span;
    kernels::AccumulatorKind kind;
  };
  const Strategy strategies[] = {
      {"kernels.cpu_mflops.auto", "kernels.CpuSpgemm.auto",
       kernels::AccumulatorKind::kAuto},
      {"kernels.cpu_mflops.hash", "kernels.CpuSpgemm.hash",
       kernels::AccumulatorKind::kHash},
      {"kernels.cpu_mflops.dense", "kernels.CpuSpgemm.dense",
       kernels::AccumulatorKind::kDense},
      {"kernels.cpu_mflops.sort", "kernels.CpuSpgemm.sort",
       kernels::AccumulatorKind::kSortMerge},
      {"kernels.cpu_mflops.merge", "kernels.CpuSpgemm.merge",
       kernels::AccumulatorKind::kRowMerge},
  };
  std::vector<double> cpu_seconds(std::size(strategies), 0.0);
  double row_nnz_s = 0.0, plan_sampled_s = 0.0, plan_estimated_s = 0.0;
  double product_s = 0.0, admit_exact_s = 0.0, admit_estimate_s = 0.0;
  double nnz_rel_error = 0.0, flops = 0.0;

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const sparse::Csr& a = *inputs[i].a;
    const sparse::Csr& b = *inputs[i].b;
    const std::int64_t job = static_cast<std::int64_t>(i);
    flops += static_cast<double>(sparse::TotalFlops(a, b));
    row_nnz_s += TimeCall(tracer, "sparse.EstimateRowNnz", phase, job,
                          [&] { (void)sparse::EstimateRowNnz(a, b); });
    bool planned = true;
    plan_sampled_s += TimeCall(tracer, "partition.PlanPanels.sampled", phase,
                               job, [&] {
                                 planned &= partition::PlanPanels(
                                     a, b, device_capacity, sampled).ok();
                               });
    plan_estimated_s += TimeCall(tracer, "partition.PlanPanels.estimated",
                                 phase, job, [&] {
                                   planned &= partition::PlanPanels(
                                       a, b, device_capacity, estimated).ok();
                                 });
    if (!planned) ++result.failed;
    estimate::ProductEstimate est;
    product_s += TimeCall(tracer, "estimate.EstimateProduct", phase, job,
                          [&] { est = estimate::EstimateProduct(a, b, est_opts); });
    const double nnz = static_cast<double>(inputs[i].reference->nnz());
    nnz_rel_error += Ratio(std::abs(est.total_nnz - nnz), nnz);
    for (std::size_t s = 0; s < std::size(strategies); ++s) {
      kernels::CpuSpgemmOptions cpu;
      cpu.accumulator = strategies[s].kind;
      sparse::Csr c;
      cpu_seconds[s] += TimeCall(tracer, strategies[s].span, phase, job,
                                 [&] { c = kernels::CpuSpgemm(a, b, pool, cpu); });
      ++result.attempted;
      if (!c.ApproxEquals(*inputs[i].reference)) {
        ++result.mismatches;
        ++result.failed;
      }
    }
    admit_exact_s += TimeCall(tracer, "serve.EstimateJobDemand", phase, job, [&] {
      (void)serve::EstimateJobDemand(a, b, device_capacity, exec);
    });
    admit_estimate_s += TimeCall(
        tracer, "serve.EstimateJobDemandSampled", phase, job, [&] {
          (void)serve::EstimateJobDemandSampled(a, b, device_capacity, exec,
                                                est_opts);
        });
  }
  tracer.Record(phase, "phase.replay", 0, -1, phase_start, Clock::now());

  const double n = static_cast<double>(inputs.size());
  Metrics& m = result.metrics;
  m.Set("sparse.row_nnz_estimate_ms", 1e3 * row_nnz_s / n, "ms");
  m.Set("partition.plan_ms.sampled", 1e3 * plan_sampled_s / n, "ms");
  m.Set("partition.plan_ms.estimated", 1e3 * plan_estimated_s / n, "ms");
  m.Set("estimate.product_ms", 1e3 * product_s / n, "ms");
  m.Set("estimate.nnz_rel_error", nnz_rel_error / n, "fraction");
  m.Set("serve.admit_exact_us", 1e6 * admit_exact_s / n, "us");
  m.Set("serve.admit_estimate_us", 1e6 * admit_estimate_s / n, "us");
  for (std::size_t s = 0; s < std::size(strategies); ++s) {
    m.Set(strategies[s].metric, flops / cpu_seconds[s] / 1e6, "MFLOP/s");
  }
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void FillUnmeasuredLayers(Metrics& m) {
  static const char* const kLayerMetrics[][2] = {
      {"sparse.row_nnz_estimate_ms", "ms"},
      {"partition.plan_ms.sampled", "ms"},
      {"partition.plan_ms.estimated", "ms"},
      {"partition.chunks", "1/job"},
      {"estimate.product_ms", "ms"},
      {"estimate.nnz_rel_error", "fraction"},
      {"estimate.fallbacks", "1/job"},
      {"kernels.cpu_mflops.auto", "MFLOP/s"},
      {"kernels.cpu_mflops.hash", "MFLOP/s"},
      {"kernels.cpu_mflops.dense", "MFLOP/s"},
      {"kernels.cpu_mflops.sort", "MFLOP/s"},
      {"kernels.cpu_mflops.merge", "MFLOP/s"},
      {"kernels.rows_share.hash", "fraction"},
      {"kernels.rows_share.dense", "fraction"},
      {"kernels.rows_share.sort", "fraction"},
      {"kernels.rows_share.merge", "fraction"},
      {"kernels.symbolic_ms", "ms/job"},
      {"kernels.numeric_ms", "ms/job"},
      {"kernels.misroute_share", "fraction"},
      {"vgpu.transfer_fraction.sync", "fraction"},
      {"vgpu.overlap_factor.async", "ratio"},
      {"vgpu.kernel_busy_s.async", "s_virtual"},
      {"vgpu.h2d_busy_s.async", "s_virtual"},
      {"vgpu.d2h_busy_s.async", "s_virtual"},
      {"vgpu.h2d_mib", "MiB/job"},
      {"vgpu.d2h_mib", "MiB/job"},
      {"vgpu.allocs", "1/job"},
      {"core.wall_ms.sync", "ms"},
      {"core.wall_ms.async", "ms"},
      {"core.wall_ms.hybrid", "ms"},
      {"core.wall_ms.cpu", "ms"},
      {"core.wall_ms.streamed", "ms"},
      {"core.wall_ms.multigpu2", "ms"},
      {"core.assemble_ms", "ms"},
      {"core.virtual_s.sync", "s_virtual"},
      {"core.virtual_s.async", "s_virtual"},
      {"core.virtual_s.hybrid", "s_virtual"},
      {"core.virtual_s.cpu", "s_virtual"},
      {"core.virtual_s.streamed", "s_virtual"},
      {"core.virtual_s.multigpu2", "s_virtual"},
      {"core.hybrid_gpu_chunk_share", "fraction"},
      {"core.panel_cache_hit_rate", "fraction"},
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.admit_exact_us", "us"},
      {"serve.admit_estimate_us", "us"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_p99", "ms"},
      {"serve.wait_ms_p99", "ms"},
      {"serve.retries", "1/job"},
      {"serve.reserve_shortfalls", "1/job"},
      {"serve.route_share.cpu", "fraction"},
      {"serve.route_share.gpu", "fraction"},
      {"serve.route_share.hybrid", "fraction"},
      {"serve.route_share.multi_device", "fraction"},
      {"serve.lane_utilization", "fraction"},
      {"serve.batch_size_avg", "jobs"},
      {"serve.b_panel_uploads_per_job", "1/job"},
      {"serve.wall_drift", "ratio"},
      {"serve.virtual_latency_p50_ms", "ms_virtual"},
      {"serve.virtual_latency_p99_ms", "ms_virtual"},
      {"fleet.submit_us_p50", "us"},
      {"fleet.submit_us_p99", "us"},
      {"fleet.shard_imbalance", "ratio"},
      {"fleet.affinity_share", "fraction"},
      {"fleet.replica_share", "fraction"},
      {"fleet.probe_skips", "1/job"},
      {"fleet.failover_resubmissions", "1/job"},
      {"loadgen.latency_p99_ms", "ms"},
      {"loadgen.lateness_p99_ms", "ms"},
      {"loadgen.backlog_end", "jobs"},
      {"trace.overhead", "fraction"},
      {"paper.fig4_transfer_fraction_min", "%"},
      {"paper.fig4_transfer_fraction_max", "%"},
      {"paper.fig7_gpu_over_cpu_min", "x"},
      {"paper.fig7_gpu_over_cpu_max", "x"},
      {"paper.fig7_hybrid_over_gpu_min", "x"},
      {"paper.fig7_hybrid_over_gpu_max", "x"},
      {"paper.fig8_async_gain_min", "%"},
      {"paper.fig8_async_gain_max", "%"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    if (m.all().count(name) == 0) m.Set(name, 0.0, unit);
  }
}

}  // namespace suite
