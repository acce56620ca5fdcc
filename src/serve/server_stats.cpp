#include "serve/server_stats.hpp"

#include <algorithm>
#include <sstream>

#include "common/format.hpp"
#include "common/stats.hpp"

namespace oocgemm::serve {

ServerStats::ServerStats() {
  auto& reg = obs::MetricsRegistry::Default();
  metrics_.submitted = &reg.GetCounter("oocgemm_serve_jobs_submitted", {},
                                       "Jobs accepted into the server");
  metrics_.completed = &reg.GetCounter("oocgemm_serve_jobs_completed", {},
                                       "Jobs finished successfully");
  metrics_.rejected = &reg.GetCounter("oocgemm_serve_jobs_rejected", {},
                                      "Jobs refused by admission");
  metrics_.timed_out = &reg.GetCounter(
      "oocgemm_serve_jobs_timed_out", {},
      "Jobs whose deadline passed, queued or running");
  metrics_.failed = &reg.GetCounter("oocgemm_serve_jobs_failed", {},
                                    "Jobs failed after all retries");
  metrics_.failovers = &reg.GetCounter(
      "oocgemm_serve_failovers", {},
      "Failover rounds: re-plans off a faulted device lane");
  metrics_.device_failures = &reg.GetCounter(
      "oocgemm_serve_device_failures", {},
      "Devices pulled from the pool after a mid-run fault");
  metrics_.batches = &reg.GetCounter("oocgemm_serve_batches", {},
                                     "Multi-job device runs dispatched");
  metrics_.batched_jobs = &reg.GetCounter(
      "oocgemm_serve_batched_jobs", {}, "Jobs that rode in batched runs");
  metrics_.batch_fallbacks = &reg.GetCounter(
      "oocgemm_serve_batch_fallbacks", {},
      "Batches that failed as a whole and re-ran per job");
  metrics_.h2d_bytes = &reg.GetCounter(
      "oocgemm_serve_h2d_bytes", {},
      "Summed H2D bytes of completed jobs' winning runs");
  metrics_.d2h_bytes = &reg.GetCounter(
      "oocgemm_serve_d2h_bytes", {},
      "Summed D2H bytes of completed jobs' winning runs");
  metrics_.flops = &reg.GetCounter(
      "oocgemm_serve_flops", {}, "Summed flops of completed jobs");
  metrics_.latency = &reg.GetHistogram(
      "oocgemm_serve_latency_seconds", {},
      "Virtual arrival-to-finish latency of completed jobs");
  metrics_.queue_wait = &reg.GetHistogram(
      "oocgemm_serve_queue_seconds", {},
      "Virtual arrival-to-start wait of completed jobs");
  metrics_.batch_size = &reg.GetHistogram(
      "oocgemm_serve_batch_size", {}, "Jobs per dispatched batch");
}

void ServerStats::RecordSubmitted(const std::string& tenant) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++submitted_;
  metrics_.submitted->Add(1);
  if (!tenant.empty()) {
    ++tenant_submitted_[tenant];
    // Labeled live mirror; the registry escapes the tenant id on export.
    obs::MetricsRegistry::Default()
        .GetCounter("oocgemm_serve_tenant_submitted", {{"tenant", tenant}},
                    "Submissions per tenant id")
        .Add(1);
  }
}

void ServerStats::RecordOutcome(const JobMetrics& metrics) {
  std::unique_lock<std::mutex> lock(mutex_);
  finished_.push_back(metrics);
  if (metrics.failovers > 0) metrics_.failovers->Add(metrics.failovers);
  switch (metrics.outcome) {
    case JobOutcome::kCompleted:
      metrics_.completed->Add(1);
      metrics_.h2d_bytes->Add(metrics.stats.bytes_h2d);
      metrics_.d2h_bytes->Add(metrics.stats.bytes_d2h);
      metrics_.flops->Add(metrics.stats.flops);
      metrics_.latency->Record(metrics.latency_seconds);
      metrics_.queue_wait->Record(metrics.queue_seconds);
      break;
    case JobOutcome::kRejected: metrics_.rejected->Add(1); break;
    case JobOutcome::kTimedOut: metrics_.timed_out->Add(1); break;
    case JobOutcome::kFailed: metrics_.failed->Add(1); break;
  }
}

ServerReport ServerStats::Snapshot() const {
  std::unique_lock<std::mutex> lock(mutex_);
  ServerReport r;
  r.submitted = submitted_;
  r.batches = batches_;
  r.batched_jobs = batched_jobs_;
  r.batch_fallbacks = batch_fallbacks_;
  if (batches_ > 0) {
    r.avg_batch_size =
        static_cast<double>(batched_jobs_) / static_cast<double>(batches_);
  }

  std::vector<double> latencies, queue_waits;
  double min_arrival = 0.0, max_finish = 0.0;
  double flops = 0.0;
  bool any_completed = false;
  for (const JobMetrics& m : finished_) {
    r.retries += std::max(0, m.attempts - 1);
    r.failed_over += m.failovers;
    if (m.device_oom) ++r.device_oom_failures;
    switch (m.outcome) {
      case JobOutcome::kCompleted: {
        ++r.completed;
        if (m.devices_used > 1) ++r.via_multi_device;
        if (m.device_index >= 0) {
          if (static_cast<std::size_t>(m.device_index) >= r.devices.size()) {
            r.devices.resize(static_cast<std::size_t>(m.device_index) + 1);
            for (std::size_t d = 0; d < r.devices.size(); ++d) {
              r.devices[d].index = static_cast<int>(d);
            }
          }
          ++r.devices[static_cast<std::size_t>(m.device_index)].completed;
        }
        latencies.push_back(m.latency_seconds);
        queue_waits.push_back(m.queue_seconds);
        flops += static_cast<double>(m.stats.flops);
        r.b_panel_uploads += m.stats.b_panel_uploads;
        r.b_panel_hits += m.stats.b_panel_hits;
        r.transfer_bytes_h2d += m.stats.bytes_h2d;
        r.transfer_bytes_d2h += m.stats.bytes_d2h;
        if (!any_completed || m.virtual_arrival < min_arrival) {
          min_arrival = m.virtual_arrival;
        }
        if (!any_completed || m.virtual_finish > max_finish) {
          max_finish = m.virtual_finish;
        }
        any_completed = true;
        switch (m.executor) {
          case core::ExecutionMode::kCpuOnly: ++r.via_cpu; break;
          case core::ExecutionMode::kHybrid: ++r.via_hybrid; break;
          default: ++r.via_gpu; break;
        }
        break;
      }
      case JobOutcome::kRejected: ++r.rejected; break;
      case JobOutcome::kTimedOut:
        ++r.timed_out;
        if (!m.executed) ++r.timed_out_in_queue;
        break;
      case JobOutcome::kFailed: ++r.failed; break;
    }
  }

  r.device_failures = device_failures_;
  if (r.devices.size() < device_failure_counts_.size()) {
    const std::size_t old = r.devices.size();
    r.devices.resize(device_failure_counts_.size());
    for (std::size_t d = old; d < r.devices.size(); ++d) {
      r.devices[d].index = static_cast<int>(d);
    }
  }
  for (std::size_t d = 0; d < device_failure_counts_.size(); ++d) {
    r.devices[d].failures = device_failure_counts_[d];
  }

  if (any_completed) {
    r.virtual_makespan_seconds = max_finish - min_arrival;
    if (r.virtual_makespan_seconds > 0.0) {
      r.jobs_per_second =
          static_cast<double>(r.completed) / r.virtual_makespan_seconds;
      r.total_gflops = flops / r.virtual_makespan_seconds / 1e9;
    }
  }
  {
    std::map<std::string, TenantServeReport> tenants;
    for (const auto& [tenant, count] : tenant_submitted_) {
      TenantServeReport& t = tenants[tenant];
      t.tenant = tenant;
      t.submitted = count;
    }
    for (const JobMetrics& m : finished_) {
      if (m.tenant.empty()) continue;
      TenantServeReport& t = tenants[m.tenant];
      t.tenant = m.tenant;
      switch (m.outcome) {
        case JobOutcome::kCompleted: ++t.completed; break;
        case JobOutcome::kRejected: ++t.rejected; break;
        case JobOutcome::kTimedOut: ++t.timed_out; break;
        case JobOutcome::kFailed: ++t.failed; break;
      }
    }
    for (auto& [tenant, t] : tenants) r.tenants.push_back(std::move(t));
  }

  Summary lat = Summarize(latencies);
  r.latency_p50 = lat.p50;
  r.latency_p95 = lat.p95;
  r.latency_p99 = lat.p99;
  r.latency_mean = lat.mean;
  r.queue_p95 = Summarize(queue_waits).p95;
  if (r.submitted > 0) {
    r.rejection_rate =
        static_cast<double>(r.rejected) / static_cast<double>(r.submitted);
  }
  return r;
}

std::string ServerReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"submitted\": " << submitted << ",\n";
  os << "  \"completed\": " << completed << ",\n";
  os << "  \"rejected\": " << rejected << ",\n";
  os << "  \"timed_out\": " << timed_out << ",\n";
  os << "  \"timed_out_in_queue\": " << timed_out_in_queue << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"device_oom_failures\": " << device_oom_failures << ",\n";
  os << "  \"retries\": " << retries << ",\n";
  os << "  \"failed_over\": " << failed_over << ",\n";
  os << "  \"device_failures\": " << device_failures << ",\n";
  os << "  \"via_cpu\": " << via_cpu << ",\n";
  os << "  \"via_gpu\": " << via_gpu << ",\n";
  os << "  \"via_hybrid\": " << via_hybrid << ",\n";
  os << "  \"via_multi_device\": " << via_multi_device << ",\n";
  os << "  \"devices\": [";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const DeviceServeReport& d = devices[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"index\": " << d.index << ", \"completed\": " << d.completed
       << ", \"lease_count\": " << d.lease_count
       << ", \"contention_count\": " << d.contention_count
       << ", \"capacity_bytes\": " << d.capacity_bytes
       << ", \"failures\": " << d.failures
       << ", \"healthy\": " << (d.healthy ? "true" : "false")
       << ", \"busy_seconds\": " << d.busy_seconds
       << ", \"utilization\": " << d.utilization << "}";
  }
  os << (devices.empty() ? "],\n" : "\n  ],\n");
  os << "  \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantServeReport& t = tenants[i];
    os << (i == 0 ? "\n" : ",\n");
    // JsonEscape: tenant ids are caller bytes and must not break the
    // document no matter what they contain.
    os << "    {\"tenant\": " << JsonEscape(t.tenant)
       << ", \"submitted\": " << t.submitted
       << ", \"completed\": " << t.completed
       << ", \"rejected\": " << t.rejected
       << ", \"timed_out\": " << t.timed_out
       << ", \"failed\": " << t.failed << "}";
  }
  os << (tenants.empty() ? "],\n" : "\n  ],\n");
  os << "  \"batches\": " << batches << ",\n";
  os << "  \"batched_jobs\": " << batched_jobs << ",\n";
  os << "  \"avg_batch_size\": " << avg_batch_size << ",\n";
  os << "  \"batch_fallbacks\": " << batch_fallbacks << ",\n";
  os << "  \"b_panel_uploads\": " << b_panel_uploads << ",\n";
  os << "  \"b_panel_hits\": " << b_panel_hits << ",\n";
  os << "  \"transfer_bytes_h2d\": " << transfer_bytes_h2d << ",\n";
  os << "  \"transfer_bytes_d2h\": " << transfer_bytes_d2h << ",\n";
  os << "  \"virtual_makespan_seconds\": " << virtual_makespan_seconds
     << ",\n";
  os << "  \"jobs_per_second\": " << jobs_per_second << ",\n";
  os << "  \"total_gflops\": " << total_gflops << ",\n";
  os << "  \"latency_p50\": " << latency_p50 << ",\n";
  os << "  \"latency_p95\": " << latency_p95 << ",\n";
  os << "  \"latency_p99\": " << latency_p99 << ",\n";
  os << "  \"latency_mean\": " << latency_mean << ",\n";
  os << "  \"queue_p95\": " << queue_p95 << ",\n";
  os << "  \"rejection_rate\": " << rejection_rate << "\n";
  os << "}";
  return os.str();
}

std::string ServerReport::DebugString() const {
  std::ostringstream os;
  os << "jobs " << completed << "/" << submitted << " ok (" << rejected
     << " rejected, " << timed_out << " timed out, " << failed << " failed), "
     << Fixed(jobs_per_second, 2) << " jobs/s over "
     << HumanSeconds(virtual_makespan_seconds) << ", latency p50 "
     << HumanSeconds(latency_p50) << " p95 " << HumanSeconds(latency_p95)
     << " p99 " << HumanSeconds(latency_p99);
  if (batches > 0) {
    os << ", " << batched_jobs << " jobs in " << batches << " batches (avg "
       << Fixed(avg_batch_size, 2) << ", " << b_panel_uploads
       << " B-panel uploads)";
  }
  if (failed_over > 0 || device_failures > 0) {
    os << "; " << failed_over << " failovers across " << device_failures
       << " device failures";
  }
  if (devices.size() > 1) {
    os << "; devices:";
    for (const DeviceServeReport& d : devices) {
      os << " [" << d.index << "] " << d.completed << " jobs, "
         << d.lease_count << " leases, " << Fixed(d.utilization * 100.0, 1)
         << "% busy";
      if (!d.healthy) os << " (DEAD)";
    }
    if (via_multi_device > 0) {
      os << "; " << via_multi_device << " multi-device runs";
    }
  }
  return os.str();
}

}  // namespace oocgemm::serve
