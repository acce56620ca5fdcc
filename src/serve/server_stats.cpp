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
  ++report_.submitted;
  metrics_.submitted->Add(1);
  if (!tenant.empty()) {
    ++TenantLocked(tenant).submitted;
    // Labeled live mirror; the registry escapes the tenant id on export.
    obs::MetricsRegistry::Default()
        .GetCounter("oocgemm_serve_tenant_submitted", {{"tenant", tenant}},
                    "Submissions per tenant id")
        .Add(1);
  }
}

void ServerStats::RecordOutcome(const JobMetrics& m) {
  std::unique_lock<std::mutex> lock(mutex_);
  ServerReport& r = report_;
  r.retries += std::max(0, m.attempts - 1);
  r.failed_over += m.failovers;
  if (m.device_oom) ++r.device_oom_failures;
  if (m.failovers > 0) metrics_.failovers->Add(m.failovers);
  TenantServeReport* tenant =
      m.tenant.empty() ? nullptr : &TenantLocked(m.tenant);
  switch (m.outcome) {
    case JobOutcome::kCompleted: {
      if (r.completed == 0 || m.virtual_arrival < min_arrival_) {
        min_arrival_ = m.virtual_arrival;
      }
      if (r.completed == 0 || m.virtual_finish > max_finish_) {
        max_finish_ = m.virtual_finish;
      }
      ++r.completed;
      if (tenant != nullptr) ++tenant->completed;
      if (m.devices_used > 1) ++r.via_multi_device;
      if (m.device_index >= 0) ++DeviceLocked(m.device_index).completed;
      latencies_.push_back(m.latency_seconds);
      queue_waits_.push_back(m.queue_seconds);
      flops_ += static_cast<double>(m.stats.flops);
      r.b_panel_uploads += m.stats.b_panel_uploads;
      r.b_panel_hits += m.stats.b_panel_hits;
      r.transfer_bytes_h2d += m.stats.bytes_h2d;
      r.transfer_bytes_d2h += m.stats.bytes_d2h;
      switch (m.executor) {
        case core::ExecutionMode::kCpuOnly: ++r.via_cpu; break;
        case core::ExecutionMode::kHybrid: ++r.via_hybrid; break;
        default: ++r.via_gpu; break;
      }
      metrics_.completed->Add(1);
      metrics_.h2d_bytes->Add(m.stats.bytes_h2d);
      metrics_.d2h_bytes->Add(m.stats.bytes_d2h);
      metrics_.flops->Add(m.stats.flops);
      metrics_.latency->Record(m.latency_seconds);
      metrics_.queue_wait->Record(m.queue_seconds);
      break;
    }
    case JobOutcome::kRejected:
      ++r.rejected;
      if (tenant != nullptr) ++tenant->rejected;
      metrics_.rejected->Add(1);
      break;
    case JobOutcome::kTimedOut:
      ++r.timed_out;
      if (!m.executed) ++r.timed_out_in_queue;
      if (tenant != nullptr) ++tenant->timed_out;
      metrics_.timed_out->Add(1);
      break;
    case JobOutcome::kFailed:
      ++r.failed;
      if (tenant != nullptr) ++tenant->failed;
      metrics_.failed->Add(1);
      break;
  }
}

void ServerStats::RecordBatch(std::int64_t members) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++report_.batches;
  report_.batched_jobs += members;
  metrics_.batches->Add(1);
  metrics_.batched_jobs->Add(members);
  metrics_.batch_size->Record(static_cast<double>(members));
}

void ServerStats::RecordBatchFallback() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++report_.batch_fallbacks;
  metrics_.batch_fallbacks->Add(1);
}

void ServerStats::RecordDeviceFailure(int index) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++report_.device_failures;
  metrics_.device_failures->Add(1);
  if (index >= 0) ++DeviceLocked(index).failures;
}

DeviceServeReport& ServerStats::DeviceLocked(int index) {
  std::vector<DeviceServeReport>& devices = report_.devices;
  while (devices.size() <= static_cast<std::size_t>(index)) {
    DeviceServeReport section;
    section.index = static_cast<int>(devices.size());
    devices.push_back(section);
  }
  return devices[static_cast<std::size_t>(index)];
}

TenantServeReport& ServerStats::TenantLocked(const std::string& tenant) {
  std::vector<TenantServeReport>& tenants = report_.tenants;
  auto it = std::lower_bound(
      tenants.begin(), tenants.end(), tenant,
      [](const TenantServeReport& t, const std::string& name) {
        return t.tenant < name;
      });
  if (it == tenants.end() || it->tenant != tenant) {
    it = tenants.insert(it, TenantServeReport{});
    it->tenant = tenant;
  }
  return *it;
}

ServerReport ServerStats::Snapshot() const {
  std::unique_lock<std::mutex> lock(mutex_);
  ServerReport r = report_;
  if (r.batches > 0) {
    r.avg_batch_size =
        static_cast<double>(r.batched_jobs) / static_cast<double>(r.batches);
  }
  if (r.completed > 0) {
    r.virtual_makespan_seconds = max_finish_ - min_arrival_;
    if (r.virtual_makespan_seconds > 0.0) {
      r.jobs_per_second =
          static_cast<double>(r.completed) / r.virtual_makespan_seconds;
      r.total_gflops = flops_ / r.virtual_makespan_seconds / 1e9;
    }
  }
  Summary lat = Summarize(latencies_);
  r.latency_p50 = lat.p50;
  r.latency_p95 = lat.p95;
  r.latency_p99 = lat.p99;
  r.latency_mean = lat.mean;
  r.queue_p95 = Summarize(queue_waits_).p95;
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
