#include "fleet/fleet_report.hpp"

#include <algorithm>
#include <sstream>

#include "common/format.hpp"

namespace oocgemm::fleet {

FleetTotals FleetReport::Sum(const std::vector<serve::ServerReport>& reports) {
  FleetTotals t;
  for (const serve::ServerReport& r : reports) {
    t.submitted += r.submitted;
    t.completed += r.completed;
    t.rejected += r.rejected;
    t.timed_out += r.timed_out;
    t.failed += r.failed;
    t.retries += r.retries;
    t.failed_over += r.failed_over;
    t.device_failures += r.device_failures;
    t.device_oom_failures += r.device_oom_failures;
    t.batches += r.batches;
    t.batched_jobs += r.batched_jobs;
    t.b_panel_uploads += r.b_panel_uploads;
    t.b_panel_hits += r.b_panel_hits;
    t.transfer_bytes_h2d += r.transfer_bytes_h2d;
    t.transfer_bytes_d2h += r.transfer_bytes_d2h;
    t.virtual_makespan_seconds =
        std::max(t.virtual_makespan_seconds, r.virtual_makespan_seconds);
  }
  if (t.virtual_makespan_seconds > 0.0) {
    t.jobs_per_second =
        static_cast<double>(t.completed) / t.virtual_makespan_seconds;
  }
  return t;
}

bool FleetReport::Reconciles() const {
  const FleetTotals s = Sum(shard_reports);
  const bool columns_match =
      totals.submitted == s.submitted && totals.completed == s.completed &&
      totals.rejected == s.rejected && totals.timed_out == s.timed_out &&
      totals.failed == s.failed && totals.retries == s.retries &&
      totals.failed_over == s.failed_over &&
      totals.device_failures == s.device_failures &&
      totals.device_oom_failures == s.device_oom_failures &&
      totals.batches == s.batches && totals.batched_jobs == s.batched_jobs &&
      totals.b_panel_uploads == s.b_panel_uploads &&
      totals.b_panel_hits == s.b_panel_hits &&
      totals.transfer_bytes_h2d == s.transfer_bytes_h2d &&
      totals.transfer_bytes_d2h == s.transfer_bytes_d2h;
  // Every shard-side submission is either a routed job's first placement or
  // a failover resubmission; every routed job resolves exactly one future.
  const bool flow_matches =
      totals.submitted ==
          routing.routed_jobs + routing.failover_resubmissions &&
      delivered_completed + delivered_rejected + delivered_timed_out +
              delivered_failed ==
          routing.routed_jobs;
  return columns_match && flow_matches;
}

std::string FleetReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"shards\": " << shards << ",\n";
  os << "  \"replication\": " << replication << ",\n";
  os << "  \"policy\": " << JsonEscape(policy) << ",\n";
  os << "  \"routing\": {\n";
  os << "    \"routed_jobs\": " << routing.routed_jobs << ",\n";
  os << "    \"affinity_routed\": " << routing.affinity_routed << ",\n";
  os << "    \"replica_routed\": " << routing.replica_routed << ",\n";
  os << "    \"random_routed\": " << routing.random_routed << ",\n";
  os << "    \"probe_skips\": " << routing.probe_skips << ",\n";
  os << "    \"failover_resubmissions\": " << routing.failover_resubmissions
     << ",\n";
  os << "    \"rerouted_completed\": " << routing.rerouted_completed << ",\n";
  os << "    \"exhausted_jobs\": " << routing.exhausted_jobs << ",\n";
  os << "    \"router_rejects\": " << routing.router_rejects << ",\n";
  os << "    \"hot_promotions\": " << routing.hot_promotions << ",\n";
  os << "    \"hot_demotions\": " << routing.hot_demotions << ",\n";
  os << "    \"tracked_operands\": " << routing.tracked_operands << "\n";
  os << "  },\n";
  os << "  \"delivered\": {\n";
  os << "    \"completed\": " << delivered_completed << ",\n";
  os << "    \"rejected\": " << delivered_rejected << ",\n";
  os << "    \"timed_out\": " << delivered_timed_out << ",\n";
  os << "    \"failed\": " << delivered_failed << "\n";
  os << "  },\n";
  os << "  \"totals\": {\n";
  os << "    \"submitted\": " << totals.submitted << ",\n";
  os << "    \"completed\": " << totals.completed << ",\n";
  os << "    \"rejected\": " << totals.rejected << ",\n";
  os << "    \"timed_out\": " << totals.timed_out << ",\n";
  os << "    \"failed\": " << totals.failed << ",\n";
  os << "    \"retries\": " << totals.retries << ",\n";
  os << "    \"failed_over\": " << totals.failed_over << ",\n";
  os << "    \"device_failures\": " << totals.device_failures << ",\n";
  os << "    \"device_oom_failures\": " << totals.device_oom_failures << ",\n";
  os << "    \"batches\": " << totals.batches << ",\n";
  os << "    \"batched_jobs\": " << totals.batched_jobs << ",\n";
  os << "    \"b_panel_uploads\": " << totals.b_panel_uploads << ",\n";
  os << "    \"b_panel_hits\": " << totals.b_panel_hits << ",\n";
  os << "    \"transfer_bytes_h2d\": " << totals.transfer_bytes_h2d << ",\n";
  os << "    \"transfer_bytes_d2h\": " << totals.transfer_bytes_d2h << ",\n";
  os << "    \"virtual_makespan_seconds\": " << totals.virtual_makespan_seconds
     << ",\n";
  os << "    \"jobs_per_second\": " << totals.jobs_per_second << "\n";
  os << "  },\n";
  os << "  \"reconciles\": " << (Reconciles() ? "true" : "false") << ",\n";
  os << "  \"shard_reports\": [";
  for (std::size_t i = 0; i < shard_reports.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    // Re-indent the shard's own JSON so the fleet document stays readable.
    std::istringstream in(shard_reports[i].ToJson());
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      os << (first ? "" : "\n") << "    " << line;
      first = false;
    }
  }
  os << (shard_reports.empty() ? "]\n" : "\n  ]\n");
  os << "}";
  return os.str();
}

std::string FleetReport::DebugString() const {
  std::ostringstream os;
  os << shards << "-shard fleet (" << policy << ", R=" << replication << "): "
     << delivered_completed << "/" << routing.routed_jobs << " delivered ok";
  if (delivered_rejected > 0) os << ", " << delivered_rejected << " rejected";
  if (delivered_timed_out > 0) {
    os << ", " << delivered_timed_out << " timed out";
  }
  if (delivered_failed > 0) os << ", " << delivered_failed << " failed";
  os << "; " << routing.affinity_routed << " affinity / "
     << routing.replica_routed << " replica / " << routing.random_routed
     << " random placements";
  if (routing.failover_resubmissions > 0) {
    os << "; " << routing.failover_resubmissions << " failover hops ("
       << routing.rerouted_completed << " recovered)";
  }
  if (routing.hot_promotions > 0) {
    os << "; " << routing.hot_promotions << " hot promotions";
  }
  os << "; totals " << totals.completed << " completed, "
     << totals.b_panel_uploads << " B-panel uploads over "
     << HumanSeconds(totals.virtual_makespan_seconds)
     << (Reconciles() ? " [reconciles]" : " [DOES NOT RECONCILE]");
  return os.str();
}

}  // namespace oocgemm::fleet
