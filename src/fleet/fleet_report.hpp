// The fleet-level report: routing counters, what the callers' futures saw,
// the per-shard ServerReports, and totals that are *defined* as sums over
// those shard reports — so "fleet report reconciles with per-shard reports"
// is structural, and the CI reconciliation check can recompute the sums
// from the embedded shard sections and compare exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server_stats.hpp"

namespace oocgemm::fleet {

/// What the router did with submissions, before any shard saw them.
struct FleetRoutingStats {
  /// Jobs accepted by FleetRouter::Submit (each resolves exactly one
  /// caller-visible future).
  std::int64_t routed_jobs = 0;
  /// Jobs whose first placement was the ring owner of their B operand.
  std::int64_t affinity_routed = 0;
  /// Jobs spread onto a non-owner replica of a hot operand.
  std::int64_t replica_routed = 0;
  /// Jobs placed by the kRandom policy (baseline mode; 0 under affinity).
  std::int64_t random_routed = 0;
  /// First-choice shard skipped at submit time because its probe showed a
  /// dead pool or a saturated queue.
  std::int64_t probe_skips = 0;
  /// Re-submissions to a ring successor after a shard-side
  /// failure/rejection.  One job can contribute several hops.
  std::int64_t failover_resubmissions = 0;
  /// Jobs that failed on their first shard but completed on a successor.
  std::int64_t rerouted_completed = 0;
  /// Jobs that exhausted every distinct shard without completing.
  std::int64_t exhausted_jobs = 0;
  /// Submissions refused by the router itself (after Shutdown began);
  /// these never reach a shard and are outside routed_jobs.
  std::int64_t router_rejects = 0;
  /// Hot-operand tracker state at snapshot time.
  std::int64_t hot_promotions = 0;
  std::int64_t hot_demotions = 0;
  std::int64_t tracked_operands = 0;
};

/// Column sums over the per-shard ServerReports (makespan is the max, and
/// the rate is recomputed from the summed numerator).  Everything here must
/// equal the sum a reader computes from FleetReport::shard_reports.
struct FleetTotals {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t failed_over = 0;
  std::int64_t device_failures = 0;
  std::int64_t device_oom_failures = 0;
  std::int64_t batches = 0;
  std::int64_t batched_jobs = 0;
  std::int64_t b_panel_uploads = 0;
  std::int64_t b_panel_hits = 0;
  std::int64_t transfer_bytes_h2d = 0;
  std::int64_t transfer_bytes_d2h = 0;
  double virtual_makespan_seconds = 0.0;  // max over shards
  double jobs_per_second = 0.0;           // summed completed / max makespan
};

struct FleetReport {
  int shards = 0;
  int replication = 1;
  std::string policy;  // "affinity" | "random"

  FleetRoutingStats routing;

  /// Outcomes as delivered to callers (a re-routed job counts once, under
  /// its final outcome).  After Drain(), the four sum to routed_jobs.
  std::int64_t delivered_completed = 0;
  std::int64_t delivered_rejected = 0;
  std::int64_t delivered_timed_out = 0;
  std::int64_t delivered_failed = 0;

  /// One ServerReport per shard, index-aligned with the router's shards.
  std::vector<serve::ServerReport> shard_reports;
  FleetTotals totals;

  /// The reconciliation function: totals of `reports`, column by column.
  static FleetTotals Sum(const std::vector<serve::ServerReport>& reports);

  /// True when `totals` equals Sum(shard_reports) field-for-field and the
  /// shard-side submission count accounts for every routed job plus every
  /// failover resubmission.  The smoke test's hard gate.
  bool Reconciles() const;

  std::string ToJson() const;
  std::string DebugString() const;
};

}  // namespace oocgemm::fleet
