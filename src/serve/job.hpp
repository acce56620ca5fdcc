// The unit of work of the serving runtime: one SpGEMM request plus the
// quality-of-service knobs a multi-tenant deployment needs (priority,
// deadline, executor preference), and the per-job report the runtime hands
// back through the job's completion callback or future.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "core/run_stats.hpp"
#include "core/spgemm.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::serve {

struct JobOptions {
  /// Larger values dispatch first; ties break FIFO.
  int priority = 0;

  /// Free-form tenant id for multi-tenant attribution (per-tenant report
  /// sections and metric labels).  Arbitrary bytes are tolerated: every
  /// emitter escapes it (JsonEscape / the prom label escaper), so a
  /// hostile id cannot malform a report.  Empty = unattributed.
  std::string tenant;

  /// Wall-clock budget in seconds from submission; 0 disables the timeout.
  /// The server turns it into the job's deadline: a job still queued past
  /// it never runs, and a running one stops at its next chunk boundary
  /// (ExecutorOptions::deadline, which the server sets from this).
  double timeout_seconds = 0.0;

  /// Executor preference.  kAuto lets the scheduler route by estimated
  /// size and device saturation; an explicit mode is honoured as long as
  /// it is feasible (a GPU mode on a job whose minimal working set cannot
  /// fit the device is rejected at admission).
  core::ExecutionMode mode = core::ExecutionMode::kAuto;

  /// Base executor configuration (safety factor, transfer schedule, ...).
  /// exec.max_oom_attempts is the job's budget of pool-overflow attempts:
  /// the scheduler re-plans with a doubled nnz safety factor after each
  /// (core::RetryWithReplan), and every executor call makes one attempt.
  core::ExecutorOptions exec;

  /// Virtual arrival time for open-loop workloads: latency is measured
  /// from here on the virtual timeline.  Closed-loop callers leave 0.
  double virtual_arrival = 0.0;
};

/// A multiplication request C = A * B.  Matrices are shared, not copied:
/// many jobs may multiply the same operands (the A^2 analytics pattern).
struct SpgemmJob {
  std::shared_ptr<const sparse::Csr> a;
  std::shared_ptr<const sparse::Csr> b;
  JobOptions options;
};

enum class JobOutcome {
  kCompleted,  // result matches contract; `c` is valid
  kRejected,   // admission refused it (queue full / infeasible / overload)
  kTimedOut,   // its deadline (submission + timeout_seconds) passed
  kFailed,     // executor error after all retries
};

const char* JobOutcomeName(JobOutcome outcome);

struct JobMetrics {
  std::uint64_t id = 0;
  /// Copied from JobOptions::tenant at finish time.
  std::string tenant;
  JobOutcome outcome = JobOutcome::kFailed;
  /// The path that actually ran (kAuto never appears here for completed
  /// jobs; meaningless for rejected ones).
  core::ExecutionMode executor = core::ExecutionMode::kAuto;
  /// False when the job left the system without any executor running — a
  /// rejection or a timeout that fired while still queued.  `executor` and
  /// the run stats are meaningless in that case.
  bool executed = false;
  /// Members of the operand-sharing batch the job ran in (1 == unbatched).
  int batch_size = 1;
  int attempts = 0;
  /// Scheduler re-plans caused by a device fault: the job was routed again
  /// onto the surviving devices (or degraded to CPU) after a lane it held
  /// faulted mid-run.  Distinct from `attempts`, which counts pool-overflow
  /// replans on the *same* placement.
  int failovers = 0;

  /// Pool index of the device the job (or its batch) ran on; -1 for jobs
  /// that never took a device lease (CPU-only routes, rejections).  For a
  /// multi-device span this is the primary device.
  int device_index = -1;
  /// Distinct devices the run occupied (0 for CPU-only, 1 for a normal
  /// device run, >1 when a Hybrid job spanned extra free devices).
  int devices_used = 0;

  // Virtual-timeline accounting (the repository's common currency: every
  // bench reports virtual seconds of the modeled V100 + Xeon node).
  double virtual_arrival = 0.0;
  double virtual_start = 0.0;    // when a lane accepted the job
  double virtual_finish = 0.0;   // start + the run's virtual makespan
  double queue_seconds = 0.0;    // virtual_start - virtual_arrival
  double exec_seconds = 0.0;     // the run's virtual makespan
  double latency_seconds = 0.0;  // virtual_finish - virtual_arrival

  double wall_seconds = 0.0;     // real time inside the executor

  /// True when the job ultimately failed with device OOM — the condition
  /// admission control exists to prevent; the stats report surfaces it.
  bool device_oom = false;

  core::RunStats stats;          // per-run stats of the winning attempt
};

struct JobResult {
  Status status;  // OK iff metrics.outcome == kCompleted
  sparse::Csr c;
  JobMetrics metrics;

  bool ok() const { return status.ok(); }
};

inline const char* JobOutcomeName(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kRejected: return "rejected";
    case JobOutcome::kTimedOut: return "timed_out";
    case JobOutcome::kFailed: return "failed";
  }
  return "unknown";
}

}  // namespace oocgemm::serve
