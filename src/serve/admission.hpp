// Admission control: decide — before a job consumes a worker — whether it
// can run at all and whether the node has room for it right now.
//
// The decision reuses the library's cheap estimators (the OCEAN insight:
// output estimation is orders of magnitude cheaper than the SpGEMM):
//  * sparse::EstimateRowNnz gives the expected output size, hence the
//    job's host-memory footprint;
//  * partition::PlanPanels answers GPU feasibility ("is there any panel
//    split whose worst chunk working set fits device memory?") and, when
//    feasible, makes the plan the job then runs, with the exact pool bytes
//    the pipeline will pre-allocate.
//
// Jobs whose demand can never fit are rejected immediately (never OOM
// mid-flight); jobs that merely exceed the *current* outstanding host-bytes
// budget are rejected with RESOURCE_EXHAUSTED so the client can retry —
// the bounded queue provides the "wait" alternative.  Device memory needs
// no budget here: the scheduler leases each device exclusively, and only to
// a job whose planned device bytes fit its capacity.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/saturating.hpp"
#include "common/status.hpp"
#include "core/executor_options.hpp"
#include "core/spgemm.hpp"
#include "estimate/estimator.hpp"
#include "partition/panel_plan.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::serve {

/// How Submit prices a job before admitting it.
///  * kExact — the original path: sparse::TotalFlops + the sampled-symbolic
///    EstimateRowNnz (runs real symbolic multiplies on sampled rows) + an
///    exact-analysis panel plan.  O(nnz) and then some, per submission.
///  * kEstimate — the OCEAN path: estimate::EstimateProduct (structure-only
///    strided draws) + an estimate-seeded panel plan.  Falls back to kExact
///    per job when the estimator's own variance check says the sample is
///    unreliable.
enum class AdmissionMode { kExact, kEstimate };

const char* AdmissionModeName(AdmissionMode mode);
/// Parses "exact" / "estimate"; returns false on anything else.
bool ParseAdmissionMode(const std::string& text, AdmissionMode* mode);

/// Estimated resource footprint of one SpGEMM job.  All byte/flop sums are
/// saturating: demand formed from huge synthetic shapes clamps to
/// INT64_MAX instead of wrapping negative (and then passing every budget
/// check) — Admit rejects saturated demand outright.
struct JobDemand {
  std::int64_t flops = 0;
  double est_nnz_out = 0.0;
  std::int64_t bytes_a = 0;
  std::int64_t bytes_b = 0;
  /// Estimated host bytes of the assembled product.
  std::int64_t est_bytes_out = 0;
  /// Inputs + estimated output: what one in-flight copy of the job pins in
  /// host memory.  Saturating.
  std::int64_t host_bytes() const {
    return common::SaturatingAdd(common::SaturatingAdd(bytes_a, bytes_b),
                                 est_bytes_out);
  }
  /// True when any byte quantity clamped at the int64 rail: the real
  /// footprint is unrepresentable, so the job can never be admitted.
  bool overflowed() const {
    return common::IsSaturated(bytes_a) || common::IsSaturated(bytes_b) ||
           common::IsSaturated(est_bytes_out) ||
           common::IsSaturated(host_bytes());
  }

  /// The panel plan admission made, with the estimate behind it on an
  /// estimated demand; null when no split fits the device.  The job runs
  /// it: the scheduler hands it to the executor.
  std::shared_ptr<const partition::PanelPlan> plan;
  bool gpu_feasible() const { return plan != nullptr; }
  /// Chunk count of the plan (1 == in-core, the "small job" signal).
  int planned_chunks() const { return plan ? plan->num_chunks() : 0; }
  /// Device bytes the asynchronous pipeline will pre-allocate under the
  /// plan: double-buffered chunk pools plus the panel-cache slots.
  std::int64_t planned_device_bytes() const {
    return plan ? partition::WorkspaceFor({plan.get()}).bytes() : 0;
  }

  /// True when the demand was priced by the sampling estimator.
  bool estimated = false;
  /// True when estimate mode was requested but the estimator's variance
  /// check failed and the exact path priced the job instead.
  bool estimator_fallback = false;
  /// The estimator's relative standard error (estimated demand only).
  double est_rel_stderr = 0.0;
  /// Host wall seconds the demand analysis took (either path) — the
  /// quantity the estimate path is built to shrink.
  double analysis_seconds = 0.0;
};

/// Runs the exact estimators; never touches the device.
JobDemand EstimateJobDemand(const sparse::Csr& a, const sparse::Csr& b,
                            std::int64_t device_capacity,
                            const core::ExecutorOptions& exec);

/// The estimate-mode path: prices the job from estimate::EstimateProduct
/// and an estimate-seeded plan; falls back to EstimateJobDemand (setting
/// estimator_fallback) when the sample is unreliable.
JobDemand EstimateJobDemandSampled(const sparse::Csr& a, const sparse::Csr& b,
                                   std::int64_t device_capacity,
                                   const core::ExecutorOptions& exec,
                                   const estimate::EstimatorOptions& opts);

struct AdmissionLimits {
  /// Ceiling on the summed host_bytes() of admitted, not-yet-finished jobs.
  std::int64_t host_bytes_budget = 4ll << 30;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionLimits limits) : limits_(limits) {}

  /// OK admits the job and charges its footprint to the ledger (balance it
  /// with Release when the job leaves the system).  Non-OK:
  ///  * FAILED_PRECONDITION — a GPU-only mode was requested but no panel
  ///    split fits the device (retrying cannot help);
  ///  * RESOURCE_EXHAUSTED — the node is over the outstanding host-bytes
  ///    budget right now (retrying later can).
  Status Admit(const JobDemand& demand, core::ExecutionMode mode);
  void Release(const JobDemand& demand);

  std::int64_t outstanding_bytes() const;
  const AdmissionLimits& limits() const { return limits_; }

 private:
  AdmissionLimits limits_;
  mutable std::mutex mutex_;
  std::int64_t outstanding_ = 0;
};

}  // namespace oocgemm::serve
