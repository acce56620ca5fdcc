// Batched out-of-core SpGEMM over a shared operand: C_i = A_i * B for a
// group of jobs that all multiply against the same B (the A^2 analytics
// pattern, where many tenants square or right-multiply one dataset).
//
// A naive serving loop pays B's column-panel uploads once per *job*.  This
// executor plans one common column split for the whole batch
// (partition::PlanSharedOperandPanels, which runs each member's own plan
// when its column count is the shared one), builds one GpuWorkspace sized for
// the largest member, and walks the chunk grid column-panel-major across
// jobs:
//
//   for each column panel j of B:          // uploaded once, then resident
//     for each job i:                      //   in the panel cache
//       run chunks (*, j) of job i through the async pipeline
//
// so each B panel crosses the H2D engine once per *batch*.  Pool
// pre-allocation (a device-serializing Malloc) also happens once per batch
// instead of once per job — the setup amortization Liu & Vinter's framework
// and OpSparse both identify as the multi-invocation win.
//
// Deadlines are honoured at segment (job x column panel) boundaries: a job
// past its deadline skips its remaining segments and reports kCancelled
// while the rest of the batch proceeds.  A workspace over the plan budget,
// a pool overflow or an upload failure fails the whole batch — the caller
// (the serve scheduler) falls back to running the members individually,
// where the per-job retry-with-replan policy applies.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/executor_options.hpp"
#include "core/run_stats.hpp"
#include "partition/panel_plan.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::core {

/// One member of a shared-operand batch.
struct BatchJobSpec {
  const sparse::Csr* a = nullptr;
  /// Per-job wall-clock deadline (max() = none), checked between segments
  /// only: a batched job's timeout granularity is one job x column-panel
  /// segment.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Optional plan already made for this member (the serve scheduler hands
  /// over admission's).  It runs when it was made for the device and the
  /// batch's plan options (partition::PlanMadeFor); otherwise the member is
  /// planned again, from this plan's estimate in estimate mode.
  std::shared_ptr<const partition::PanelPlan> plan = nullptr;
};

/// Per-member outcome; `run` is valid iff `status.ok()`.
struct BatchJobResult {
  Status status = Status::Ok();
  RunResult run;
};

struct BatchedRunResult {
  std::vector<BatchJobResult> jobs;  // parallel to the input specs
  /// Virtual seconds from batch start to the last member's final transfer.
  double batch_makespan = 0.0;
  int num_col_panels = 0;
  /// Shared-B panel traffic over the whole batch: `b_panel_uploads` counts
  /// H2D uploads (== num_col_panels when the schedule works), hits counts
  /// re-uses served from the resident cache.
  std::int64_t b_panel_uploads = 0;
  std::int64_t b_panel_hits = 0;
};

/// Runs the batch on the asynchronous out-of-core pipeline.  Resets the
/// device timeline; `batch_makespan` is the batch's total device occupancy.
/// Fails as a whole with kResourceExhausted when the members' shared
/// workspace (partition::WorkspaceFor) exceeds the plan budget, and on any
/// device-side error (see header comment); a member past its deadline is
/// reported in the member's status instead.
StatusOr<BatchedRunResult> BatchedOutOfCore(vgpu::Device& device,
                                            const std::vector<BatchJobSpec>& jobs,
                                            const sparse::Csr& b,
                                            const ExecutorOptions& options,
                                            ThreadPool& pool);

}  // namespace oocgemm::core
