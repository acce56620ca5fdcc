// Panel-count planning: pick (num_row_panels, num_col_panels) so that one
// chunk's working set — both panels, pipeline scratch and the worst-case
// output — fits in device memory, twice over for double buffering.
//
// The paper fixes chunk sizes per matrix empirically ("we select the
// results when synchronous spECK achieves the best performance"); the
// planner automates the same preference: the fewest panels that fit, since
// larger chunks amortize per-chunk overheads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "estimate/estimator.hpp"
#include "partition/chunk.hpp"
#include "partition/panels.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::partition {

struct PanelPlan;

struct PlanOptions {
  /// Fraction of device memory the plan may use (headroom for allocator
  /// alignment and the baseline's transient mallocs).
  double capacity_fraction = 0.9;
  /// Number of concurrently live chunk working sets (2 = double buffering).
  int buffers = 2;
  /// Output pools are sized `nnz_safety_factor` x the sampled-symbolic
  /// chunk-nnz estimate (capped by the worst-case bound).  Executors retry
  /// with a doubled factor if a chunk overflows its pool at run time.
  double nnz_safety_factor = 2.0;
  /// Row fraction for the sampled symbolic estimator; <= 0 disables the
  /// estimator and falls back to worst-case sizing (the configuration the
  /// paper rejects; kept for the ablation bench).
  double nnz_sample_fraction = 0.05;
  /// When > 0, skip the column search and use exactly this many uniform
  /// column panels.  Shared-operand batches force one common B split across
  /// every job so a cached B panel stays valid from job to job; the planner
  /// then fails outright if no row split fits under that choice.
  int forced_col_panels = 0;
  /// Estimation-based planning (OCEAN): replace the sampled-symbolic
  /// analysis (EstimateRowNnz + AnalyzeChunks, O(nnz) walks per search
  /// probe) with the structure-only estimate::EstimateProduct.  Panel
  /// balancing, pool sizing and the chunk grid then come from estimates.
  bool use_sampling_estimator = false;
  /// Seed for the sampling estimator (estimates are deterministic in it).
  std::uint64_t estimator_seed = 1;
  /// A plan already made for this product (admission's).  PlanPanels runs
  /// it when PlanMadeFor holds, else plans again from its estimate.
  std::shared_ptr<const PanelPlan> prior;

  /// Field-wise, prior included (defaulted in the .cpp).
  bool operator==(const PlanOptions& other) const;
};

/// The whole record of a plan: what executors run, and what it was made for.
struct PanelPlan {
  int num_row_panels = 1;
  int num_col_panels = 1;
  /// Row panels are balanced by estimated output (consecutive rows, near
  /// equal predicted chunk payloads); column panels are uniform.
  PanelBoundaries row_bounds;
  PanelBoundaries col_bounds;
  /// The row-major chunk grid the pools are sized from (GetFlops of
  /// Algorithm 4): AnalyzeChunks, or EstimateChunks on an estimated plan.
  std::vector<ChunkDesc> chunks;
  /// Size of each per-chunk memory pool: pipeline scratch plus the
  /// worst-case output.  Input panels live in the separate panel cache.
  std::int64_t pool_bytes = 0;
  /// Panel-cache slot sizes (worst A row panel / worst B column panel);
  /// the cache holds two slots of each so uploads double-buffer.
  std::int64_t max_a_panel_bytes = 0;
  std::int64_t max_b_panel_bytes = 0;
  std::int64_t max_output_bytes = 0;

  /// What the plan was made for (options.prior is null here).
  std::int64_t device_capacity = 0;
  PlanOptions options;
  /// The estimate the plan was made from; null on exact plans.  Executors
  /// report exact flops from per-chunk counts on estimated plans.
  std::shared_ptr<const estimate::ProductEstimate> estimate;

  bool estimated() const { return estimate != nullptr; }
  int num_chunks() const { return static_cast<int>(chunks.size()); }
  std::string DebugString() const;
};

/// Device bytes a plan may size buffers in: options.capacity_fraction of
/// `device_capacity`.
std::int64_t PlanBudget(std::int64_t device_capacity,
                        const PlanOptions& options);

/// The buffers of one asynchronous-pipeline workspace: two chunk pools of
/// `pool` bytes and the panel cache's two slots each of `a_panel` and
/// `b_panel` bytes.
struct WorkspaceSizes {
  std::int64_t pool = 0;
  std::int64_t a_panel = 0;
  std::int64_t b_panel = 0;

  std::int64_t bytes() const { return 2 * pool + 2 * (a_panel + b_panel); }
};

/// The workspace that runs `plans` back to back: the largest pool and
/// panels over them.  For one plan, what its own run pre-allocates.
WorkspaceSizes WorkspaceFor(const std::vector<const PanelPlan*>& plans);

/// The reuse rule: `plan` was made for `device_capacity` and `options`,
/// options.prior aside.
bool PlanMadeFor(const PanelPlan& plan, std::int64_t device_capacity,
                 const PlanOptions& options);

/// Plans panel counts for C = A * B on a device with `device_capacity`
/// bytes, or returns options.prior when PlanMadeFor holds.  Estimate mode
/// plans from `estimate`, else the prior's, else a fresh one.  A plan made
/// counts in oocgemm_partition_plans.  Fails with FailedPrecondition if no
/// partitioning within the search bound fits.
StatusOr<PanelPlan> PlanPanels(
    const sparse::Csr& a, const sparse::Csr& b, std::int64_t device_capacity,
    const PlanOptions& options = {},
    std::shared_ptr<const estimate::ProductEstimate> estimate = nullptr);

/// Plans panels for a batch of products C_i = A_i * B sharing the operand
/// B under one common column split (the max any member needs), so B's
/// column boundaries — and panel cache ids — agree across the batch.
/// `priors` (empty or parallel to `as`) are the members' own plans, run
/// under the PlanPanels rule; only a member with another column count is
/// planned again.  Returns one plan per A; fails if any member cannot fit.
StatusOr<std::vector<PanelPlan>> PlanSharedOperandPanels(
    const std::vector<const sparse::Csr*>& as, const sparse::Csr& b,
    std::int64_t device_capacity, const PlanOptions& options = {},
    const std::vector<std::shared_ptr<const PanelPlan>>& priors = {});

}  // namespace oocgemm::partition
