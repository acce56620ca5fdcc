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

#include "common/status.hpp"
#include "estimate/estimator.hpp"
#include "kernels/accumulators.hpp"
#include "partition/chunk.hpp"
#include "partition/panels.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::partition {

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
  /// balancing, pool sizing and chunk seeding then come from estimates;
  /// PanelPlan::estimated marks the result so executors correct run stats
  /// from exact per-chunk counts as they execute.
  bool use_sampling_estimator = false;
  /// Seed for the sampling estimator (estimates are deterministic in it).
  std::uint64_t estimator_seed = 1;
  /// Optional precomputed estimate for this exact (A, B) pair — admission
  /// already paid for one; shared_ptr so the hint survives job copies.
  /// Ignored (recomputed) when its row count does not match A.
  std::shared_ptr<const estimate::ProductEstimate> estimate_hint;
  /// Accumulator strategy the chunk phases will run with; kAuto routes per
  /// row group through the kernel registry.  Recorded on the plan so the
  /// whole pipeline (planner -> executors -> kernels) agrees on one choice.
  kernels::AccumulatorKind accumulator = kernels::AccumulatorKind::kAuto;
};

struct PanelPlan {
  int num_row_panels = 1;
  int num_col_panels = 1;
  /// Row panels are balanced by estimated output (consecutive rows, near
  /// equal predicted chunk payloads); column panels are uniform.
  PanelBoundaries row_bounds;
  PanelBoundaries col_bounds;
  /// The sampled-symbolic per-row output prediction the plan was built
  /// from (empty when the estimator is disabled); callers reuse it for
  /// chunk analysis so estimated_nnz is consistent with the pool sizing.
  std::vector<double> row_nnz_estimate;
  /// Size of each per-chunk memory pool: pipeline scratch plus the
  /// worst-case output.  Input panels live in the separate panel cache.
  std::int64_t pool_bytes = 0;
  /// Panel-cache slot sizes (worst A row panel / worst B column panel);
  /// the cache holds two slots of each so uploads double-buffer.
  std::int64_t max_a_panel_bytes = 0;
  std::int64_t max_b_panel_bytes = 0;
  std::int64_t max_output_bytes = 0;

  /// True when the plan was built by the sampling estimator: row_nnz_estimate
  /// / row_products_estimate are estimate::EstimateProduct outputs, chunk
  /// stats seeded from them are estimates, and executors report exact flops
  /// from per-chunk counts instead of trusting the plan.
  bool estimated = false;
  /// Per-row estimated multiply counts (only when estimated).
  std::vector<double> row_products_estimate;
  /// The estimate's SRS relative standard error (only when estimated).
  double estimate_rel_stderr = 0.0;

  /// The accumulator strategy from PlanOptions, carried along so executors
  /// route kernels the way the plan was costed.
  kernels::AccumulatorKind accumulator = kernels::AccumulatorKind::kAuto;

  std::string DebugString() const;
};

/// Plans panel counts for C = A * B on a device with `device_capacity`
/// bytes.  Fails with FailedPrecondition if no partitioning within the
/// search bound fits (device too small even for 1-row panels).
StatusOr<PanelPlan> PlanPanels(const sparse::Csr& a, const sparse::Csr& b,
                               std::int64_t device_capacity,
                               const PlanOptions& options = {});

/// Plans panels for a batch of products C_i = A_i * B sharing the operand
/// B: each job is planned individually first, then every job is re-planned
/// under one common column split (the max column-panel count any member
/// needs), so the column boundaries — and hence the device panel cache ids
/// — of B agree across the whole batch.  Returns one plan per input A, in
/// order; fails if any member cannot fit the device under the shared split.
StatusOr<std::vector<PanelPlan>> PlanSharedOperandPanels(
    const std::vector<const sparse::Csr*>& as, const sparse::Csr& b,
    std::int64_t device_capacity, const PlanOptions& options = {});

/// Working-set bytes of the worst chunk under the given boundaries
/// (exposed for tests and the planner's internals).
std::int64_t MaxChunkWorkingSetBytes(const sparse::Csr& a,
                                     const PanelBoundaries& row_bounds,
                                     const sparse::Csr& b,
                                     const PanelBoundaries& col_bounds);

}  // namespace oocgemm::partition
