#include "partition/panel_plan.hpp"

#include <algorithm>
#include <cstdio>

#include "sparse/analysis.hpp"
#include "sparse/types.hpp"

namespace oocgemm::partition {

using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;

namespace {

/// Search bound on the panel count per dimension.
constexpr int kMaxPanelsPerDim = 256;

std::int64_t Align(std::int64_t v) { return (v + 255) / 256 * 256; }

/// Device bytes of a CSR panel with `rows` rows and `nnz` entries,
/// including per-array alignment padding.
std::int64_t PanelBytes(std::int64_t rows, std::int64_t nnz) {
  return Align((rows + 1) * static_cast<std::int64_t>(sizeof(offset_t))) +
         Align(nnz * static_cast<std::int64_t>(sizeof(index_t))) +
         Align(nnz * static_cast<std::int64_t>(sizeof(value_t)));
}

struct ChunkSizing {
  std::int64_t max_a = 0;
  std::int64_t max_b = 0;
  std::int64_t max_out = 0;
  std::int64_t max_working_set = 0;
};

void SizeAPanels(const sparse::Csr& a, const PanelBoundaries& row_bounds,
                 ChunkSizing* s) {
  for (int rp = 0; rp < row_bounds.num_panels(); ++rp) {
    const std::int64_t rows = row_bounds.panel_width(rp);
    const std::int64_t nnz = a.row_begin(row_bounds.panel_end(rp)) -
                             a.row_begin(row_bounds.panel_begin(rp));
    s->max_a = std::max(s->max_a, PanelBytes(rows, nnz));
  }
}

void SizeOutputChunks(const std::vector<ChunkDesc>& chunks,
                      const PanelBoundaries& row_bounds,
                      double nnz_safety_factor, ChunkSizing* s) {
  for (const ChunkDesc& c : chunks) {
    const std::int64_t rows = row_bounds.panel_width(c.row_panel);
    // Pipeline scratch: per-row flops + per-row nnz (int64 each).
    const std::int64_t scratch = 2 * Align(rows * 8);
    const std::int64_t planned_nnz = std::min(
        c.upper_bound_nnz,
        static_cast<std::int64_t>(static_cast<double>(c.estimated_nnz) *
                                  nnz_safety_factor) +
            1);
    const std::int64_t out = PanelBytes(rows, planned_nnz);
    s->max_out = std::max(s->max_out, out);
    s->max_working_set = std::max(s->max_working_set, scratch + out);
  }
}

ChunkSizing SizeChunks(const sparse::Csr& a, const PanelBoundaries& row_bounds,
                       const sparse::Csr& b, const PanelBoundaries& col_bounds,
                       const std::vector<double>* row_nnz_estimate,
                       double nnz_safety_factor) {
  ChunkSizing s;
  const int nc = col_bounds.num_panels();
  SizeAPanels(a, row_bounds, &s);

  std::vector<std::int64_t> b_nnz = ColPanelNnz(b, col_bounds);
  for (int cp = 0; cp < nc; ++cp) {
    s.max_b = std::max(
        s.max_b, PanelBytes(b.rows(), b_nnz[static_cast<std::size_t>(cp)]));
  }

  std::vector<ChunkDesc> chunks =
      AnalyzeChunks(a, row_bounds, b, col_bounds, row_nnz_estimate);
  SizeOutputChunks(chunks, row_bounds, nnz_safety_factor, &s);
  return s;
}

/// Estimate-mode sizing: identical working-set accounting, but chunk stats
/// come from EstimateChunks (O(rows + nr*nc)) and B's per-panel nnz is
/// computed once per column candidate by the caller — no O(nnz) walk per
/// row-search probe, which is where the exact planner spends its time.
ChunkSizing SizeChunksEstimated(const sparse::Csr& a,
                                const PanelBoundaries& row_bounds,
                                const sparse::Csr& b,
                                const PanelBoundaries& col_bounds,
                                const std::vector<std::int64_t>& b_col_nnz,
                                const estimate::ProductEstimate& est,
                                double nnz_safety_factor) {
  ChunkSizing s;
  SizeAPanels(a, row_bounds, &s);
  for (std::int64_t nnz : b_col_nnz) {
    s.max_b = std::max(s.max_b, PanelBytes(b.rows(), nnz));
  }
  std::vector<ChunkDesc> chunks =
      EstimateChunks(row_bounds, col_bounds, est.row_nnz, est.row_products,
                     b_col_nnz, b.nnz());
  SizeOutputChunks(chunks, row_bounds, nnz_safety_factor, &s);
  return s;
}

}  // namespace

std::int64_t MaxChunkWorkingSetBytes(const sparse::Csr& a,
                                     const PanelBoundaries& row_bounds,
                                     const sparse::Csr& b,
                                     const PanelBoundaries& col_bounds) {
  return SizeChunks(a, row_bounds, b, col_bounds, nullptr, 1.0)
      .max_working_set;
}

std::string PanelPlan::DebugString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "PanelPlan(%dx%d panels, pool=%lld B, A<=%lld B, B<=%lld B, "
                "out<=%lld B)",
                num_row_panels, num_col_panels,
                static_cast<long long>(pool_bytes),
                static_cast<long long>(max_a_panel_bytes),
                static_cast<long long>(max_b_panel_bytes),
                static_cast<long long>(max_output_bytes));
  return buf;
}

StatusOr<PanelPlan> PlanPanels(const sparse::Csr& a, const sparse::Csr& b,
                               std::int64_t device_capacity,
                               const PlanOptions& options) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch: A is " +
                                   a.DebugString() + ", B is " +
                                   b.DebugString());
  }
  if (options.buffers < 1 || options.capacity_fraction <= 0.0) {
    return Status::InvalidArgument("bad plan options");
  }
  const std::int64_t budget = static_cast<std::int64_t>(
      static_cast<double>(device_capacity) * options.capacity_fraction);

  // Sampled-symbolic row-nnz prediction (full output width; independent of
  // the panel boundaries, so computed once for the whole search).  The same
  // per-row weights drive the work-balanced row boundaries.  In estimate
  // mode the structure-only sampling estimator replaces the exact walk
  // (reusing admission's estimate via the hint when shapes match).
  std::vector<double> row_estimate;
  const std::vector<double>* estimate_ptr = nullptr;
  estimate::ProductEstimate local_est;
  const estimate::ProductEstimate* sampled_est = nullptr;
  if (options.use_sampling_estimator) {
    if (options.estimate_hint != nullptr &&
        options.estimate_hint->row_nnz.size() ==
            static_cast<std::size_t>(a.rows())) {
      sampled_est = options.estimate_hint.get();
    } else {
      estimate::EstimatorOptions eopts;
      if (options.nnz_sample_fraction > 0.0) {
        eopts.row_sample_fraction = options.nnz_sample_fraction;
      }
      eopts.seed = options.estimator_seed;
      local_est = estimate::EstimateProduct(a, b, eopts);
      sampled_est = &local_est;
    }
    row_estimate = sampled_est->row_nnz;
    estimate_ptr = &row_estimate;
  } else if (options.nnz_sample_fraction > 0.0) {
    row_estimate =
        sparse::EstimateRowNnz(a, b, options.nnz_sample_fraction).per_row;
    estimate_ptr = &row_estimate;
  }

  auto row_bounds_for = [&](int nr) {
    return estimate_ptr != nullptr
               ? WeightBalancedBoundaries(row_estimate, nr)
               : UniformBoundaries(a.rows(), nr);
  };

  // Row panels are preferred: they shrink the A panel, the scratch and the
  // output chunk, and — unlike column panels — they never reduce B-panel
  // reuse in the device panel cache (each extra column panel is another
  // large B upload whenever the execution order crosses panels).  Column
  // panels are the fallback for when the B panel itself no longer fits.
  // A forced column count restricts the search to that single candidate.
  std::vector<int> col_candidates;
  if (options.forced_col_panels > 0) {
    col_candidates.push_back(
        std::min(options.forced_col_panels, std::max(1, b.cols())));
  } else {
    for (int nc = 1;
         nc <= kMaxPanelsPerDim && nc <= std::max(1, b.cols());
         nc *= 2) {
      col_candidates.push_back(nc);
    }
  }
  ChunkSizing last_sizing{};
  for (int nc : col_candidates) {
    PanelBoundaries cb = UniformBoundaries(b.cols(), nc);
    const int max_nr =
        std::min<int>(kMaxPanelsPerDim, std::max(1, a.rows()));

    // Estimate mode hoists the O(nnz(B)) column sweep out of the row
    // search: every probe below is then O(rows + nr * nc).
    std::vector<std::int64_t> b_col_nnz;
    if (sampled_est != nullptr) b_col_nnz = ColPanelNnz(b, cb);

    auto fits = [&](int nr, ChunkSizing* out_sizing) {
      PanelBoundaries rb = row_bounds_for(nr);
      ChunkSizing s =
          sampled_est != nullptr
              ? SizeChunksEstimated(a, rb, b, cb, b_col_nnz, *sampled_est,
                                    options.nnz_safety_factor)
              : SizeChunks(a, rb, b, cb, estimate_ptr,
                           options.nnz_safety_factor);
      if (out_sizing) *out_sizing = s;
      // Panel cache: two slots per matrix so uploads can double-buffer.
      return 2 * (s.max_a + s.max_b) + s.max_working_set * options.buffers <=
             budget;
    };

    // Coarse doubling, then binary refinement to the smallest fitting nr
    // (fewer, larger chunks amortize per-chunk overheads — the paper's
    // "best performing chunk size" preference).
    int nr = 1;
    while (nr < max_nr && !fits(nr, &last_sizing)) nr *= 2;
    nr = std::min(nr, max_nr);
    if (!fits(nr, &last_sizing)) continue;  // B panel too big: more columns
    int lo = nr / 2 + 1, hi = nr;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (fits(mid, nullptr)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    ChunkSizing s;
    OOC_CHECK(fits(hi, &s));
    PanelPlan plan;
    plan.num_row_panels = hi;
    plan.num_col_panels = nc;
    plan.row_bounds = row_bounds_for(hi);
    plan.col_bounds = cb;
    plan.pool_bytes = s.max_working_set;
    plan.max_a_panel_bytes = s.max_a;
    plan.max_b_panel_bytes = s.max_b;
    plan.max_output_bytes = s.max_out;
    plan.row_nnz_estimate = row_estimate;
    plan.accumulator = options.accumulator;
    if (sampled_est != nullptr) {
      plan.estimated = true;
      plan.row_products_estimate = sampled_est->row_products;
      plan.estimate_rel_stderr = sampled_est->rel_stderr;
    }
    return plan;
  }
  return Status::FailedPrecondition(
      "no panel partitioning fits device memory: worst chunk needs " +
      std::to_string(last_sizing.max_working_set) + " bytes x" +
      std::to_string(options.buffers) + " plus panel-cache bytes, budget " +
      std::to_string(budget));
}

StatusOr<std::vector<PanelPlan>> PlanSharedOperandPanels(
    const std::vector<const sparse::Csr*>& as, const sparse::Csr& b,
    std::int64_t device_capacity, const PlanOptions& options) {
  if (as.empty()) {
    return Status::InvalidArgument("shared-operand plan needs at least one A");
  }
  // Pass 1: each member's individually preferred split.
  int shared_nc = std::max(1, options.forced_col_panels);
  for (const sparse::Csr* a : as) {
    OOC_CHECK(a != nullptr);
    auto plan = PlanPanels(*a, b, device_capacity, options);
    if (!plan.ok()) return plan.status();
    shared_nc = std::max(shared_nc, plan->num_col_panels);
  }
  // Pass 2: re-plan every member under the common column split.  Uniform
  // boundaries depend only on (b.cols, shared_nc), so all members end up
  // with identical col_bounds — the invariant the batch executor relies on.
  PlanOptions forced = options;
  forced.forced_col_panels = shared_nc;
  std::vector<PanelPlan> plans;
  plans.reserve(as.size());
  for (const sparse::Csr* a : as) {
    auto plan = PlanPanels(*a, b, device_capacity, forced);
    if (!plan.ok()) return plan.status();
    OOC_CHECK(plan->num_col_panels == shared_nc);
    plans.push_back(std::move(plan).value());
  }
  return plans;
}

}  // namespace oocgemm::partition
