#include "partition/panel_plan.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "sparse/analysis.hpp"
#include "sparse/types.hpp"

namespace oocgemm::partition {

using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;

namespace {

/// Search bound on the panel count per dimension.
constexpr int kMaxPanelsPerDim = 256;

/// Fraction of device memory a plan may use (PlanBudget).
constexpr double kCapacityFraction = 0.9;

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
  std::vector<ChunkDesc> chunks;  // the grid the output sizes come from
};

void SizeOutputChunks(const PanelBoundaries& row_bounds,
                      double nnz_safety_factor, ChunkSizing* s) {
  for (const ChunkDesc& c : s->chunks) {
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

/// Working-set accounting of one candidate split.  `b_col_nnz` is B's
/// per-panel nnz (ColPanelNnz, computed once per column candidate by the
/// caller).  The chunk grid comes from `est` when given (EstimateChunks,
/// O(rows + nr*nc): no O(nnz) walk per row-search probe, which is where
/// the exact planner spends its time), else from AnalyzeChunks seeded with
/// `row_nnz_estimate`.
ChunkSizing SizeChunks(const sparse::Csr& a, const PanelBoundaries& row_bounds,
                       const sparse::Csr& b, const PanelBoundaries& col_bounds,
                       const std::vector<std::int64_t>& b_col_nnz,
                       const estimate::ProductEstimate* est,
                       const std::vector<double>& row_nnz_estimate,
                       double nnz_safety_factor) {
  ChunkSizing s;
  for (int rp = 0; rp < row_bounds.num_panels(); ++rp) {
    const std::int64_t nnz = a.row_begin(row_bounds.panel_end(rp)) -
                             a.row_begin(row_bounds.panel_begin(rp));
    s.max_a =
        std::max(s.max_a, PanelBytes(row_bounds.panel_width(rp), nnz));
  }
  for (std::int64_t nnz : b_col_nnz) {
    s.max_b = std::max(s.max_b, PanelBytes(b.rows(), nnz));
  }
  s.chunks = est != nullptr
                 ? EstimateChunks(row_bounds, col_bounds, est->row_nnz,
                                  est->row_products, b_col_nnz, b.nnz())
                 : AnalyzeChunks(a, row_bounds, b, col_bounds,
                                 &row_nnz_estimate);
  SizeOutputChunks(row_bounds, nnz_safety_factor, &s);
  return s;
}

}  // namespace

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

bool PlanOptions::operator==(const PlanOptions&) const = default;

std::int64_t PlanBudget(std::int64_t device_capacity) {
  return static_cast<std::int64_t>(static_cast<double>(device_capacity) *
                                   kCapacityFraction);
}

WorkspaceSizes WorkspaceFor(const std::vector<const PanelPlan*>& plans) {
  WorkspaceSizes ws;
  for (const PanelPlan* plan : plans) {
    ws.pool = std::max(ws.pool, plan->pool_bytes);
    ws.a_panel = std::max(ws.a_panel, plan->max_a_panel_bytes);
    ws.b_panel = std::max(ws.b_panel, plan->max_b_panel_bytes);
  }
  return ws;
}

bool PlanMadeFor(const PanelPlan& plan, std::int64_t device_capacity,
                 const PlanOptions& options) {
  PlanOptions in_force = options;
  in_force.prior = nullptr;
  return plan.device_capacity == device_capacity && plan.options == in_force;
}

StatusOr<PanelPlan> PlanPanels(
    const sparse::Csr& a, const sparse::Csr& b, std::int64_t device_capacity,
    const PlanOptions& options,
    std::shared_ptr<const estimate::ProductEstimate> estimate) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch: A is " +
                                   a.DebugString() + ", B is " +
                                   b.DebugString());
  }
  if (options.prior != nullptr &&
      PlanMadeFor(*options.prior, device_capacity, options)) {
    return *options.prior;
  }
  if (options.buffers < 1) {
    return Status::InvalidArgument("bad plan options");
  }
  static obs::Counter& plans = obs::MetricsRegistry::Default().GetCounter(
      "oocgemm_partition_plans", {},
      "Panel plans searched by PlanPanels; a reused plan is not counted");
  plans.Add(1);
  const std::int64_t budget = PlanBudget(device_capacity);

  // Sampled-symbolic row-nnz prediction (full output width; independent of
  // the panel boundaries, so computed once for the whole search).  The same
  // per-row weights drive the work-balanced row boundaries.  In estimate
  // mode the structure-only estimate replaces the exact walk.
  std::vector<double> sampled_row_nnz;
  if (options.use_sampling_estimator) {
    if (estimate == nullptr && options.prior != nullptr) {
      estimate = options.prior->estimate;
    }
    if (estimate == nullptr) {
      estimate::EstimatorOptions eopts;
      eopts.seed = options.estimator_seed;
      estimate = std::make_shared<const estimate::ProductEstimate>(
          estimate::EstimateProduct(a, b, eopts));
    }
    if (estimate->row_nnz.size() != static_cast<std::size_t>(a.rows())) {
      return Status::InvalidArgument("the estimate is of another product");
    }
  } else {
    estimate = nullptr;
    sampled_row_nnz = sparse::EstimateRowNnz(a, b).per_row;
  }
  const std::vector<double>& row_nnz_estimate =
      estimate != nullptr ? estimate->row_nnz : sampled_row_nnz;

  auto row_bounds_for = [&](int nr) {
    return WeightBalancedBoundaries(row_nnz_estimate, nr);
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

    // The O(nnz(B)) column sweep stays out of the row search.
    const std::vector<std::int64_t> b_col_nnz = ColPanelNnz(b, cb);

    auto fits = [&](int nr, ChunkSizing* out_sizing) {
      ChunkSizing s = SizeChunks(a, row_bounds_for(nr), b, cb, b_col_nnz,
                                 estimate.get(), row_nnz_estimate,
                                 options.nnz_safety_factor);
      // Panel cache: two slots per matrix so uploads can double-buffer.
      const bool fit =
          2 * (s.max_a + s.max_b) + s.max_working_set * options.buffers <=
          budget;
      if (out_sizing) *out_sizing = std::move(s);
      return fit;
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
    plan.chunks = std::move(s.chunks);
    plan.pool_bytes = s.max_working_set;
    plan.max_a_panel_bytes = s.max_a;
    plan.max_b_panel_bytes = s.max_b;
    plan.max_output_bytes = s.max_out;
    plan.device_capacity = device_capacity;
    plan.options = options;
    plan.options.prior = nullptr;
    plan.estimate = std::move(estimate);
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
    std::int64_t device_capacity, const PlanOptions& options,
    const std::vector<std::shared_ptr<const PanelPlan>>& priors) {
  if (as.empty()) {
    return Status::InvalidArgument("shared-operand plan needs at least one A");
  }
  OOC_CHECK(priors.empty() || priors.size() == as.size());
  // Pass 1: each member's own plan.
  std::vector<PanelPlan> plans;
  plans.reserve(as.size());
  int shared_nc = 1;
  for (std::size_t i = 0; i < as.size(); ++i) {
    OOC_CHECK(as[i] != nullptr);
    PlanOptions own = options;
    own.prior = priors.empty() ? nullptr : priors[i];
    auto plan = PlanPanels(*as[i], b, device_capacity, own);
    if (!plan.ok()) return plan.status();
    shared_nc = std::max(shared_nc, plan->num_col_panels);
    plans.push_back(std::move(plan).value());
  }
  // Pass 2: plan members with another column count again under the shared
  // one (for the rest, the forced search would repeat their own).  Uniform
  // boundaries depend only on (b.cols, shared_nc), so all col_bounds agree.
  PlanOptions forced = options;
  forced.prior = nullptr;
  forced.forced_col_panels = shared_nc;
  for (std::size_t i = 0; i < as.size(); ++i) {
    if (plans[i].num_col_panels == shared_nc) continue;
    auto plan = PlanPanels(*as[i], b, device_capacity, forced,
                           plans[i].estimate);
    if (!plan.ok()) return plan.status();
    OOC_CHECK(plan->num_col_panels == shared_nc);
    plans[i] = std::move(plan).value();
  }
  return plans;
}

}  // namespace oocgemm::partition
