// Shared preparation for all executors: panel planning, partitioning and
// chunk analysis (lines 1-4 of Algorithm 3 plus GetFlops of Algorithm 4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/executor_options.hpp"
#include "partition/panel_plan.hpp"
#include "sparse/csr.hpp"

namespace oocgemm::core {

struct PreparedProblem {
  /// The plan being run: boundaries, the row-major chunk grid, pool sizes.
  partition::PanelPlan plan;
  std::vector<sparse::Csr> a_panels;  // host-resident row panels of A
  /// Host-resident column panels of B.  Shared, not owned: every problem of
  /// a shared-operand batch points at the same partition of B, so the host
  /// copy — like the device panel cache — is built once per batch.
  std::shared_ptr<const std::vector<sparse::Csr>> b_panels;
  std::int64_t total_flops = 0;

  int num_chunks() const { return plan.num_chunks(); }
  const sparse::Csr& b_panel(int p) const {
    return (*b_panels)[static_cast<std::size_t>(p)];
  }
};

/// Plans panels for `device_capacity` (running options.plan.prior when it
/// was made for that capacity and those options) and partitions both
/// matrices (column panels via the optimized parallel partitioner).
StatusOr<PreparedProblem> PrepareProblem(const sparse::Csr& a,
                                         const sparse::Csr& b,
                                         std::int64_t device_capacity,
                                         const ExecutorOptions& options,
                                         ThreadPool& pool);

/// Batch preparation for jobs C_i = A_i * B sharing the operand B: plans
/// every member under one common column split (PlanSharedOperandPanels,
/// with `priors`, empty or parallel to `as`, as the members' own plans),
/// partitions B exactly once and shares the panels across all returned
/// problems.  Returns one PreparedProblem per input A, in order.
StatusOr<std::vector<PreparedProblem>> PrepareSharedOperandProblems(
    const std::vector<const sparse::Csr*>& as, const sparse::Csr& b,
    std::int64_t device_capacity, const ExecutorOptions& options,
    ThreadPool& pool,
    const std::vector<std::shared_ptr<const partition::PanelPlan>>& priors =
        {});

}  // namespace oocgemm::core
