#include "core/problem.hpp"

namespace oocgemm::core {

namespace {

PreparedProblem Prepare(const sparse::Csr& a, partition::PanelPlan plan,
                        std::shared_ptr<const std::vector<sparse::Csr>> b) {
  PreparedProblem prep;
  prep.plan = std::move(plan);
  prep.a_panels = partition::PartitionRows(a, prep.plan.row_bounds);
  prep.b_panels = std::move(b);
  for (const auto& c : prep.plan.chunks) prep.total_flops += c.flops;
  return prep;
}

}  // namespace

StatusOr<PreparedProblem> PrepareProblem(const sparse::Csr& a,
                                         const sparse::Csr& b,
                                         std::int64_t device_capacity,
                                         const ExecutorOptions& options,
                                         ThreadPool& pool) {
  auto plan = partition::PlanPanels(a, b, device_capacity, options.plan);
  if (!plan.ok()) return plan.status();
  auto b_panels = std::make_shared<const std::vector<sparse::Csr>>(
      partition::PartitionColsParallel(b, plan->col_bounds, pool));
  return Prepare(a, std::move(plan).value(), std::move(b_panels));
}

StatusOr<std::vector<PreparedProblem>> PrepareSharedOperandProblems(
    const std::vector<const sparse::Csr*>& as, const sparse::Csr& b,
    std::int64_t device_capacity, const ExecutorOptions& options,
    ThreadPool& pool,
    const std::vector<std::shared_ptr<const partition::PanelPlan>>& priors) {
  for (const sparse::Csr* a : as) {
    if (a == nullptr || a->cols() != b.rows()) {
      return Status::InvalidArgument(
          "dimension mismatch in shared-operand batch against B " +
          b.DebugString());
    }
  }
  auto plans = partition::PlanSharedOperandPanels(as, b, device_capacity,
                                                  options.plan, priors);
  if (!plans.ok()) return plans.status();

  // One partition of B for the whole batch (every plan's col_bounds agree).
  auto b_panels = std::make_shared<const std::vector<sparse::Csr>>(
      partition::PartitionColsParallel(b, plans->front().col_bounds, pool));

  std::vector<PreparedProblem> preps;
  preps.reserve(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    preps.push_back(Prepare(*as[i], std::move(plans.value()[i]), b_panels));
  }
  return preps;
}

}  // namespace oocgemm::core
