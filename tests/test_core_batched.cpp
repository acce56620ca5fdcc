// core::BatchedOutOfCore: shared-operand batches produce exactly the serial
// products, upload each shared B column panel once per batch, and honour
// per-member cancellation without failing the batch.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "core/batched.hpp"
#include "core/executors.hpp"
#include "core/problem.hpp"
#include "kernels/reference_spgemm.hpp"
#include "test_util.hpp"

namespace oocgemm::core {
namespace {

using sparse::Csr;

struct BatchFixture {
  Csr b;
  std::vector<Csr> as;

  explicit BatchFixture(int members) {
    b = testutil::RandomRmat(9, 8.0, 77);
    for (int i = 0; i < members; ++i) {
      as.push_back(
          testutil::RandomCsr(b.rows(), b.rows(), 6.0, 900 + i));
    }
  }

  std::vector<BatchJobSpec> Specs() const {
    std::vector<BatchJobSpec> specs;
    for (const Csr& a : as) specs.push_back(BatchJobSpec{&a});
    return specs;
  }
};

TEST(BatchedOutOfCore, MatchesReferenceForEveryMember) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  BatchFixture fx(4);

  auto run = BatchedOutOfCore(device, fx.Specs(), fx.b, ExecutorOptions{},
                              pool);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->jobs.size(), 4u);
  for (std::size_t i = 0; i < fx.as.size(); ++i) {
    ASSERT_TRUE(run->jobs[i].status.ok())
        << run->jobs[i].status.ToString();
    EXPECT_TRUE(testutil::CsrNear(
        run->jobs[i].run.c, kernels::ReferenceSpgemm(fx.as[i], fx.b)));
    EXPECT_GT(run->jobs[i].run.stats.total_seconds, 0.0);
    EXPECT_GT(run->jobs[i].run.stats.nnz_out, 0);
  }
  EXPECT_GT(run->batch_makespan, 0.0);
}

TEST(BatchedOutOfCore, UploadsEachSharedBPanelExactlyOnce) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  BatchFixture fx(4);

  // Pin the column split so the multi-panel regime — the one batching
  // exists for — is exercised regardless of how the planner would size
  // this fixture.
  ExecutorOptions options;
  options.plan.forced_col_panels = 3;
  auto run = BatchedOutOfCore(device, fx.Specs(), fx.b, options, pool);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->num_col_panels, 3);
  EXPECT_EQ(run->b_panel_uploads,
            static_cast<std::int64_t>(run->num_col_panels));
  EXPECT_GT(run->b_panel_hits, 0);

  // Compare against the members run one by one: the batch must move
  // strictly less B-panel traffic than num_jobs serial runs.
  std::int64_t serial_uploads = 0;
  for (const Csr& a : fx.as) {
    auto single = AsyncOutOfCore(device, a, fx.b, options, pool);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    serial_uploads += single->stats.b_panel_uploads;
  }
  EXPECT_LT(run->b_panel_uploads, serial_uploads);

  // Per-member attribution adds up to the batch totals.
  std::int64_t member_uploads = 0, member_hits = 0;
  for (const BatchJobResult& jr : run->jobs) {
    member_uploads += jr.run.stats.b_panel_uploads;
    member_hits += jr.run.stats.b_panel_hits;
  }
  EXPECT_EQ(member_uploads, run->b_panel_uploads);
  EXPECT_EQ(member_hits, run->b_panel_hits);
}

TEST(BatchedOutOfCore, CancelledMemberDoesNotFailTheBatch) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  BatchFixture fx(3);

  std::vector<BatchJobSpec> specs = fx.Specs();
  // Already past its deadline: skipped at its first segment.
  specs[1].deadline = std::chrono::steady_clock::now();

  auto run = BatchedOutOfCore(device, specs, fx.b, ExecutorOptions{}, pool);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->jobs[1].status.code(), StatusCode::kCancelled);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(run->jobs[i].status.ok());
    EXPECT_TRUE(testutil::CsrNear(
        run->jobs[i].run.c, kernels::ReferenceSpgemm(fx.as[i], fx.b)));
  }
}

// Members that fit the device alone but not together: the batch answers
// with a status the caller can fall back from, before any allocation.
TEST(BatchedOutOfCore, WorkspaceOverTheBudgetIsAStatus) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));  // 1 MiB
  ThreadPool pool(2);
  const testutil::WorkspaceMisfit m;
  for (const Csr* a : {&m.wide_out, &m.wide_in}) {
    auto alone = BatchedOutOfCore(device, {BatchJobSpec{a}}, m.b,
                                  ExecutorOptions{}, pool);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_TRUE(testutil::CsrNear(alone->jobs[0].run.c,
                                  kernels::ReferenceSpgemm(*a, m.b)));
  }
  auto both = BatchedOutOfCore(
      device, {BatchJobSpec{&m.wide_out}, BatchJobSpec{&m.wide_in}}, m.b,
      ExecutorOptions{}, pool);
  EXPECT_EQ(both.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(device.used_bytes(), 0);
}

TEST(BatchedOutOfCore, RejectsEmptyAndNullInputs) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(1);
  Csr b = testutil::RandomCsr(32, 32, 2.0, 1);

  auto empty = BatchedOutOfCore(device, {}, b, ExecutorOptions{}, pool);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::vector<BatchJobSpec> specs{BatchJobSpec{}};
  auto null_a = BatchedOutOfCore(device, specs, b, ExecutorOptions{}, pool);
  EXPECT_EQ(null_a.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrepareSharedOperandProblems, MembersShareOneColumnSplitAndBPanels) {
  vgpu::Device device(vgpu::ScaledV100Properties(14));
  ThreadPool pool(2);
  BatchFixture fx(3);

  std::vector<const Csr*> as;
  for (const Csr& a : fx.as) as.push_back(&a);
  auto preps = PrepareSharedOperandProblems(as, fx.b, device.capacity(),
                                            ExecutorOptions{}, pool);
  ASSERT_TRUE(preps.ok()) << preps.status().ToString();
  ASSERT_EQ(preps->size(), 3u);
  const PreparedProblem& first = preps->front();
  for (const PreparedProblem& p : preps.value()) {
    EXPECT_EQ(p.plan.num_col_panels, first.plan.num_col_panels);
    EXPECT_EQ(p.plan.col_bounds.begin, first.plan.col_bounds.begin);
    // The host B panels are shared, not copied.
    EXPECT_EQ(p.b_panels.get(), first.b_panels.get());
  }
}

}  // namespace
}  // namespace oocgemm::core
