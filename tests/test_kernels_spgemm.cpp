// Oracle tests for every SpGEMM path: phases, CPU multicore, and the
// device pipeline through the asynchronous and synchronous executors.
// Parameterized sweeps cover structure (uniform / skewed), density and
// accumulator strategy.
#include <gtest/gtest.h>

#include "core/executors.hpp"
#include "kernels/cpu_spgemm.hpp"
#include "kernels/reference_spgemm.hpp"
#include "sparse/analysis.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace oocgemm::kernels {
namespace {

using sparse::Csr;
using sparse::index_t;

TEST(ReferenceSpgemm, TinyHandComputed) {
  // A = [1 2; 0 3], B = [4 0; 1 5]  =>  C = [6 10; 3 15]
  Csr a(2, 2, {0, 2, 3}, {0, 1, 1}, {1, 2, 3});
  Csr b(2, 2, {0, 1, 3}, {0, 0, 1}, {4, 1, 5});
  Csr c = ReferenceSpgemm(a, b);
  EXPECT_EQ(c.nnz(), 4);
  EXPECT_EQ(c.values(), (std::vector<sparse::value_t>{6, 10, 3, 15}));
}

TEST(ReferenceSpgemm, IdentityNeutral) {
  Csr a = testutil::RandomCsr(30, 30, 4.0, 1);
  EXPECT_TRUE(ReferenceSpgemm(a, sparse::Identity(30)) == a);
}

TEST(ReferenceSpgemm, EmptyOperands) {
  Csr a(4, 3);
  Csr b(3, 5);
  Csr c = ReferenceSpgemm(a, b);
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 5);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(CpuSpgemmSerial, MatchesReference) {
  Csr a = testutil::RandomCsr(64, 48, 5.0, 2);
  Csr b = testutil::RandomCsr(48, 80, 4.0, 3);
  EXPECT_TRUE(testutil::CsrNear(CpuSpgemmSerial(a, b), ReferenceSpgemm(a, b)));
}

TEST(CpuSpgemm, ParallelMatchesSerial) {
  ThreadPool pool(4);
  Csr a = testutil::RandomRmat(9, 8.0, 4);
  Csr serial = CpuSpgemmSerial(a, a);
  Csr parallel = CpuSpgemm(a, a, pool);
  EXPECT_TRUE(testutil::CsrNear(parallel, serial));
}

TEST(CpuSpgemm, DenseAccumulatorMatchesHash) {
  ThreadPool pool(2);
  Csr a = testutil::RandomCsr(128, 128, 10.0, 5);
  CpuSpgemmOptions hash_opts, dense_opts;
  hash_opts.accumulator = AccumulatorKind::kHash;
  dense_opts.accumulator = AccumulatorKind::kDense;
  EXPECT_TRUE(testutil::CsrNear(CpuSpgemm(a, a, pool, dense_opts),
                                CpuSpgemm(a, a, pool, hash_opts)));
}

TEST(CpuSpgemm, RectangularChain) {
  ThreadPool pool(2);
  Csr a = testutil::RandomCsr(20, 35, 3.0, 6);
  Csr b = testutil::RandomCsr(35, 15, 3.0, 7);
  EXPECT_TRUE(
      testutil::CsrNear(CpuSpgemm(a, b, pool), ReferenceSpgemm(a, b)));
}

TEST(CpuSpgemm, EmptyRowsAndColumns) {
  // A matrix with alternating empty rows.
  sparse::Coo coo;
  coo.rows = coo.cols = 16;
  for (index_t r = 0; r < 16; r += 2) coo.Add(r, 15 - r, 1.0);
  Csr a = sparse::CooToCsr(coo);
  ThreadPool pool(2);
  EXPECT_TRUE(testutil::CsrNear(CpuSpgemm(a, a, pool), ReferenceSpgemm(a, a)));
}

// The device pipeline as the executors run it.  On the 64 MiB device these
// products plan as one chunk, so each run is one in-core pass of the
// three-stage kernel (Sec. III-B).
vgpu::Device InCoreDevice() {
  return vgpu::Device(vgpu::ScaledV100Properties(8));
}

core::RunResult RunAsync(vgpu::Device& device, const Csr& a, const Csr& b,
                         AccumulatorKind accumulator = AccumulatorKind::kAuto) {
  ThreadPool pool(2);
  core::ExecutorOptions options;
  options.spgemm.accumulator = accumulator;
  auto r = core::AsyncOutOfCore(device, a, b, options, pool);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  EXPECT_EQ(r->stats.num_chunks, 1);
  return std::move(r).value();
}

TEST(DeviceSpgemm, InCoreMatchesReference) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomCsr(100, 100, 6.0, 8);
  core::RunResult r = RunAsync(device, a, a);
  EXPECT_TRUE(testutil::CsrNear(r.c, ReferenceSpgemm(a, a)));
  EXPECT_TRUE(device.hazard_violations().empty());
}

TEST(DeviceSpgemm, SkewedGraphMatchesReference) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomRmat(9, 10.0, 9);
  EXPECT_TRUE(testutil::CsrNear(RunAsync(device, a, a).c,
                                ReferenceSpgemm(a, a)));
}

TEST(DeviceSpgemm, HashOnlyAndDenseOnlyAgree) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomCsr(80, 80, 8.0, 10);
  Csr ch = RunAsync(device, a, a, AccumulatorKind::kHash).c;
  Csr cd = RunAsync(device, a, a, AccumulatorKind::kDense).c;
  EXPECT_GT(ch.nnz(), 0);
  EXPECT_TRUE(testutil::CsrNear(cd, ch));
}

TEST(DeviceSpgemm, ReportsFlopsAndCompressionRatio) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomRmat(8, 8.0, 11);
  const core::RunStats s = RunAsync(device, a, a).stats;
  EXPECT_EQ(s.flops, sparse::TotalFlops(a, a));
  EXPECT_EQ(s.nnz_out, sparse::SymbolicNnz(a, a));
  EXPECT_NEAR(s.compression_ratio,
              static_cast<double>(s.flops) / static_cast<double>(s.nnz_out),
              1e-12);
}

TEST(DeviceSpgemm, EmitsThreeStageTrace) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomRmat(8, 8.0, 12);
  RunAsync(device, a, a);
  const vgpu::Trace& t = device.trace();
  EXPECT_GT(t.BusyTimeLabeled(".analysis"), 0.0);
  EXPECT_GT(t.BusyTimeLabeled(".symbolic"), 0.0);
  EXPECT_GT(t.BusyTimeLabeled(".numeric"), 0.0);
}

// The asynchronous executor draws chunk memory from pre-allocated pools,
// the synchronous baseline from per-chunk Mallocs; both give the product.
TEST(DeviceSpgemm, PoolSourceProducesSameResult) {
  vgpu::Device device = InCoreDevice();
  Csr a = testutil::RandomCsr(64, 64, 6.0, 13);
  Csr expected = ReferenceSpgemm(a, a);
  ThreadPool pool(2);
  auto pooled = core::AsyncOutOfCore(device, a, a, {}, pool);
  auto malloced = core::SyncOutOfCore(device, a, a, {}, pool);
  ASSERT_TRUE(pooled.ok() && malloced.ok());
  EXPECT_EQ(pooled->stats.num_chunks, 1);
  EXPECT_EQ(malloced->stats.num_chunks, 1);
  EXPECT_TRUE(testutil::CsrNear(pooled->c, expected));
  EXPECT_TRUE(testutil::CsrNear(malloced->c, expected));
}

// ---- Parameterized oracle sweep ---------------------------------------------

struct SpgemmCase {
  const char* name;
  int rows, mid, cols;
  double degree_a, degree_b;
  bool skewed;
};

// Printed in the test name in place of gtest's raw struct bytes, whose
// pointer and padding bytes differ from build to build.
void PrintTo(const SpgemmCase& c, std::ostream* os) {
  if (c.skewed) {
    *os << "rmat scale 8";
  } else {
    *os << c.rows << "x" << c.mid << "x" << c.cols;
  }
  *os << ", degree " << c.degree_a << "/" << c.degree_b;
}

class SpgemmOracleSweep : public ::testing::TestWithParam<SpgemmCase> {};

TEST_P(SpgemmOracleSweep, AllPathsAgree) {
  const SpgemmCase& p = GetParam();
  Csr a, b;
  if (p.skewed) {
    a = testutil::RandomRmat(8, p.degree_a, 100);
    b = testutil::RandomRmat(8, p.degree_b, 101);
  } else {
    a = testutil::RandomCsr(p.rows, p.mid, p.degree_a, 100);
    b = testutil::RandomCsr(p.mid, p.cols, p.degree_b, 101);
  }
  Csr expected = ReferenceSpgemm(a, b);

  ThreadPool pool(3);
  EXPECT_TRUE(testutil::CsrNear(CpuSpgemm(a, b, pool), expected));

  vgpu::Device device = InCoreDevice();
  auto async = core::AsyncOutOfCore(device, a, b, {}, pool);
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->stats.num_chunks, 1);
  EXPECT_TRUE(testutil::CsrNear(async->c, expected));
  EXPECT_TRUE(device.hazard_violations().empty());
  auto sync = core::SyncOutOfCore(device, a, b, {}, pool);
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(testutil::CsrNear(sync->c, expected));
  EXPECT_TRUE(device.hazard_violations().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Structures, SpgemmOracleSweep,
    ::testing::Values(
        SpgemmCase{"tiny", 4, 4, 4, 1.5, 1.5, false},
        SpgemmCase{"sparse_uniform", 200, 150, 180, 2.0, 2.0, false},
        SpgemmCase{"medium_uniform", 150, 150, 150, 8.0, 8.0, false},
        SpgemmCase{"dense_uniform", 60, 60, 60, 25.0, 25.0, false},
        SpgemmCase{"wide", 40, 400, 30, 5.0, 2.0, false},
        SpgemmCase{"tall", 400, 30, 40, 2.0, 5.0, false},
        SpgemmCase{"skewed_light", 0, 0, 0, 4.0, 4.0, true},
        SpgemmCase{"skewed_heavy", 0, 0, 0, 16.0, 16.0, true}),
    [](const ::testing::TestParamInfo<SpgemmCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace oocgemm::kernels
