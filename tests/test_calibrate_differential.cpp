// The differential harness: every decision point the calibrator can steer
// — hybrid split, kernel routing, placement hints — must reproduce the
// static decision bit-for-bit when the model carries exactly the static
// constants (CalibratedModel::FromStatic), and must keep the static
// decision while the confidence gate holds (an uncalibrated or
// under-sampled model).
// Calibration may only change behaviour when a fit diverged AND passed
// the gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "calibrate/calibrator.hpp"
#include "calibrate/model.hpp"
#include "common/thread_pool.hpp"
#include "core/device_pool.hpp"
#include "core/executors.hpp"
#include "kernels/binning.hpp"
#include "kernels/kernel_registry.hpp"
#include "test_util.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::calibrate {
namespace {

using sparse::Csr;

TEST(CalibrateDifferential, FromStaticHybridRatioIsVerbatim) {
  for (const double ratio : {0.1, 0.5, 0.67, 0.9}) {
    const CalibratedModel model = CalibratedModel::FromStatic(3, ratio);
    for (int dev = 0; dev < 3; ++dev) {
      EXPECT_EQ(model.GpuRatioFor(dev, ratio), ratio);  // bitwise
    }
    // Out-of-range device (CPU dispatch) also keeps the static ratio.
    EXPECT_EQ(model.GpuRatioFor(-1, ratio), ratio);
    EXPECT_EQ(model.GpuRatioFor(7, ratio), ratio);
  }
}

TEST(CalibrateDifferential, FromStaticRoutingDecisionsMatchStatic) {
  const CalibratedModel model = CalibratedModel::FromStatic(1, 0.67);
  const kernels::RouteCalibration scales = model.RouteScalesFor(0);
  EXPECT_EQ(scales.compute_scale, 1.0);
  EXPECT_EQ(scales.overhead_scale, 1.0);

  // Per-row: identical kind and bit-identical modeled cost across a sweep
  // of work classes, widths and strategies.
  for (const std::int64_t flops : {2ll, 16ll, 256ll, 4096ll, 1ll << 20}) {
    for (const sparse::index_t cols : {64, 1024, 16384}) {
      EXPECT_EQ(kernels::KernelRegistry::RouteRow(flops, cols),
                kernels::KernelRegistry::RouteRow(flops, cols, -1, scales));
      for (const auto kind :
           {kernels::AccumulatorKind::kHash, kernels::AccumulatorKind::kDense,
            kernels::AccumulatorKind::kSortMerge,
            kernels::AccumulatorKind::kRowMerge}) {
        EXPECT_EQ(
            kernels::KernelRegistry::ModeledRowCost(kind, flops, 8.0, cols),
            kernels::KernelRegistry::ModeledRowCost(kind, flops, 8.0, cols,
                                                    scales));
      }
    }
  }

  // Per-group: RouteRows over a real matrix's row classes (keyed by row
  // flops, the symbolic-pass convention).
  const Csr a = testutil::RandomRmat(8, 8.0, 44);
  std::vector<std::int64_t> row_flops(static_cast<std::size_t>(a.rows()));
  for (sparse::index_t r = 0; r < a.rows(); ++r) {
    std::int64_t f = 0;
    for (sparse::offset_t p = a.row_begin(r); p < a.row_end(r); ++p) {
      f += 2 * a.row_nnz(a.col_ids()[static_cast<std::size_t>(p)]);
    }
    row_flops[static_cast<std::size_t>(r)] = f;
  }
  const kernels::RoutedGroups stat = kernels::RouteRows(
      row_flops.data(), row_flops.data(), nullptr, row_flops.size(), a.cols(),
      kernels::AccumulatorKind::kAuto);
  const kernels::RoutedGroups calib = kernels::RouteRows(
      row_flops.data(), row_flops.data(), nullptr, row_flops.size(), a.cols(),
      kernels::AccumulatorKind::kAuto, scales);
  for (std::size_t g = 0;
       g < static_cast<std::size_t>(kernels::kNumRowGroups); ++g) {
    EXPECT_EQ(stat.strategy[g], calib.strategy[g]) << "group " << g;
    EXPECT_EQ(stat.groups.groups[g].size(), calib.groups.groups[g].size());
  }
}

TEST(CalibrateDifferential, UncalibratedModelKeepsStaticDecisions) {
  // A calibrator that never saw traffic publishes a model whose every hook
  // degrades to static.
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0});
  CalibratorConfig config;
  config.mode = CalibrateMode::kApply;
  CostModelCalibrator calibrator(config, &pool);
  calibrator.TickNow();
  calibrator.TickNow();

  std::shared_ptr<const CalibratedModel> model = calibrator.apply_model();
  ASSERT_NE(model, nullptr);
  EXPECT_FALSE(model->device(0).rate_confident);
  EXPECT_EQ(model->GpuRatioFor(0, 0.67), 0.67);
  EXPECT_EQ(model->RouteScalesFor(0).compute_scale, 1.0);
  EXPECT_EQ(model->RouteScalesFor(0).overhead_scale, 1.0);
  EXPECT_EQ(model->RateHintFor(0), 0.0);
}

TEST(CalibrateDifferential, BelowThresholdGateHoldsUnderRealTraffic) {
  // Real traffic, but one tick short of the kFitMinSamples gate: decisions
  // must stay static even though the fits have been ingesting samples.
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0});
  CalibratorConfig config;
  config.mode = CalibrateMode::kApply;
  CostModelCalibrator calibrator(config, &pool);

  ThreadPool tp;
  const Csr a = testutil::RandomRmat(7, 6.0, 55);
  core::ExecutorOptions opts;
  for (int tick = 0; tick < kFitMinSamples - 1; ++tick) {
    ASSERT_TRUE(core::AsyncOutOfCore(d0, a, a, opts, tp).ok());
    calibrator.TickNow();
  }
  std::shared_ptr<const CalibratedModel> model = calibrator.apply_model();
  ASSERT_NE(model, nullptr);
  EXPECT_FALSE(model->device(0).rate_confident);
  EXPECT_FALSE(model->device(0).ratio_confident);
  EXPECT_EQ(model->GpuRatioFor(0, 0.67), 0.67);
  EXPECT_EQ(model->RouteScalesFor(0).compute_scale, 1.0);
  EXPECT_EQ(pool.rate_hint(0), 0.0);
}

TEST(CalibrateDifferential, ZeroHintsPreservePlacementOrder) {
  // All-zero rate hints must reproduce the hintless placement: index
  // order on a fresh pool.
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  vgpu::Device d1(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0, &d1});
  EXPECT_EQ(pool.rate_hint(0), 0.0);
  EXPECT_EQ(pool.rate_hint(1), 0.0);
  core::DevicePool::Slot first = pool.TryAcquire(0);
  ASSERT_TRUE(first.held());
  EXPECT_EQ(first.index(), 0);
  core::DevicePool::Slot second = pool.TryAcquire(0);
  ASSERT_TRUE(second.held());
  EXPECT_EQ(second.index(), 1);
  first.Release();
  second.Release();
}

}  // namespace
}  // namespace oocgemm::calibrate
