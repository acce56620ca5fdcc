// The differential harness: every decision point the calibrator can steer
// — admission latency pricing, the Admit verdict, hybrid split, kernel
// routing, placement hints — must reproduce the static decision
// bit-for-bit when the model carries exactly the static constants
// (CalibratedModel::FromStatic), and must keep the static decision while
// the confidence gate holds (an uncalibrated or under-sampled model).
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
#include "serve/admission.hpp"
#include "test_util.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::calibrate {
namespace {

using sparse::Csr;

void ExpectDemandsIdentical(const serve::JobDemand& s,
                            const serve::JobDemand& c) {
  EXPECT_EQ(s.flops, c.flops);
  EXPECT_EQ(s.est_nnz_out, c.est_nnz_out);
  EXPECT_EQ(s.bytes_a, c.bytes_a);
  EXPECT_EQ(s.bytes_b, c.bytes_b);
  EXPECT_EQ(s.est_bytes_out, c.est_bytes_out);
  EXPECT_EQ(s.gpu_feasible, c.gpu_feasible);
  EXPECT_EQ(s.planned_chunks, c.planned_chunks);
  EXPECT_EQ(s.planned_device_bytes, c.planned_device_bytes);
  EXPECT_EQ(s.est_exec_seconds, c.est_exec_seconds);  // bitwise
}

TEST(CalibrateDifferential, FromStaticAdmissionDemandIsBitIdentical) {
  const Csr a = testutil::RandomRmat(7, 6.0, 21);
  const Csr small = testutil::RandomCsr(64, 64, 4.0, 22);
  const std::int64_t capacity =
      vgpu::ScaledV100Properties(15).memory_bytes;
  core::ExecutorOptions exec;
  const CalibratedModel model =
      CalibratedModel::FromStatic(2, exec.gpu_ratio);

  for (const Csr* m : {&a, &small}) {
    const serve::JobDemand s =
        serve::EstimateJobDemand(*m, *m, capacity, exec, nullptr);
    const serve::JobDemand c =
        serve::EstimateJobDemand(*m, *m, capacity, exec, &model);
    ExpectDemandsIdentical(s, c);
  }

  estimate::EstimatorOptions est_opts;
  est_opts.seed = 5;
  const serve::JobDemand s = serve::EstimateJobDemandSampled(
      a, a, capacity, exec, est_opts, nullptr);
  const serve::JobDemand c = serve::EstimateJobDemandSampled(
      a, a, capacity, exec, est_opts, &model);
  ExpectDemandsIdentical(s, c);
  EXPECT_EQ(s.estimated, c.estimated);
}

TEST(CalibrateDifferential, FromStaticAdmitVerdictsMatchStatic) {
  const Csr a = testutil::RandomRmat(7, 6.0, 33);
  const std::int64_t capacity =
      vgpu::ScaledV100Properties(15).memory_bytes;
  core::ExecutorOptions exec;
  const CalibratedModel model =
      CalibratedModel::FromStatic(1, exec.gpu_ratio);
  const serve::JobDemand ds =
      serve::EstimateJobDemand(a, a, capacity, exec, nullptr);
  const serve::JobDemand dc =
      serve::EstimateJobDemand(a, a, capacity, exec, &model);

  // Sweep deadline gates bracketing the modeled latency: each verdict —
  // admit or FAILED_PRECONDITION — must agree because the priced latency
  // is bit-identical.
  for (const double gate : {0.0, ds.est_exec_seconds * 0.5,
                            ds.est_exec_seconds, ds.est_exec_seconds * 2.0}) {
    serve::AdmissionLimits limits;
    limits.max_est_exec_seconds = gate;
    serve::AdmissionController stat(limits), calib(limits);
    const Status vs = stat.Admit(ds, core::ExecutionMode::kAuto);
    const Status vc = calib.Admit(dc, core::ExecutionMode::kAuto);
    EXPECT_EQ(vs.code(), vc.code()) << "gate " << gate;
  }
}

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

TEST(CalibrateDifferential, FromStaticAdmissionRatesAreStaticBitwise) {
  const ExecRates s = StaticExecRates();
  const CalibratedModel model = CalibratedModel::FromStatic(2, 0.67, s);
  const ExecRates r = model.AdmissionRates(s);
  EXPECT_EQ(r.h2d_bandwidth, s.h2d_bandwidth);
  EXPECT_EQ(r.d2h_bandwidth, s.d2h_bandwidth);
  EXPECT_EQ(r.gpu_flop_rate, s.gpu_flop_rate);
  EXPECT_EQ(r.cpu_flop_rate, s.cpu_flop_rate);
  EXPECT_EQ(r.kernel_launch_overhead, s.kernel_launch_overhead);
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
  const ExecRates s = StaticExecRates();
  const ExecRates r = model->AdmissionRates(s);
  EXPECT_EQ(r.gpu_flop_rate, s.gpu_flop_rate);
  EXPECT_EQ(r.cpu_flop_rate, s.cpu_flop_rate);
}

TEST(CalibrateDifferential, BelowThresholdGateHoldsUnderRealTraffic) {
  // Real traffic, but a min_samples gate the run cannot reach: decisions
  // must stay static even though the fits have been ingesting samples.
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0});
  CalibratorConfig config;
  config.mode = CalibrateMode::kApply;
  config.fit.min_samples = 1000;
  CostModelCalibrator calibrator(config, &pool);

  ThreadPool tp;
  const Csr a = testutil::RandomRmat(7, 6.0, 55);
  core::ExecutorOptions opts;
  for (int tick = 0; tick < 4; ++tick) {
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

  const std::int64_t capacity = d0.properties().memory_bytes;
  core::ExecutorOptions exec;
  const serve::JobDemand ds =
      serve::EstimateJobDemand(a, a, capacity, exec, nullptr);
  const serve::JobDemand dc =
      serve::EstimateJobDemand(a, a, capacity, exec, model.get());
  EXPECT_EQ(ds.est_exec_seconds, dc.est_exec_seconds);  // bitwise
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
