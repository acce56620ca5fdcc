// Closed-loop feedback: a deterministic delay fault degrades device 1's
// effective kernel rate; the calibrator fits the degradation out of the
// live metrics registry and the apply-mode model shifts every decision
// surface toward the healthy device — lower hybrid split on the slow
// device, placement rate hints, routing compute scales — while the
// oocgemm_calibrate_* exports reconcile byte-exact with the published
// model.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate/calibrator.hpp"
#include "common/thread_pool.hpp"
#include "core/device_pool.hpp"
#include "core/executors.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "vgpu/fault_injector.hpp"

namespace oocgemm::calibrate {
namespace {

using sparse::Csr;

obs::Labels FitLabels(int device, const char* fit) {
  return {{"device", std::to_string(device)}, {"fit", fit}};
}

TEST(CalibrateFeedback, DelayFaultShiftsEveryDecisionSurface) {
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  vgpu::Device d1(vgpu::ScaledV100Properties(15));
  // Every kernel launch on device 1 costs 20ms extra virtual time — the
  // degradation signal flows through oocgemm_vgpu_kernel_seconds.
  vgpu::FaultInjector injector(
      vgpu::FaultSpec::Parse("kernel:p=1:delay=0.02", /*seed=*/5).value());
  d1.set_fault_injector(&injector);

  core::DevicePool pool({&d0, &d1});  // assigns metric ids 0 and 1
  CalibratorConfig config;
  config.mode = CalibrateMode::kApply;
  CostModelCalibrator calibrator(config, &pool);

  const double ticks_before = obs::MetricsRegistry::Default()
                                  .Snapshot()
                                  .Value("oocgemm_calibrate_ticks");

  ThreadPool tp;
  const Csr a = testutil::RandomRmat(7, 6.0, 3);
  core::ExecutorOptions opts;
  for (int tick = 0; tick < 8; ++tick) {
    ASSERT_TRUE(core::AsyncOutOfCore(d0, a, a, opts, tp).ok());
    ASSERT_TRUE(core::AsyncOutOfCore(d1, a, a, opts, tp).ok());
    ASSERT_TRUE(core::CpuMulticore(a, a, opts, tp).ok());
    calibrator.TickNow();
  }
  EXPECT_EQ(calibrator.ticks(), 8);

  std::shared_ptr<const CalibratedModel> model = calibrator.apply_model();
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(model->num_devices(), 2);
  ASSERT_TRUE(model->device(0).rate_confident);
  ASSERT_TRUE(model->device(1).rate_confident);
  ASSERT_TRUE(model->cpu().confident);

  // (1) The fitted effective rate sees the injected delay.
  EXPECT_LT(model->device(1).flop_rate, 0.5 * model->device(0).flop_rate);

  // (2) Hybrid split: the degraded device's S/(S+1) drops below the
  // healthy device's, steering hybrid work toward its CPU share.
  ASSERT_TRUE(model->device(0).ratio_confident);
  ASSERT_TRUE(model->device(1).ratio_confident);
  EXPECT_LT(model->GpuRatioFor(1, 0.67), model->GpuRatioFor(0, 0.67));

  // (3) Placement: apply mode pushed the fitted rates into the pool, so of
  // the idle devices the healthy one is leased first.
  EXPECT_EQ(pool.rate_hint(0), model->device(0).flop_rate);
  EXPECT_EQ(pool.rate_hint(1), model->device(1).flop_rate);
  core::DevicePool::Slot slot = pool.TryAcquire(0);
  ASSERT_TRUE(slot.held());
  EXPECT_EQ(slot.index(), 0);
  slot.Release();

  // (4) Routing: the slow device's compute terms are scaled up relative
  // to the healthy device's.
  EXPECT_GT(model->RouteScalesFor(1).compute_scale,
            model->RouteScalesFor(0).compute_scale);

  // (5) The exported gauges reconcile byte-exact with the model.
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snap.Value("oocgemm_calibrate_ticks") - ticks_before, 8.0);
  for (int i = 0; i < 2; ++i) {
    const CalibratedModel::DeviceModel& d = model->device(i);
    EXPECT_EQ(snap.Value("oocgemm_calibrate_confident", FitLabels(i, "rate")),
              1.0);
    EXPECT_EQ(snap.Value("oocgemm_calibrate_fitted_rate", FitLabels(i, "rate")),
              static_cast<double>(static_cast<std::int64_t>(d.flop_rate)));
    EXPECT_EQ(snap.Value("oocgemm_calibrate_gpu_ratio_millis",
                         {{"device", std::to_string(i)}}),
              static_cast<double>(std::lround(d.gpu_ratio * 1000.0)));
    EXPECT_GT(snap.Value("oocgemm_calibrate_samples", FitLabels(i, "rate")),
              0.0);
  }
  EXPECT_EQ(snap.Value("oocgemm_calibrate_cpu_flop_rate"),
            static_cast<double>(
                static_cast<std::int64_t>(model->cpu().flop_rate)));
  EXPECT_EQ(snap.Value("oocgemm_calibrate_cpu_confident"), 1.0);
}

TEST(CalibrateFeedback, ObserveModeFitsButNeverSteers) {
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0});
  CalibratorConfig config;
  config.mode = CalibrateMode::kObserve;
  CostModelCalibrator calibrator(config, &pool);

  ThreadPool tp;
  const Csr a = testutil::RandomRmat(7, 6.0, 9);
  core::ExecutorOptions opts;
  for (int tick = 0; tick < 8; ++tick) {
    ASSERT_TRUE(core::AsyncOutOfCore(d0, a, a, opts, tp).ok());
    calibrator.TickNow();
  }
  // The fit converged and model() exports it...
  ASSERT_NE(calibrator.model(), nullptr);
  EXPECT_TRUE(calibrator.model()->device(0).rate_confident);
  // ...but observe mode never hands it to the serving stack.
  EXPECT_EQ(calibrator.apply_model(), nullptr);
  EXPECT_EQ(pool.rate_hint(0), 0.0);
}

TEST(CalibrateFeedback, ServerWiresCalibratorEndToEnd) {
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  vgpu::Device d1(vgpu::ScaledV100Properties(15));
  ThreadPool tp(2);
  serve::ServerConfig config;
  config.scheduler.num_workers = 3;
  config.calibrate.mode = CalibrateMode::kApply;
  serve::SpgemmServer server({&d0, &d1}, tp, config);
  ASSERT_NE(server.calibrator(), nullptr);

  std::vector<std::future<serve::JobResult>> futures;
  for (int wave = 0; wave < 3; ++wave) {
    for (int j = 0; j < 4; ++j) {
      serve::SpgemmJob job;
      job.a = std::make_shared<const Csr>(
          testutil::RandomRmat(7, 6.0, 100 + wave * 4 + j));
      job.b = job.a;
      job.options.mode = core::ExecutionMode::kGpuOutOfCore;
      futures.push_back(server.Submit(std::move(job)));
    }
    server.Drain();
    server.calibrator()->TickNow();
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_GE(server.calibrator()->ticks(), 3);
  EXPECT_NE(server.calibrator()->model(), nullptr);
  server.Shutdown();
}

// Completion-path ticks: MaybeTick runs nothing before Start() or before
// the interval has passed, then exactly one of several concurrent callers
// runs the due tick; Stop runs the final tick once.
TEST(CalibrateFeedback, DueTickRunsOnceAmongConcurrentCallers) {
  vgpu::Device d0(vgpu::ScaledV100Properties(15));
  core::DevicePool pool({&d0});
  CalibratorConfig config;
  config.mode = CalibrateMode::kObserve;
  config.interval_seconds = 0.05;
  CostModelCalibrator calibrator(config, &pool);
  calibrator.MaybeTick();
  EXPECT_EQ(calibrator.ticks(), 0);

  calibrator.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&calibrator] { calibrator.MaybeTick(); });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(calibrator.ticks(), 1);

  calibrator.Stop();
  calibrator.Stop();
  EXPECT_EQ(calibrator.ticks(), 2);
}

}  // namespace
}  // namespace oocgemm::calibrate
