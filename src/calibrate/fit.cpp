#include "calibrate/fit.hpp"

#include <algorithm>
#include <cmath>

namespace oocgemm::calibrate {

void LinearFit::Add(double x, double y) {
  if (!(x > 0.0) || !(y >= 0.0) || !std::isfinite(x) || !std::isfinite(y)) {
    return;
  }
  pending_.push_back({x, y});
}

void LinearFit::Commit() {
  // Decay first: the prior moments age one tick whether or not traffic
  // arrived, so an idle stretch lets fresh evidence dominate sooner.
  w_sum_ *= kFitDecay;
  sxx_ *= kFitDecay;
  sxy_ *= kFitDecay;
  if (pending_.empty()) return;

  // Canonical order: every weight below is computed against the fit state
  // frozen at entry (frozen_slope / frozen_scale), so after sorting, the
  // folded moments are independent of the order Add was called in.
  std::sort(pending_.begin(), pending_.end());
  const double frozen_slope = slope_;
  const double frozen_scale = residual_scale_;
  const bool warmed = samples_ >= kFitMinSamples && frozen_slope > 0.0;

  double scale_acc = 0.0;
  double scale_n = 0.0;
  for (const auto& [x, y] : pending_) {
    double weight = 1.0;
    const double predicted = frozen_slope * x;
    double rel_residual = 0.0;
    if (predicted > 0.0) {
      rel_residual = std::abs(y - predicted) / predicted;
      // Winsorize once the fit warmed up: clamp the sample's weight so its
      // pull equals a residual at the acceptance edge.  floor(1e-3 * scale)
      // keeps a long quiet streak from making the gate infinitely strict.
      const double gate = kFitOutlierK * std::max(frozen_scale, 1e-3);
      if (warmed && rel_residual > gate) {
        weight = gate / rel_residual;
        ++outliers_;
      }
    }
    w_sum_ += weight;
    sxx_ += weight * x * x;
    sxy_ += weight * x * y;
    scale_acc += rel_residual;
    scale_n += 1.0;
    ++samples_;
  }
  pending_.clear();

  if (sxx_ > 0.0) slope_ = sxy_ / sxx_;
  // Residual scale: EWMA over ticks of the mean relative residual, seeded
  // by the first tick's value so the winsorization gate starts calibrated.
  const double tick_scale = scale_n > 0.0 ? scale_acc / scale_n : 0.0;
  residual_scale_ = residual_scale_ == 0.0
                        ? tick_scale
                        : kFitDecay * residual_scale_ +
                              (1.0 - kFitDecay) * tick_scale;
}

OverheadRateFit::OverheadRateFit(double static_overhead)
    : static_overhead_(std::max(0.0, static_overhead)),
      overhead_(static_overhead_) {}

void OverheadRateFit::Add(double launches, double flops, double seconds) {
  if (!(flops > 0.0) || !(seconds > 0.0) || !(launches >= 0.0) ||
      !std::isfinite(flops) || !std::isfinite(seconds) ||
      !std::isfinite(launches)) {
    return;
  }
  pending_.push_back({launches, flops, seconds});
}

void OverheadRateFit::Commit() {
  const double d = kFitDecay;
  sll_ *= d; slf_ *= d; sff_ *= d; sls_ *= d; sfs_ *= d;
  sf_ *= d; ss_ *= d;
  if (pending_.empty()) return;

  std::sort(pending_.begin(), pending_.end());
  const double frozen_overhead = overhead_;
  const double frozen_inv_rate = inv_rate_;
  const double frozen_scale = residual_scale_;
  const bool warmed = samples_ >= kFitMinSamples && frozen_inv_rate > 0.0;

  double scale_acc = 0.0;
  double scale_n = 0.0;
  for (const Sample& p : pending_) {
    double weight = 1.0;
    const double predicted = frozen_overhead * p.l + frozen_inv_rate * p.f;
    double rel_residual = 0.0;
    if (predicted > 0.0) {
      rel_residual = std::abs(p.s - predicted) / predicted;
      const double gate = kFitOutlierK * std::max(frozen_scale, 1e-3);
      if (warmed && rel_residual > gate) {
        weight = gate / rel_residual;
        ++outliers_;
      }
    }
    sll_ += weight * p.l * p.l;
    slf_ += weight * p.l * p.f;
    sff_ += weight * p.f * p.f;
    sls_ += weight * p.l * p.s;
    sfs_ += weight * p.f * p.s;
    sf_ += weight * p.f;
    ss_ += weight * p.s;
    scale_acc += rel_residual;
    scale_n += 1.0;
    ++samples_;
  }
  pending_.clear();

  // Solve the 2x2 normal equations; a near-singular system (constant
  // flops-per-launch across ticks) cannot separate overhead from rate, so
  // fall back to through-origin rate at the static overhead.
  const double det = sll_ * sff_ - slf_ * slf_;
  overhead_resolved_ = false;
  if (sff_ > 0.0) {
    if (det > 1e-9 * sll_ * sff_ && sll_ > 0.0) {
      const double o = (sls_ * sff_ - sfs_ * slf_) / det;
      const double ir = (sfs_ * sll_ - sls_ * slf_) / det;
      if (o >= 0.0 && ir > 0.0) {
        overhead_ = o;
        inv_rate_ = ir;
        overhead_resolved_ = true;
      }
    }
    if (!overhead_resolved_) {
      overhead_ = static_overhead_;
      // Attribute the static per-launch cost, then fit the remainder as
      // pure rate: inv_rate = sum w f (s - o l) / sum w f^2.
      const double adjusted = sfs_ - static_overhead_ * slf_;
      inv_rate_ = adjusted > 0.0 ? adjusted / sff_ : sfs_ / sff_;
    }
  }

  const double tick_scale = scale_n > 0.0 ? scale_acc / scale_n : 0.0;
  residual_scale_ = residual_scale_ == 0.0
                        ? tick_scale
                        : kFitDecay * residual_scale_ +
                              (1.0 - kFitDecay) * tick_scale;
}

}  // namespace oocgemm::calibrate
