// Robust online regression primitives for the cost-model calibrator.
//
// Every constant the calibrator re-fits is the slope of a line through the
// origin: seconds = x / rate for x in {bytes, flops}.  The fit is an
// EWMA-weighted least squares over (x, seconds) samples:
//
//   rate = Sxx / Sxy,   Sxx = sum(w_i x_i^2),  Sxy = sum(w_i x_i y_i)
//
// with three robustness properties the tests pin down:
//
//  * Tick batching + order invariance.  Samples accumulate into a pending
//    buffer; Commit() sorts them canonically, weighs each against the fit
//    state *frozen at the previous Commit*, and only then folds them into
//    the moments.  Two calibrators fed the same sample multiset in any
//    order therefore produce bit-identical fits.
//  * Winsorized outlier rejection.  A sample whose residual against the
//    frozen fit exceeds kFitOutlierK times the EWMA residual scale is not
//    dropped — its weight is clamped so it contributes as much as a
//    barely-acceptable sample.  One faulted run cannot poison the fit, but
//    a *persistent* shift (a degraded device) keeps pulling the slope until
//    the fit tracks it.
//  * Confidence gate.  Until kFitMinSamples samples accrued (and the slope
//    is finite and positive), confident() is false and callers keep their
//    static defaults.
//
// EWMA decay is applied once per Commit (per calibrator tick), not per
// sample, so the half-life is measured in ticks regardless of how much
// traffic a tick observed.
#pragma once

#include <cstdint>
#include <vector>

namespace oocgemm::calibrate {

/// Retained fraction of the accumulated moments per Commit (per tick):
/// weight of a sample t ticks old is kFitDecay^t.
inline constexpr double kFitDecay = 0.8;
/// Samples before confident() turns true (the static-defaults gate).
inline constexpr int kFitMinSamples = 6;
/// Winsorization threshold in units of the EWMA residual scale.
inline constexpr double kFitOutlierK = 4.0;

/// Through-origin EWMA-weighted least squares of y = slope * x.
class LinearFit {
 public:
  /// Buffers one sample for the next Commit.  x must be > 0 and y >= 0;
  /// anything else is silently ignored (a tick with no traffic produces
  /// zero deltas, which are not samples).
  void Add(double x, double y);

  /// Folds the pending samples into the fit: decays the prior moments,
  /// weighs each pending sample against the pre-Commit fit state (sorted
  /// canonically, so sample order never matters) and updates slope and
  /// residual scale.  A Commit with no pending samples only decays.
  void Commit();

  /// Seconds per unit; 0 until the first Commit with data.
  double slope() const { return slope_; }
  /// Units per second (1 / slope); 0 until a positive slope exists.
  double rate() const { return slope_ > 0.0 ? 1.0 / slope_ : 0.0; }

  /// True once kFitMinSamples committed samples accrued with a usable slope.
  bool confident() const { return samples_ >= kFitMinSamples && slope_ > 0.0; }

  std::int64_t samples() const { return samples_; }
  /// Samples whose weight was clamped by the winsorization rule.
  std::int64_t outliers() const { return outliers_; }
  /// EWMA of |residual| / predicted, the relative residual scale.
  double residual_scale() const { return residual_scale_; }

 private:
  std::vector<std::pair<double, double>> pending_;
  double w_sum_ = 0.0;   // decayed sum of weights
  double sxx_ = 0.0;     // decayed sum of w * x^2
  double sxy_ = 0.0;     // decayed sum of w * x * y
  double slope_ = 0.0;
  double residual_scale_ = 0.0;
  std::int64_t samples_ = 0;
  std::int64_t outliers_ = 0;
};

/// Two-term EWMA-weighted least squares of
///
///   seconds = overhead * launches + flops / rate
///
/// — the kernel-engine model: a fixed per-launch cost plus throughput-rate
/// compute.  Solved from the decayed 2x2 normal equations at each Commit;
/// when the regressors are collinear (every tick has the same
/// flops-per-launch, so the system cannot separate the terms) the fit
/// falls back to through-origin rate at a caller-supplied static overhead.
/// Same tick batching, frozen-state winsorization and order invariance as
/// LinearFit.
class OverheadRateFit {
 public:
  explicit OverheadRateFit(double static_overhead = 0.0);

  /// Buffers one tick sample: `launches` kernel launches, `flops` of work,
  /// `seconds` of engine-busy time.  Non-positive flops/seconds or
  /// negative launches are ignored.
  void Add(double launches, double flops, double seconds);
  void Commit();

  /// Marginal flops/s with the per-launch overhead separated out; 0 until
  /// a usable fit exists.
  double rate() const { return inv_rate_ > 0.0 ? 1.0 / inv_rate_ : 0.0; }
  /// Observed end-to-end flops/s at the traffic's launch intensity: the
  /// EWMA-weighted total flops over total engine-busy seconds, overhead
  /// *included*.  This is the throughput a scheduler actually gets from the
  /// device, so split/placement decisions steer on it — a device drowning
  /// in per-launch delay looks slow here even though its marginal rate()
  /// stays healthy.
  double effective_rate() const { return ss_ > 0.0 ? sf_ / ss_ : 0.0; }
  /// Fitted seconds per launch.  Falls back to the static overhead while
  /// the normal equations cannot separate the terms.
  double overhead() const { return overhead_; }
  /// True when the last solve separated overhead from rate (vs falling
  /// back to the static overhead).
  bool overhead_resolved() const { return overhead_resolved_; }

  bool confident() const {
    return samples_ >= kFitMinSamples && inv_rate_ > 0.0;
  }
  std::int64_t samples() const { return samples_; }
  std::int64_t outliers() const { return outliers_; }
  double residual_scale() const { return residual_scale_; }

 private:
  struct Sample {
    double l, f, s;
    bool operator<(const Sample& o) const {
      if (l != o.l) return l < o.l;
      if (f != o.f) return f < o.f;
      return s < o.s;
    }
  };

  double static_overhead_;
  std::vector<Sample> pending_;
  // Decayed weighted moments of the normal equations.
  double sll_ = 0.0, slf_ = 0.0, sff_ = 0.0, sls_ = 0.0, sfs_ = 0.0;
  // Decayed weighted first moments for effective_rate().
  double sf_ = 0.0, ss_ = 0.0;
  double overhead_ = 0.0;
  double inv_rate_ = 0.0;  // seconds per flop
  bool overhead_resolved_ = false;
  double residual_scale_ = 0.0;
  std::int64_t samples_ = 0;
  std::int64_t outliers_ = 0;
};

}  // namespace oocgemm::calibrate
