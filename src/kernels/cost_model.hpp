// Calibrated timing model for the virtual GPU kernels and the multicore CPU
// baseline.
//
// The model is deliberately simple: effective SpGEMM throughput grows with
// the compression ratio cr = flops / nnz(C) (more accumulation per output
// element means better cache/register behaviour on both devices — the
// correlation the paper observes in Section V-C).  The constants are
// calibrated so the *synchronous* out-of-core baseline lands in the paper's
// Fig. 4 transfer-fraction band; every other evaluation result then emerges
// from the simulated schedule (see DESIGN.md).
#pragma once

#include <cstdint>

namespace oocgemm::kernels {

struct CostModel {
  // --- GPU kernel stages ----------------------------------------------------
  /// Row analysis scans A-panel entries and reads B row lengths.
  double analysis_entry_rate = 25e9;       // A-panel entries per second

  /// Effective numeric throughput: numeric_coeff * cr^numeric_exp flops/s,
  /// clamped to [numeric_min, numeric_max].
  double numeric_coeff = 2.0e9;
  double numeric_exp = 0.9;
  double numeric_min = 0.8e9;
  double numeric_max = 30e9;

  /// Symbolic execution costs this fraction of the numeric time (it does
  /// the same traversal without value arithmetic or output writes).
  double symbolic_fraction = 0.5;

  /// Load-imbalance multiplier per row-group kernel (the last warp of a
  /// group finishes late).  Multiplicative so it scales with the problem;
  /// the fixed per-launch cost lives in DeviceProperties (and shrinks with
  /// the miniature-device scaling).
  double group_imbalance_factor = 1.08;

  // --- CPU (28-thread Nagasaka-style hash SpGEMM) ---------------------------
  /// Like the GPU, the CPU kernel benefits from accumulation locality, so
  /// its effective rate also grows with the compression ratio — but more
  /// gently (exponent 0.65 vs the GPU's ~0.9 end-to-end), because it pays
  /// no PCIe transfer.  Two consequences the paper reports emerge from this
  /// gap: the matrix-level GPU/CPU speedup stays in a narrow ~1.8-3x band
  /// across the whole evaluation set (Fig. 7), and dense chunks are
  /// *relatively* better on the GPU, which is why reordering them onto the
  /// GPU pays off (Fig. 9).
  double cpu_seconds_per_flop_coeff = 7.9e-9;  // per-flop cost at cr = 1
  double cpu_flop_exponent = 0.65;
  /// Per-chunk setup on the CPU side (thread fork/join, scratch reuse).
  /// Like the scaled device's fixed costs, expressed at reproduction scale
  /// (~1/512 of a full-size run's ~120us).
  double cpu_chunk_overhead = 0.25e-6;

  // --- derived quantities -----------------------------------------------------
  double NumericRate(double cr) const;
  double GpuAnalysisSeconds(std::int64_t a_panel_nnz) const;
  double GpuSymbolicSeconds(std::int64_t flops, double cr) const;
  double GpuNumericSeconds(std::int64_t flops, double cr) const;

  /// Modeled end-to-end GPU cost of a chunk (kernels + D2H of the result at
  /// `d2h_bandwidth` bytes/s), used to derive the CPU rate and by the
  /// hybrid scheduler's intuition; the *actual* GPU time comes from the
  /// simulated timeline, not from this estimate.
  double GpuEndToEndSeconds(std::int64_t flops, double cr,
                            double d2h_bandwidth) const;

  /// Modeled CPU time for a chunk of `flops` with compression ratio `cr`
  /// (output nnz = flops / cr).
  double CpuChunkSeconds(std::int64_t flops, double cr) const;
};

/// The one calibrated model: the GPU pipeline stages, CpuMulticore,
/// RunCpuChunks and the calibrator's static rates all read it, so every
/// figure comes from the same constants.
inline constexpr CostModel kCostModel{};

}  // namespace oocgemm::kernels
