// Shared pieces of the benchmark-suite binary (`oocgemm_suite`): the run's
// options and result, the metric table every workload fills, the in-memory
// span recorder of the traced run, order statistics, obs-registry deltas and
// the layer-replay phase.
//
// The suite only calls the library's public functions, timing each call
// from outside (steady_clock).  Wall metrics and virtual metrics (the
// simulated V100/PCIe clock) are kept in separate metric names; no value
// mixes the two clocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sparse/csr.hpp"

namespace suite {

using Clock = std::chrono::steady_clock;

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 7;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank q-quantile of `v` (0 for an empty sample).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Sum(const std::vector<double>& v);
/// a / b, or 0 when b is 0 (per-layer ratios of layers a workload skips).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the measured phases (about this many seconds on a 4-core
  /// host); the traced run spends half of it traced, between two untraced
  /// quarters.
  double seconds = 20.0;
  /// Non-empty: traced run, spans written here as JSON at exit.
  std::string trace_path;
  /// Non-empty: the run's full result (every metric) written here as JSON.
  std::string out_path;
  bool traced() const { return !trace_path.empty(); }
};

/// Name -> (value, unit) table of one run.
class Metrics {
 public:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Entry{value, unit};
  }
  const std::map<std::string, Entry>& all() const { return values_; }
  void Merge(const Metrics& other);

 private:
  std::map<std::string, Entry> values_;
};

/// Outcome of one workload run.
struct RunResult {
  Metrics metrics;
  std::int64_t attempted = 0;
  /// Failed, rejected and timed-out operations plus verification
  /// mismatches.
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  /// False when a paper-shape claim broke (paper-square only).
  bool shape_ok = true;
  bool correct() const { return mismatches == 0; }
};

/// In-memory spans of the traced run: one per public call the suite makes
/// (name, start, end, parent span, job id), kept in memory and written out
/// once at exit.  A disabled tracer records nothing and hands out id 0.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Call only while no other thread uses the tracer.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Reserves a span id so children can name their parent before the
  /// parent span ends.  0 while disabled.
  std::uint64_t NewId();
  /// Records a finished span under a reserved id (no-op for id 0).
  void Record(std::uint64_t id, const char* name, std::uint64_t parent,
              std::int64_t job, Clock::time_point start, Clock::time_point end);
  /// NewId + Record in one step; returns the id.
  std::uint64_t Add(const char* name, std::uint64_t parent, std::int64_t job,
                    Clock::time_point start, Clock::time_point end);

  /// Writes {"workload", "seed", "wall_gflops_untraced",
  /// "wall_gflops_traced", "spans": [...]} to `path`.
  bool WriteJson(const std::string& path, const Options& options,
                 double wall_gflops_untraced, double wall_gflops_traced) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t job;
    const char* name;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Sum over every label set of a counter family in `snap`; when
/// `label_value` is non-empty, only points whose `label_key` matches.
double FamilySum(const oocgemm::obs::RegistrySnapshot& snap,
                 const std::string& name, const std::string& label_key = "",
                 const std::string& label_value = "");

/// Per-layer metrics read off obs-registry deltas around a measured phase:
/// kernel strategy mix, symbolic/numeric wall seconds, mis-routes, device
/// transfer bytes and allocations, panel-cache hits and estimator
/// fallbacks.  `jobs` normalises the per-job values.
void SetObsDeltaMetrics(const oocgemm::obs::RegistrySnapshot& before,
                        const oocgemm::obs::RegistrySnapshot& after,
                        double jobs, Metrics& m);

/// One (A, B) input of the layer-replay phase with its reference product.
struct ReplayInput {
  const oocgemm::sparse::Csr* a;
  const oocgemm::sparse::Csr* b;
  const oocgemm::sparse::Csr* reference;
};

/// Times each layer's public functions once per input, from outside the
/// library: EstimateRowNnz, PlanPanels (sampled-symbolic and estimated),
/// EstimateProduct, CpuSpgemm routed and forced per strategy, and the
/// admission demand functions.  Verifies every CpuSpgemm output.
void RunLayerReplay(const std::vector<ReplayInput>& inputs,
                    std::int64_t device_capacity, oocgemm::ThreadPool& pool,
                    Tracer& tracer, RunResult& result);

/// Peak resident set of this process in MiB.
double PeakRssMib();

/// Sets every per-layer metric the run did not measure to 0: each workload
/// reports the full per-layer set, and a layer the workload never calls
/// (serve in paper-square, the executors' per-entry-point timings in the
/// serve workloads) reads 0.
void FillUnmeasuredLayers(Metrics& m);

int RunPaperSquare(const Options& options, Clock::time_point process_start,
                   RunResult& result);
int RunServeWorkload(const Options& options, Clock::time_point process_start,
                     RunResult& result);

}  // namespace suite
