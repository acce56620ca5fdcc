// Live metrics for the long-running serving node.
//
// The repo's existing accounting (RunStats, ServerReport, vgpu::Trace) is
// post-mortem: one snapshot when a run or server finishes.  The paper's
// claims are about *where time goes* while the system runs — transfer
// fraction vs compute (Fig. 4), async overlap (Fig. 8), the CPU/GPU flop
// split (Fig. 10) — so a serving deployment needs the same signal
// continuously.  This header provides the process-wide instrumentation
// surface every layer records into:
//
//  * Counter / DoubleCounter — monotone, sharded over cache-line-padded
//    atomics so concurrent writers (scheduler workers, device ops on many
//    threads) never contend on one line.  Reads sum the shards.
//  * Gauge — a single atomic level (queue depth, device bytes in use).
//  * LogBucketHistogram — log-spaced buckets (2^(1/8) growth) over a wide
//    dynamic range, for latency/bytes/flops distributions.  Mergeable, and
//    quantile estimates carry an explicit relative-error bound of one
//    bucket width (tested against oocgemm::Summarize).
//  * MetricsRegistry — names + labels -> instruments.  Instruments live for
//    the registry's lifetime, so call sites resolve once and record through
//    a raw pointer.  Snapshot() returns a consistent point-in-time view:
//    each instrument is read atomically; after writers quiesce the snapshot
//    equals the exact totals (no lost updates — tested under TSan).
//
// Recording is wait-free apart from the histogram min/max CAS loops, so
// instrumentation can stay on hot paths unconditionally.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace oocgemm::obs {

/// Label set of one instrument, e.g. {{"device", "0"}}.  The registry sorts
/// by key, so insertion order never leaks into metric identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

inline constexpr int kShards = 16;

/// Round-robin thread->shard assignment: each thread writes its own shard
/// (mod kShards), so the common case is an uncontended cache line.
std::size_t ShardIndex();

template <typename T>
class Sharded {
 public:
  void Add(T delta) { AtomicAdd(shards_[ShardIndex()].value, delta); }

  T Value() const {
    T total{};
    for (const auto& s : shards_) total += s.value.load(std::memory_order_acquire);
    return total;
  }

  void ResetForTest() {
    for (auto& s : shards_) s.value.store(T{}, std::memory_order_release);
  }

 private:
  static void AtomicAdd(std::atomic<std::int64_t>& a, std::int64_t d) {
    a.fetch_add(d, std::memory_order_relaxed);
  }
  static void AtomicAdd(std::atomic<double>& a, double d) {
    // CAS loop instead of C++20 fetch_add(double): identical semantics,
    // supported by every toolchain this repo targets.
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }

  struct alignas(64) Shard {
    std::atomic<T> value{};
  };
  Shard shards_[kShards];
};

}  // namespace detail

/// Monotone integer counter (events, bytes).  Thread-safe, sharded.
class Counter {
 public:
  void Add(std::int64_t delta = 1) { cells_.Add(delta); }
  std::int64_t Value() const { return cells_.Value(); }
  void ResetForTest() { cells_.ResetForTest(); }

 private:
  detail::Sharded<std::int64_t> cells_;
};

/// Monotone floating-point counter (virtual seconds).  Thread-safe, sharded.
class DoubleCounter {
 public:
  void Add(double delta) { cells_.Add(delta); }
  double Value() const { return cells_.Value(); }
  void ResetForTest() { cells_.ResetForTest(); }

 private:
  detail::Sharded<double> cells_;
};

/// A level that moves both ways (queue depth, bytes in use).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_release); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const { return value_.load(std::memory_order_acquire); }
  void ResetForTest() { value_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time view of a histogram.  Buckets are the non-empty ones, in
/// ascending order; bucket i covers (lower, upper] with upper/lower equal
/// to the histogram's growth factor (the zero bucket, holding values <= 0,
/// has lower == upper == 0).
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::int64_t count = 0;
  };
  std::vector<Bucket> buckets;
  /// Growth factor 2^(1/kBucketsPerPow2) — the relative-error bound of
  /// every quantile estimate.
  double growth = 0.0;

  /// Bounds of the bucket holding the q-quantile (rank ceil(q*count)),
  /// clamped to the observed [min, max].  Well-defined on every input:
  /// {0, 0} when the histogram is empty or q is NaN; {min, max} (i.e. the
  /// sample itself) when exactly one value was recorded; q outside [0, 1]
  /// clamps to the nearest end, so q=0.0 reports the min bucket and q=1.0
  /// the max bucket.  Never indexes outside the bucket array.
  std::pair<double, double> QuantileBounds(double q) const;
  /// Point estimate: the upper bound of the quantile bucket (clamped).
  double Quantile(double q) const { return QuantileBounds(q).second; }
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Log-bucketed histogram over (0, +inf), with a dedicated bucket for
/// values <= 0.  Bucket boundaries are 2^(i / kBucketsPerPow2): recording
/// costs one log2 plus two relaxed atomic adds, and any quantile read off
/// the buckets is within one bucket width (factor 2^(1/8)) of the exact
/// order statistic.  Histograms merge exactly (bucket-count addition) —
/// the property the per-device -> fleet rollup relies on, tested in
/// test_obs_metrics.cpp.
class LogBucketHistogram {
 public:
  static constexpr int kBucketsPerPow2 = 8;  // growth ~1.09: <=9% error
  static constexpr int kMinExp = -64;        // ~5.4e-20
  static constexpr int kMaxExp = 64;         // ~1.8e19

  LogBucketHistogram();

  void Record(double value);
  /// Adds `other`'s contents into this histogram.
  void MergeFrom(const LogBucketHistogram& other);

  HistogramSnapshot Snapshot() const;
  std::int64_t Count() const { return count_.load(std::memory_order_acquire); }

  void ResetForTest();

 private:
  int BucketIndex(double value) const;  // 0 == the <=0 bucket
  double UpperBound(int index) const;
  double LowerBound(int index) const;

  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// One instrument's state inside a RegistrySnapshot.
struct MetricPoint {
  Labels labels;
  double value = 0.0;               // counters and gauges
  HistogramSnapshot histogram;      // histograms
};

struct MetricFamily {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricPoint> points;  // sorted by label signature
};

/// Consistent point-in-time view of a whole registry, ordered by metric
/// name — the exporters' and tests' input.
struct RegistrySnapshot {
  std::vector<MetricFamily> families;

  /// Counter/gauge value, or 0 when the instrument does not exist.
  double Value(const std::string& name, const Labels& labels = {}) const;
  /// Histogram snapshot, or nullptr when absent.
  const HistogramSnapshot* Histogram(const std::string& name,
                                     const Labels& labels = {}) const;
};

/// Name -> instrument registry.  Get* returns a stable reference: the
/// instrument is created on first use and lives until the registry dies, so
/// call sites resolve once (constructor, static local) and record through
/// the reference with no further locking.  Re-registering with a different
/// kind is a programming error (OOC_CHECK).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrument records into.
  static MetricsRegistry& Default();

  Counter& GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  DoubleCounter& GetDoubleCounter(const std::string& name,
                                  const Labels& labels = {},
                                  const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  LogBucketHistogram& GetHistogram(const std::string& name,
                                   const Labels& labels = {},
                                   const std::string& help = "");

  RegistrySnapshot Snapshot() const;

  /// Zeroes every registered instrument (tests only; references stay valid).
  void ResetForTest();

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<DoubleCounter> double_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogBucketHistogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    bool floating = false;  // counter family backed by DoubleCounter
    std::string help;
    std::map<std::string, Instrument> by_labels;  // key: serialized labels
  };

  // Requires mutex_ held: callers create the missing instrument under the
  // same critical section, so racing Get*s resolve to one object.
  Instrument& ResolveLocked(const std::string& name, const Labels& labels,
                            const std::string& help, MetricKind kind,
                            bool floating);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Sorts by key and serializes a label set into the registry's canonical
/// signature (also the exporters' ordering key).
std::string LabelSignature(const Labels& labels);

}  // namespace oocgemm::obs
