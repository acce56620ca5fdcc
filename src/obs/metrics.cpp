#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace oocgemm::obs {

namespace detail {

std::size_t ShardIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<std::size_t>(kShards);
  return index;
}

}  // namespace detail

// --- LogBucketHistogram -----------------------------------------------------

LogBucketHistogram::LogBucketHistogram()
    : counts_(static_cast<std::size_t>((kMaxExp - kMinExp) * kBucketsPerPow2) +
              1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

int LogBucketHistogram::BucketIndex(double value) const {
  if (!(value > 0.0)) return 0;  // <=0 and NaN share the zero bucket
  const double scaled = std::log2(value) * static_cast<double>(kBucketsPerPow2);
  const int lo = kMinExp * kBucketsPerPow2;
  const int hi = kMaxExp * kBucketsPerPow2 - 1;
  int i = static_cast<int>(std::floor(scaled));
  i = std::clamp(i, lo, hi);
  return i - lo + 1;
}

double LogBucketHistogram::UpperBound(int index) const {
  if (index <= 0) return 0.0;
  return std::exp2(static_cast<double>(index + kMinExp * kBucketsPerPow2) /
                   static_cast<double>(kBucketsPerPow2));
}

double LogBucketHistogram::LowerBound(int index) const {
  if (index <= 0) return 0.0;
  return std::exp2(static_cast<double>(index - 1 + kMinExp * kBucketsPerPow2) /
                   static_cast<double>(kBucketsPerPow2));
}

void LogBucketHistogram::Record(double value) {
  counts_[static_cast<std::size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
  double mn = min_.load(std::memory_order_relaxed);
  while (value < mn &&
         !min_.compare_exchange_weak(mn, value, std::memory_order_relaxed)) {
  }
  double mx = max_.load(std::memory_order_relaxed);
  while (value > mx &&
         !max_.compare_exchange_weak(mx, value, std::memory_order_relaxed)) {
  }
}

void LogBucketHistogram::MergeFrom(const LogBucketHistogram& other) {
  std::int64_t merged = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int64_t c = other.counts_[i].load(std::memory_order_acquire);
    if (c != 0) counts_[i].fetch_add(c, std::memory_order_relaxed);
    merged += c;
  }
  count_.fetch_add(merged, std::memory_order_relaxed);
  const double osum = other.sum_.load(std::memory_order_acquire);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + osum,
                                     std::memory_order_relaxed)) {
  }
  const double omin = other.min_.load(std::memory_order_acquire);
  double mn = min_.load(std::memory_order_relaxed);
  while (omin < mn &&
         !min_.compare_exchange_weak(mn, omin, std::memory_order_relaxed)) {
  }
  const double omax = other.max_.load(std::memory_order_acquire);
  double mx = max_.load(std::memory_order_relaxed);
  while (omax > mx &&
         !max_.compare_exchange_weak(mx, omax, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LogBucketHistogram::Snapshot() const {
  HistogramSnapshot s;
  s.growth = std::exp2(1.0 / static_cast<double>(kBucketsPerPow2));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int64_t c = counts_[i].load(std::memory_order_acquire);
    if (c == 0) continue;
    const int idx = static_cast<int>(i);
    s.buckets.push_back({LowerBound(idx), UpperBound(idx), c});
    total += c;
  }
  // The bucket tally is the authoritative count: count_ may lag the bucket
  // increments mid-record, and quantiles must be internally consistent.
  s.count = total;
  s.sum = sum_.load(std::memory_order_acquire);
  const double mn = min_.load(std::memory_order_acquire);
  const double mx = max_.load(std::memory_order_acquire);
  s.min = std::isfinite(mn) ? mn : 0.0;
  s.max = std::isfinite(mx) ? mx : 0.0;
  return s;
}

void LogBucketHistogram::ResetForTest() {
  for (auto& c : counts_) c.store(0, std::memory_order_release);
  count_.store(0, std::memory_order_release);
  sum_.store(0.0, std::memory_order_release);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_release);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_release);
}

std::pair<double, double> HistogramSnapshot::QuantileBounds(double q) const {
  if (count <= 0 || buckets.empty()) return {0.0, 0.0};
  // NaN would survive std::clamp and turn the rank cast into UB.
  if (std::isnan(q)) return {0.0, 0.0};
  q = std::clamp(q, 0.0, 1.0);
  // One sample: every quantile is that sample.  The bucket walk below
  // would mis-handle a single value <= 0 — the zero bucket's [0, 0] range
  // clamps against a negative min/max and reports 0, not the sample.
  if (count == 1) return {min, max};
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::int64_t cumulative = 0;
  for (const Bucket& b : buckets) {
    cumulative += b.count;
    if (cumulative >= rank) {
      const double lo = std::max(b.lower, min);
      const double hi = std::min(b.upper, max);
      // A clamp can invert the pair when every sample in the bucket sits
      // outside [min, max] refinement; keep the pair ordered.
      return {std::min(lo, hi), std::max(lo, hi)};
    }
  }
  return {max, max};
}

// --- MetricsRegistry --------------------------------------------------------

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

std::string LabelSignature(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string sig;
  for (const auto& [k, v] : sorted) {
    sig += k;
    sig += '=';
    sig += v;
    sig += '\x1f';  // unit separator: cannot collide with label text
  }
  return sig;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Instrument& MetricsRegistry::ResolveLocked(
    const std::string& name, const Labels& labels, const std::string& help,
    MetricKind kind, bool floating) {
  Family& family = families_[name];
  if (family.by_labels.empty()) {
    family.kind = kind;
    family.floating = floating;
    family.help = help;
  } else {
    OOC_CHECK(family.kind == kind && family.floating == floating &&
              "metric re-registered with a different kind");
  }
  if (family.help.empty() && !help.empty()) family.help = help;
  Instrument& inst = family.by_labels[LabelSignature(labels)];
  if (inst.labels.empty() && !labels.empty()) {
    inst.labels = labels;
    std::sort(inst.labels.begin(), inst.labels.end());
  }
  return inst;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  std::unique_lock<std::mutex> lock(mutex_);
  Instrument& inst =
      ResolveLocked(name, labels, help, MetricKind::kCounter, /*floating=*/false);
  if (!inst.counter) inst.counter = std::make_unique<Counter>();
  return *inst.counter;
}

DoubleCounter& MetricsRegistry::GetDoubleCounter(const std::string& name,
                                                 const Labels& labels,
                                                 const std::string& help) {
  std::unique_lock<std::mutex> lock(mutex_);
  Instrument& inst =
      ResolveLocked(name, labels, help, MetricKind::kCounter, /*floating=*/true);
  if (!inst.double_counter) {
    inst.double_counter = std::make_unique<DoubleCounter>();
  }
  return *inst.double_counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  std::unique_lock<std::mutex> lock(mutex_);
  Instrument& inst =
      ResolveLocked(name, labels, help, MetricKind::kGauge, /*floating=*/false);
  if (!inst.gauge) inst.gauge = std::make_unique<Gauge>();
  return *inst.gauge;
}

LogBucketHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                                  const Labels& labels,
                                                  const std::string& help) {
  std::unique_lock<std::mutex> lock(mutex_);
  Instrument& inst = ResolveLocked(name, labels, help, MetricKind::kHistogram,
                                   /*floating=*/false);
  if (!inst.histogram) inst.histogram = std::make_unique<LogBucketHistogram>();
  return *inst.histogram;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::unique_lock<std::mutex> lock(mutex_);
  snap.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    MetricFamily out;
    out.name = name;
    out.help = family.help;
    out.kind = family.kind;
    for (const auto& [sig, inst] : family.by_labels) {
      MetricPoint p;
      p.labels = inst.labels;
      if (inst.counter) p.value = static_cast<double>(inst.counter->Value());
      if (inst.double_counter) p.value = inst.double_counter->Value();
      if (inst.gauge) p.value = static_cast<double>(inst.gauge->Value());
      if (inst.histogram) p.histogram = inst.histogram->Snapshot();
      out.points.push_back(std::move(p));
    }
    snap.families.push_back(std::move(out));
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [sig, inst] : family.by_labels) {
      if (inst.counter) inst.counter->ResetForTest();
      if (inst.double_counter) inst.double_counter->ResetForTest();
      if (inst.gauge) inst.gauge->ResetForTest();
      if (inst.histogram) inst.histogram->ResetForTest();
    }
  }
}

double RegistrySnapshot::Value(const std::string& name,
                               const Labels& labels) const {
  const std::string sig = LabelSignature(labels);
  for (const MetricFamily& f : families) {
    if (f.name != name) continue;
    for (const MetricPoint& p : f.points) {
      if (LabelSignature(p.labels) == sig) return p.value;
    }
  }
  return 0.0;
}

const HistogramSnapshot* RegistrySnapshot::Histogram(
    const std::string& name, const Labels& labels) const {
  const std::string sig = LabelSignature(labels);
  for (const MetricFamily& f : families) {
    if (f.name != name || f.kind != MetricKind::kHistogram) continue;
    for (const MetricPoint& p : f.points) {
      if (LabelSignature(p.labels) == sig) return &p.histogram;
    }
  }
  return nullptr;
}

}  // namespace oocgemm::obs
