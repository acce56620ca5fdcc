// Periodic exporter thread: scrapes a MetricsRegistry on an interval and
// writes the Prometheus and/or JSON serialization to files (atomically, so
// an external scraper tailing the path never reads a torn snapshot).
// A process runs at most one, around whatever it serves: `oocgemm_cli serve
// --metrics-out=<path> --metrics-interval=<s>` starts it before the first
// submission and stops it after the server or fleet router shut down, so
// the files end at the terminal state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace oocgemm::obs {

class Snapshotter {
 public:
  struct Options {
    /// Seconds between periodic writes; <= 0 disables the thread (WriteNow
    /// and the final write on Stop still work).
    double interval_seconds = 1.0;
    /// Prometheus text target; empty skips the format.
    std::string prometheus_path;
    /// JSON target; empty skips the format.
    std::string json_path;
  };

  Snapshotter(MetricsRegistry& registry, Options options);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Serializes and writes one snapshot immediately (thread-safe).
  Status WriteNow();

  /// Stops the periodic thread and writes one final snapshot, so the files
  /// always end at the registry's terminal state.  Idempotent.
  void Stop();

  /// Completed write passes (periodic + explicit), for tests.
  std::int64_t writes() const { return writes_.load(std::memory_order_acquire); }

 private:
  void Loop();

  MetricsRegistry& registry_;
  Options options_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::atomic<std::int64_t> writes_{0};
};

}  // namespace oocgemm::obs
