// Bounded, priority-ordered job queue between admission and the scheduler
// workers.
//
// Ordering is (priority desc, submission sequence asc): strict priorities
// with FIFO fairness inside a class.  The bound is the serving system's
// backpressure valve — a full queue turns into an admission rejection, not
// unbounded memory growth.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace oocgemm::serve {

template <typename T>
class BoundedJobQueue {
 public:
  explicit BoundedJobQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Mirrors the live queue depth into `gauge` on every mutation (pass
  /// nullptr to disconnect).  The gauge outlives the queue in practice —
  /// registry instruments are never destroyed.
  void set_depth_gauge(obs::Gauge* gauge) {
    std::unique_lock<std::mutex> lock(mutex_);
    gauge_ = gauge;
    UpdateGauge();
  }

  /// Non-blocking; false when the queue is at capacity or closed, and then
  /// `item` is not moved from.
  template <typename U>
  bool TryPush(int priority, U&& item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.emplace(Key{-priority, next_seq_++}, std::forward<U>(item));
      UpdateGauge();
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// nullopt only on the latter.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    auto it = items_.begin();
    T item = std::move(it->second);
    items_.erase(it);
    UpdateGauge();
    return item;
  }

  /// Removes and returns up to `max_items` queued items satisfying `pred`,
  /// in queue (priority, FIFO) order, without blocking.  The scheduler's
  /// batch former uses this to peel companions that share an operand with
  /// the job a worker just popped; non-matching items keep their position.
  template <typename Pred>
  std::vector<T> ExtractIf(Pred pred, std::size_t max_items) {
    std::vector<T> out;
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = items_.begin();
         it != items_.end() && out.size() < max_items;) {
      if (pred(it->second)) {
        out.push_back(std::move(it->second));
        it = items_.erase(it);
      } else {
        ++it;
      }
    }
    UpdateGauge();
    return out;
  }

  /// Wakes all poppers; queued items may still be popped, new pushes fail.
  void Close() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  void UpdateGauge() {  // callers hold mutex_
    if (gauge_ != nullptr) {
      gauge_->Set(static_cast<std::int64_t>(items_.size()));
    }
  }

  struct Key {
    int neg_priority;
    std::uint64_t seq;
    bool operator<(const Key& o) const {
      if (neg_priority != o.neg_priority) return neg_priority < o.neg_priority;
      return seq < o.seq;
    }
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;  // consumers: items available / closed
  std::map<Key, T> items_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  obs::Gauge* gauge_ = nullptr;
};

}  // namespace oocgemm::serve
