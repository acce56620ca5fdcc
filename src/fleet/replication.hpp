// Hot-operand replication policy.
//
// The ring gives every B operand one home shard — ideal for cache locality,
// terrible for a skewed workload where one operand dominates: its home
// shard becomes the fleet's bottleneck while the others idle.  The tracker
// keeps a per-operand EWMA of submission rate over *logical ticks* (one
// tick per routed job — wall clock would make placement timing-dependent
// and untestable).  When an operand's EWMA crosses kHotThreshold, it is
// promoted: jobs on it spread round-robin over the first R ring successors
// instead of just the owner, trading one extra shard's worth of B-panel
// uploads for R-way service bandwidth.  A demotion margin (hysteresis)
// keeps operands from flapping across the threshold, since each flap
// re-cools a replica's PanelCache.
//
// The tracker is not thread-safe; FleetRouter serializes access under its
// routing mutex.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace oocgemm::fleet {

struct ReplicationConfig {
  /// Shards a hot operand is served from (1 disables replication).
  int replication = 1;
};

class HotOperandTracker {
 public:
  /// Per-tick EWMA decay; closer to 1 = longer memory.
  static constexpr double kEwmaDecay = 0.95;
  /// EWMA value at which an operand is promoted to its replica set.
  static constexpr double kHotThreshold = 3.0;
  /// Demoted only once the EWMA falls below kHotThreshold * this margin.
  static constexpr double kDemoteMargin = 0.5;

  explicit HotOperandTracker(ReplicationConfig config = {})
      : config_(config) {}

  /// Advances the logical clock one tick, credits `key` with a hit, and
  /// returns the number of shards jobs on this key should spread over
  /// right now: 1 while cold, config.replication once hot.
  int RecordAndFanout(std::uint64_t key);

  /// Round-robin cursor over the key's replica set: 0, 1, ..., fanout-1,
  /// wrapping.  Callers mod it by the actual replica-set size.
  int NextReplicaCursor(std::uint64_t key);

  double EwmaOf(std::uint64_t key) const;
  bool IsHot(std::uint64_t key) const;
  std::int64_t promotions() const { return promotions_; }
  std::int64_t demotions() const { return demotions_; }
  std::int64_t tracked_keys() const {
    return static_cast<std::int64_t>(entries_.size());
  }

 private:
  struct Entry {
    double ewma = 0.0;
    std::uint64_t last_tick = 0;
    bool hot = false;
    int rr_cursor = 0;
  };

  ReplicationConfig config_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t tick_ = 0;
  std::int64_t promotions_ = 0;
  std::int64_t demotions_ = 0;
};

}  // namespace oocgemm::fleet
