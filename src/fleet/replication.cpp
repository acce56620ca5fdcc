#include "fleet/replication.hpp"

#include <cmath>

namespace oocgemm::fleet {

int HotOperandTracker::RecordAndFanout(std::uint64_t key) {
  ++tick_;
  Entry& e = entries_[key];
  // Decay for the ticks that elapsed since this key was last seen, then
  // credit the hit.  pow keeps sparse keys cheap: one update per arrival
  // instead of one per global tick.
  const std::uint64_t elapsed = tick_ - e.last_tick;
  e.ewma = e.ewma * std::pow(kEwmaDecay, static_cast<double>(elapsed)) + 1.0;
  e.last_tick = tick_;

  if (!e.hot && e.ewma >= kHotThreshold) {
    e.hot = true;
    ++promotions_;
  } else if (e.hot && e.ewma < kHotThreshold * kDemoteMargin) {
    e.hot = false;
    ++demotions_;
  }
  return e.hot ? (config_.replication > 1 ? config_.replication : 1) : 1;
}

int HotOperandTracker::NextReplicaCursor(std::uint64_t key) {
  Entry& e = entries_[key];
  return e.rr_cursor++;
}

double HotOperandTracker::EwmaOf(std::uint64_t key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0.0;
  // Present-value view: decay to the current tick.
  return it->second.ewma *
         std::pow(kEwmaDecay,
                  static_cast<double>(tick_ - it->second.last_tick));
}

bool HotOperandTracker::IsHot(std::uint64_t key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.hot;
}

}  // namespace oocgemm::fleet
