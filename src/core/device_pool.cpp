#include "core/device_pool.hpp"

#include <algorithm>
#include <string>

namespace oocgemm::core {

DevicePool::DevicePool(std::vector<vgpu::Device*> devices)
    : devices_(std::move(devices)), state_(devices_.size()) {
  auto& reg = obs::MetricsRegistry::Default();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->set_id(static_cast<int>(i));
    const obs::Labels labels = {{"device", std::to_string(i)}};
    state_[i].lease_metric = &reg.GetCounter(
        "oocgemm_core_lease_acquires", labels, "Exclusive device leases granted");
    state_[i].contention_metric =
        &reg.GetCounter("oocgemm_core_lease_contention", labels,
                        "Acquire attempts that found the device busy");
  }
}

DevicePool::DeviceHealth DevicePool::health(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<std::size_t>(index)].health;
}

void DevicePool::MarkUnhealthy(int index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[static_cast<std::size_t>(index)].health = DeviceHealth::kUnhealthy;
  }
  // Blocked Acquire callers must re-evaluate: if this was the last device
  // that fit their working set, waiting can never succeed anymore.
  released_cv_.notify_all();
}

void DevicePool::Revive(int index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[static_cast<std::size_t>(index)].health = DeviceHealth::kHealthy;
  }
  device(index).Revive();
  released_cv_.notify_all();
}

int DevicePool::healthy_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(std::count_if(
      state_.begin(), state_.end(), [](const DeviceState& s) {
        return s.health == DeviceHealth::kHealthy;
      }));
}

void DevicePool::set_rate_hint(int index, double flops_per_second) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_[static_cast<std::size_t>(index)].rate_hint =
      flops_per_second > 0.0 ? flops_per_second : 0.0;
}

double DevicePool::rate_hint(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<std::size_t>(index)].rate_hint;
}

std::vector<int> DevicePool::GrantFreeLocked(int max_slots,
                                             std::int64_t min_capacity_bytes) {
  // Candidate order: rate hint descending, then index ascending.
  std::vector<int> candidates;
  for (int i = 0; i < size(); ++i) {
    const DeviceState& s = state_[static_cast<std::size_t>(i)];
    if (s.health != DeviceHealth::kHealthy) continue;
    if (device(i).capacity() < min_capacity_bytes) continue;
    candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int l, int r) {
    return state_[static_cast<std::size_t>(l)].rate_hint >
           state_[static_cast<std::size_t>(r)].rate_hint;
  });

  const std::size_t want = static_cast<std::size_t>(std::max(0, max_slots));
  std::vector<int> granted;
  for (int i : candidates) {
    if (granted.size() < want && !state_[static_cast<std::size_t>(i)].leased) {
      granted.push_back(i);
    }
  }
  if (granted.size() < want) {
    for (int i : candidates) {
      DeviceState& s = state_[static_cast<std::size_t>(i)];
      if (!s.leased) continue;
      ++s.contention;
      s.contention_metric->Add(1);
    }
  }
  for (int i : granted) {
    DeviceState& s = state_[static_cast<std::size_t>(i)];
    s.leased = true;
    ++s.leases;
    s.lease_metric->Add(1);
  }
  return granted;
}

void DevicePool::ReleaseLease(int index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[static_cast<std::size_t>(index)].leased = false;
  }
  released_cv_.notify_all();
}

DevicePool::Slot DevicePool::TryAcquire(std::int64_t min_capacity_bytes) {
  std::vector<Slot> slots = TryAcquireFree(1, min_capacity_bytes);
  return slots.empty() ? Slot() : std::move(slots.front());
}

DevicePool::Slot DevicePool::Acquire(std::int64_t min_capacity_bytes) {
  std::vector<int> granted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Re-checked on every wake: if the last fitting device was marked
    // unhealthy while we waited, blocking further could never succeed.
    while (AnyDeviceFitsLocked(min_capacity_bytes) &&
           (granted = GrantFreeLocked(1, min_capacity_bytes)).empty()) {
      released_cv_.wait(lock);
    }
  }
  return granted.empty() ? Slot() : Slot(this, granted.front());
}

std::vector<DevicePool::Slot> DevicePool::TryAcquireFree(
    int max_slots, std::int64_t min_capacity_bytes) {
  std::vector<int> granted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    granted = GrantFreeLocked(max_slots, min_capacity_bytes);
  }
  std::vector<Slot> slots;
  for (int i : granted) slots.push_back(Slot(this, i));
  return slots;
}

bool DevicePool::AnyDeviceFits(std::int64_t bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return AnyDeviceFitsLocked(bytes);
}

bool DevicePool::AnyDeviceFitsLocked(std::int64_t bytes) const {
  for (int i = 0; i < size(); ++i) {
    if (state_[static_cast<std::size_t>(i)].health != DeviceHealth::kHealthy) {
      continue;
    }
    if (device(i).capacity() >= bytes) return true;
  }
  return false;
}

std::int64_t DevicePool::max_device_capacity() const {
  std::int64_t max_cap = 0;
  for (vgpu::Device* d : devices_) max_cap = std::max(max_cap, d->capacity());
  return max_cap;
}

std::int64_t DevicePool::lease_count(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<std::size_t>(index)].leases;
}

std::int64_t DevicePool::contention_count(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<std::size_t>(index)].contention;
}

std::int64_t DevicePool::lease_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const DeviceState& s : state_) total += s.leases;
  return total;
}

std::int64_t DevicePool::contention_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const DeviceState& s : state_) total += s.contention;
  return total;
}

}  // namespace oocgemm::core
