// A fleet of virtual GPUs behind one exclusive-lease facade.
//
// The virtual device is not thread-safe (its trace, allocator and timeline
// are plain state) and every executor resets the timeline on entry, so two
// jobs must never run on one device at once.  The pool hands out exclusive
// leases (Slots), one holder per device; CPU-only work bypasses it.  The
// lease is the only device-memory ledger: a device is leased only to a
// caller whose working set fits its capacity, and the panel plan already
// sizes every buffer of a run under that capacity, so a lease holder owns
// all of the device memory it can need.
//
// Placement policy: candidates are the healthy devices whose *capacity*
// holds the caller's working set (a job must never land on a device it
// cannot fit), ordered by the calibrator's rate hint (faster first), ties
// by index.  TryAcquire takes the first free candidate; Acquire blocks
// until some candidate frees up.  TryAcquireFree grabs every currently-free
// candidate (up to a cap) for jobs that can span devices via
// core::MultiGpuHybrid.
//
// Devices are tagged with their pool index (vgpu::Device::set_id) so their
// traces stay attributable after export.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "vgpu/device.hpp"

namespace oocgemm::core {

class DevicePool {
 public:
  /// The pool does not own the devices; it tags each with its index.
  explicit DevicePool(std::vector<vgpu::Device*> devices);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  int size() const { return static_cast<int>(devices_.size()); }
  vgpu::Device& device(int index) const { return *devices_[static_cast<std::size_t>(index)]; }

  /// An exclusive lease on one pool device, plus which device it is.
  /// Releasing (or destroying) the slot wakes blocked Acquire callers.
  class Slot {
   public:
    Slot() = default;
    Slot(Slot&& other) noexcept { *this = std::move(other); }
    Slot& operator=(Slot&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = std::exchange(other.pool_, nullptr);
        index_ = std::exchange(other.index_, -1);
      }
      return *this;
    }
    ~Slot() { Release(); }

    bool held() const { return pool_ != nullptr; }
    int index() const { return index_; }
    vgpu::Device& device() const { return pool_->device(index_); }

    void Release() {
      if (pool_ != nullptr) pool_->ReleaseLease(index_);
      pool_ = nullptr;
      index_ = -1;
    }

   private:
    friend class DevicePool;
    Slot(DevicePool* pool, int index) : pool_(pool), index_(index) {}

    DevicePool* pool_ = nullptr;
    int index_ = -1;
  };

  /// Non-blocking: the first free candidate whose capacity is at least
  /// `min_capacity_bytes`; empty when every candidate is leased (or none is
  /// large enough).
  Slot TryAcquire(std::int64_t min_capacity_bytes = 0);

  /// Blocking variant.  Returns an empty slot *immediately* when no healthy
  /// pool device is large enough — waiting could never succeed.
  Slot Acquire(std::int64_t min_capacity_bytes = 0);

  /// Grabs up to `max_slots` currently-free candidates, in candidate order,
  /// without blocking (possibly none).  For multi-chunk jobs that can span
  /// devices: opportunistic, never steals from queued neighbours by waiting.
  std::vector<Slot> TryAcquireFree(int max_slots,
                                   std::int64_t min_capacity_bytes = 0);

  /// True when some *healthy* device's capacity is at least `bytes`.
  bool AnyDeviceFits(std::int64_t bytes) const;

  // --- health ----------------------------------------------------------------

  enum class DeviceHealth { kHealthy = 0, kUnhealthy };

  DeviceHealth health(int index) const;

  /// Takes a device out of placement — e.g. after its sticky status turned
  /// into a device-lost error.  In-flight leases keep draining (the holder
  /// notices failure via vgpu::Device::health()); no new lease is granted
  /// until Revive.  Wakes blocked Acquire callers so they re-plan onto
  /// surviving devices instead of waiting for a corpse.
  void MarkUnhealthy(int index);

  /// Returns a drained device to service, clearing its sticky fault state
  /// (vgpu::Device::Revive) — the maintenance path after a repair.
  void Revive(int index);

  int healthy_count() const;

  // --- calibration hints -----------------------------------------------------

  /// Fitted effective flop rate of a device (flops/s), pushed by the
  /// cost-model calibrator in apply mode.  Candidates are ordered by the
  /// hint (faster device first), so placement steers away from degraded
  /// devices.  0 (the default) = no information; all-zero hints order
  /// candidates by index.
  void set_rate_hint(int index, double flops_per_second);
  double rate_hint(int index) const;

  // --- accounting ------------------------------------------------------------

  std::int64_t max_device_capacity() const;
  /// Leases granted, and acquisitions that found a candidate leased and no
  /// free candidate to serve them (counted once per busy candidate).  Each
  /// is mirrored into the default obs registry as
  /// oocgemm_core_lease_{acquires,contention}{device=<index>}.
  std::int64_t lease_count(int index) const;
  std::int64_t contention_count(int index) const;
  /// Sums over the pool's devices.
  std::int64_t lease_count() const;
  std::int64_t contention_count() const;

 private:
  struct DeviceState {
    bool leased = false;
    DeviceHealth health = DeviceHealth::kHealthy;
    double rate_hint = 0.0;
    std::int64_t leases = 0;
    std::int64_t contention = 0;
    obs::Counter* lease_metric = nullptr;
    obs::Counter* contention_metric = nullptr;
  };

  void ReleaseLease(int index);
  bool AnyDeviceFitsLocked(std::int64_t bytes) const;
  /// Leases up to `max_slots` free candidates and returns their indices.
  /// When fewer than `max_slots` are free, every leased candidate counts
  /// one contention.  Slots are built from the indices after the mutex is
  /// released: Slot::Release takes it.
  std::vector<int> GrantFreeLocked(int max_slots,
                                   std::int64_t min_capacity_bytes);

  std::vector<vgpu::Device*> devices_;

  mutable std::mutex mutex_;
  std::vector<DeviceState> state_;  // guarded by mutex_
  // Wakes blocked Acquire callers on release, MarkUnhealthy and Revive.
  std::condition_variable released_cv_;
};

}  // namespace oocgemm::core
