#include "core/device_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace oocgemm::core {
namespace {

struct PoolFixture {
  std::vector<std::unique_ptr<vgpu::Device>> storage;
  std::vector<vgpu::Device*> devices;
  std::unique_ptr<DevicePool> pool;

  /// One device per entry of `mem_mib`, so heterogeneous fleets are a
  /// one-liner.
  explicit PoolFixture(const std::vector<int>& mem_mib) {
    for (int mib : mem_mib) {
      vgpu::DeviceProperties props = vgpu::ScaledV100Properties(10);
      props.memory_bytes = static_cast<std::int64_t>(mib) << 20;
      storage.push_back(std::make_unique<vgpu::Device>(props));
      devices.push_back(storage.back().get());
    }
    pool = std::make_unique<DevicePool>(devices);
  }
};

TEST(DevicePool, TagsDevicesWithTheirIndex) {
  PoolFixture f({1, 1, 1});
  for (int i = 0; i < f.pool->size(); ++i) {
    EXPECT_EQ(f.pool->device(i).id(), i);
  }
}

TEST(DevicePool, FreeDevicesLeaseInRateHintThenIndexOrder) {
  PoolFixture f({1, 1, 1, 1});
  f.pool->set_rate_hint(2, 5e9);
  f.pool->set_rate_hint(3, 1e9);
  // Hints 0 / 0 / 5e9 / 1e9: the faster hinted devices first, then the
  // hintless ones by index.
  std::vector<DevicePool::Slot> held;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    held.push_back(f.pool->TryAcquire());
    ASSERT_TRUE(held.back().held());
    order.push_back(held.back().index());
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1}));
  // Each call skipped the devices already leased and found a free one, so
  // none of them counts as contention.
  EXPECT_EQ(f.pool->lease_count(), 4);
  EXPECT_EQ(f.pool->contention_count(), 0);

  held.clear();
  std::vector<DevicePool::Slot> pair = f.pool->TryAcquireFree(2);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].index(), 2);
  EXPECT_EQ(pair[1].index(), 3);
  EXPECT_EQ(f.pool->contention_count(), 0);
}

TEST(DevicePool, SaturatedDevicesAreSkipped) {
  PoolFixture f({1, 1});
  DevicePool::Slot a = f.pool->TryAcquire();
  DevicePool::Slot b = f.pool->TryAcquire();
  ASSERT_TRUE(a.held() && b.held());
  EXPECT_NE(a.index(), b.index());
  // Every device leased: the pool is saturated.
  DevicePool::Slot c = f.pool->TryAcquire();
  EXPECT_FALSE(c.held());
  a.Release();
  DevicePool::Slot d = f.pool->TryAcquire();
  ASSERT_TRUE(d.held());
  EXPECT_EQ(d.index(), 0);
}

TEST(DevicePool, CapacityFilterKeepsBigJobsOffSmallDevices) {
  PoolFixture f({1, 8, 1});
  const std::int64_t big = 4ll << 20;  // only device 1 (8 MiB) fits this
  EXPECT_TRUE(f.pool->AnyDeviceFits(big));
  EXPECT_FALSE(f.pool->AnyDeviceFits(16ll << 20));
  for (int round = 0; round < 3; ++round) {
    DevicePool::Slot s = f.pool->TryAcquire(big);
    ASSERT_TRUE(s.held());
    EXPECT_EQ(s.index(), 1);
  }
  // With the only fitting device leased, TryAcquire must not fall back to
  // a too-small device, and Acquire must give up instead of waiting for a
  // device that can never fit.
  DevicePool::Slot held = f.pool->TryAcquire(big);
  ASSERT_TRUE(held.held());
  EXPECT_FALSE(f.pool->TryAcquire(big).held());
  EXPECT_FALSE(f.pool->Acquire(16ll << 20).held());
}

TEST(DevicePool, SingleDevicePoolDegeneratesToArbiter) {
  PoolFixture f({1});
  DevicePool::Slot s = f.pool->TryAcquire();
  ASSERT_TRUE(s.held());
  EXPECT_EQ(s.index(), 0);
  EXPECT_FALSE(f.pool->TryAcquire().held());
  EXPECT_EQ(f.pool->lease_count(), 1);
  EXPECT_EQ(f.pool->contention_count(), 1);
  s.Release();
  DevicePool::Slot again = f.pool->Acquire();
  EXPECT_TRUE(again.held());
  EXPECT_EQ(f.pool->max_device_capacity(), f.devices[0]->capacity());
}

TEST(DevicePool, TryAcquireFreeGrabsDistinctFreeDevices) {
  PoolFixture f({1, 1, 1, 1});
  DevicePool::Slot taken = f.pool->TryAcquire();
  ASSERT_TRUE(taken.held());
  std::vector<DevicePool::Slot> extras = f.pool->TryAcquireFree(8);
  EXPECT_EQ(extras.size(), 3u);
  for (const DevicePool::Slot& e : extras) {
    EXPECT_TRUE(e.held());
    EXPECT_NE(e.index(), taken.index());
  }
  // A capped request returns at most the cap.
  for (auto& e : extras) e.Release();
  EXPECT_EQ(f.pool->TryAcquireFree(2).size(), 2u);
}

// Each device's lease state is its arbiter; the pool's totals sum them.
TEST(DevicePool, AggregatesSumTheArbiters) {
  PoolFixture f({1, 1});
  DevicePool::Slot a = f.pool->TryAcquire();
  DevicePool::Slot b = f.pool->TryAcquire();
  ASSERT_TRUE(a.held() && b.held());
  // Both devices leased: the refused call contends once on each.
  EXPECT_FALSE(f.pool->TryAcquire().held());
  a.Release();
  DevicePool::Slot again = f.pool->TryAcquire();
  ASSERT_TRUE(again.held());
  EXPECT_EQ(again.index(), 0);

  EXPECT_EQ(f.pool->lease_count(0), 2);
  EXPECT_EQ(f.pool->lease_count(1), 1);
  EXPECT_EQ(f.pool->contention_count(0), 1);
  EXPECT_EQ(f.pool->contention_count(1), 1);
  EXPECT_EQ(f.pool->lease_count(),
            f.pool->lease_count(0) + f.pool->lease_count(1));
  EXPECT_EQ(f.pool->contention_count(),
            f.pool->contention_count(0) + f.pool->contention_count(1));
}

TEST(DevicePool, AcquireBlocksUntilRelease) {
  PoolFixture f({1});
  DevicePool::Slot held = f.pool->TryAcquire();
  ASSERT_TRUE(held.held());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    DevicePool::Slot s = f.pool->Acquire();
    EXPECT_TRUE(s.held());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(acquired.load());
  held.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// Run under TSan in CI: concurrent Acquire/TryAcquire/Release across many
// threads must never hand the same device to two holders at once.
TEST(DevicePool, ConcurrentAcquireNeverDoubleLeases) {
  PoolFixture f({1, 1, 1});
  std::vector<std::atomic<int>> holders(3);
  for (auto& h : holders) h.store(0);
  std::atomic<int> violations{0};
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        DevicePool::Slot s =
            (t + i) % 2 == 0 ? f.pool->Acquire() : f.pool->TryAcquire();
        if (!s.held()) continue;
        std::atomic<int>& h = holders[static_cast<std::size_t>(s.index())];
        if (h.fetch_add(1) != 0) violations.fetch_add(1);
        std::this_thread::yield();
        h.fetch_sub(1);
        s.Release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  // Everything released: the whole pool is free again.
  EXPECT_EQ(f.pool->TryAcquireFree(3).size(), 3u);
}

}  // namespace
}  // namespace oocgemm::core
