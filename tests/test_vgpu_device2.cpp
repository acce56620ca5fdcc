// Second batch of virtual-device tests: cost-after-execution launches,
// timeline reset semantics, event chains and trace accounting details.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/memory_pool.hpp"

namespace oocgemm::vgpu {
namespace {

DeviceProperties SmallProps() {
  DeviceProperties p;
  p.memory_bytes = 1 << 20;
  return p;
}

TEST(LaunchKernelCosted, BodyRunsBeforeCostIsBooked) {
  Device d(SmallProps());
  HostContext host;
  Stream* s = d.CreateStream("t");
  int computed = 0;
  d.LaunchKernelCosted(host, *s, "k", {}, [&]() -> double {
    computed = 7;
    return 2e-3;  // cost decided by what the body computed
  });
  EXPECT_EQ(computed, 7);
  ASSERT_EQ(d.trace().events().size(), 1u);
  EXPECT_NEAR(d.trace().events()[0].interval.duration(), 2e-3, 1e-12);
}

TEST(LaunchKernelCosted, ChainsOnStreamLikeRegularLaunch) {
  Device d(SmallProps());
  HostContext host;
  Stream* s = d.CreateStream("t");
  d.LaunchKernel(host, *s, "first", 1e-3, {}, [] {});
  d.LaunchKernelCosted(host, *s, "second", {}, [] { return 1e-3; });
  const auto& ev = d.trace().events();
  EXPECT_GE(ev[1].interval.start, ev[0].interval.end);
}

TEST(LaunchKernelCostedDeath, NegativeCostAborts) {
  Device d(SmallProps());
  HostContext host;
  Stream* s = d.CreateStream("t");
  EXPECT_DEATH(
      d.LaunchKernelCosted(host, *s, "bad", {}, [] { return -1.0; }),
      "OOC_CHECK");
}

// Device memory costs host memory only where it is written: constructing a
// large device leaves its arena unbacked, yet every byte reads zero.
TEST(Device, ArenaPagesAreBackedOnlyOnceWritten) {
  DeviceProperties p;
  p.memory_bytes = 64ll << 20;
  Device d(p);
  HostContext host;
  auto whole = d.Malloc(host, p.memory_bytes);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  std::byte* base = d.Raw(whole.value());
  base[12345] = std::byte{7};

  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  auto* first = reinterpret_cast<std::byte*>(
      reinterpret_cast<std::uintptr_t>(base) & ~(page - 1));
  const std::size_t length =
      static_cast<std::size_t>(base + p.memory_bytes - first);
  std::vector<unsigned char> resident((length + page - 1) / page);
  ASSERT_EQ(mincore(first, length, resident.data()), 0);
  std::size_t resident_pages = 0;
  for (unsigned char r : resident) resident_pages += r & 1;
  EXPECT_LT(resident_pages * page, std::size_t{8} << 20)
      << resident_pages << " of " << resident.size() << " pages backed";

  EXPECT_EQ(base[12345], std::byte{7});
  for (std::int64_t offset : {std::int64_t{0}, std::int64_t{4096},
                              p.memory_bytes / 2, p.memory_bytes - 1}) {
    EXPECT_EQ(base[offset], std::byte{0}) << "offset " << offset;
  }
  d.Free(host, whole.value());
}

TEST(Device, EventChainAcrossThreeStreams) {
  Device d(SmallProps());
  HostContext host;
  Stream* s1 = d.CreateStream("a");
  Stream* s2 = d.CreateStream("b");
  Stream* s3 = d.CreateStream("c");
  d.LaunchKernel(host, *s1, "k1", 3e-3, {}, [] {});
  d.StreamWaitEvent(*s2, d.RecordEvent(*s1));
  d.LaunchKernel(host, *s2, "k2", 2e-3, {}, [] {});
  d.StreamWaitEvent(*s3, d.RecordEvent(*s2));
  d.LaunchKernel(host, *s3, "k3", 1e-3, {}, [] {});
  const auto& ev = d.trace().events();
  EXPECT_GE(ev[1].interval.start, ev[0].interval.end);
  EXPECT_GE(ev[2].interval.start, ev[1].interval.end);
  // Total = the three kernel durations plus a few host launch overheads.
  EXPECT_GE(ev[2].interval.end, 6e-3);
  EXPECT_LE(ev[2].interval.end,
            6e-3 + 5 * d.properties().kernel_launch_overhead);
}

TEST(Device, ResetTimelineKeepsAllocations) {
  Device d(SmallProps());
  HostContext host;
  auto p = d.Malloc(host, 4096);
  ASSERT_TRUE(p.ok());
  const auto used = d.used_bytes();
  d.ResetTimeline();
  EXPECT_EQ(d.used_bytes(), used);       // memory survives
  EXPECT_EQ(d.QuiesceTime(), 0.0);       // time does not
  // The arena contents survive too.
  d.As<int>(p.value())[0] = 123;
  d.ResetTimeline();
  EXPECT_EQ(d.As<int>(p.value())[0], 123);
}

TEST(Device, ResetTimelineClearsHazardHistory) {
  Device d(SmallProps());
  HostContext host;
  Stream* s1 = d.CreateStream("a");
  Stream* s2 = d.CreateStream("b");
  auto p = d.Malloc(host, 4096);
  ASSERT_TRUE(p.ok());
  std::vector<char> buf(4096);
  d.LaunchKernel(host, *s1, "w", 5e-3, {{p->offset, 4096, true}}, [] {});
  d.MemcpyD2HAsync(host, *s2, buf.data(), p.value(), 4096, "racy");
  ASSERT_FALSE(d.hazard_violations().empty());
  d.ResetTimeline();
  EXPECT_TRUE(d.hazard_violations().empty());
}

TEST(Device, ZeroByteTransferStillPaysLatency) {
  Device d(SmallProps());
  HostContext host;
  Stream* s = d.CreateStream("t");
  auto p = d.Malloc(host, 256);
  ASSERT_TRUE(p.ok());
  d.MemcpyH2DAsync(host, *s, p.value(), nullptr, 0, "empty");
  ASSERT_EQ(d.trace().events().size(), 2u);  // alloc + h2d
  EXPECT_NEAR(d.trace().events()[1].interval.duration(),
              d.properties().transfer_latency, 1e-12);
}

TEST(Device, KernelLaunchOverheadAccumulatesOnHost) {
  Device d(SmallProps());
  HostContext host;
  Stream* s = d.CreateStream("t");
  for (int i = 0; i < 10; ++i) {
    d.LaunchKernel(host, *s, "k", 1e-6, {}, [] {});
  }
  EXPECT_NEAR(host.now, 10 * d.properties().kernel_launch_overhead, 1e-12);
}

TEST(MemoryPool, SurvivesTimelineReset) {
  Device d(SmallProps());
  HostContext host;
  MemoryPool pool(d, host, 1 << 16);
  auto a = pool.Allocate(1000);
  ASSERT_TRUE(a.ok());
  d.ResetTimeline();
  auto b = pool.Allocate(1000);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->offset, b->offset);
}

}  // namespace
}  // namespace oocgemm::vgpu
