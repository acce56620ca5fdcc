// Golden pin of the six executor entry points: one fixed input on one fixed
// device, with the virtual makespan, the chunk counts and the transferred
// bytes of each path recorded as exact literals.  Virtual time is
// deterministic, so any change to the order, size or cost of a device
// operation — a reordered free, a skipped empty copy, a missing workspace
// teardown — moves at least one of these numbers.  Refactors of the
// executors must keep every value bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/chunk_sink.hpp"
#include "core/executors.hpp"
#include "core/multi_gpu.hpp"
#include "sparse/generators.hpp"

namespace oocgemm::core {
namespace {

struct Golden {
  const char* path;
  double total_seconds;
  int num_chunks;
  int num_gpu_chunks;
  std::int64_t bytes_h2d;
  std::int64_t bytes_d2h;
};

// Banded n = 3072, half bandwidth 32, on a 4 MiB scaled V100: two or more
// column panels, so about half of the chunks produce no entries.
constexpr Golden kGolden[] = {
    {"sync", 0.0095172378120572283, 22, 22, 4890136, 4803840},
    {"async", 0.0088977762443854073, 36, 36, 7031364, 4803840},
    {"cpu", 0.013397225362912579, 1, 0, 0, 0},
    {"hybrid", 0.0059953650977798475, 36, 13, 4188076, 3436172},
    {"streamed", 0.0088977762443854073, 36, 36, 7031364, 4803840},
    // A run over several devices carries no engine times in its combined
    // stats; its bytes are the sums over the per-device stats.
    {"multigpu2", 0.0041773930991531151, 36, 15, 6889812, 3964804},
};

void ExpectGolden(const Golden& want, double total_seconds, int num_chunks,
                  int num_gpu_chunks, std::int64_t bytes_h2d,
                  std::int64_t bytes_d2h) {
  SCOPED_TRACE(want.path);
  EXPECT_EQ(total_seconds, want.total_seconds);
  EXPECT_EQ(num_chunks, want.num_chunks);
  EXPECT_EQ(num_gpu_chunks, want.num_gpu_chunks);
  EXPECT_EQ(bytes_h2d, want.bytes_h2d);
  EXPECT_EQ(bytes_d2h, want.bytes_d2h);
}

void ExpectGolden(const Golden& want, const RunStats& s) {
  ExpectGolden(want, s.total_seconds, s.num_chunks, s.num_gpu_chunks,
               s.bytes_h2d, s.bytes_d2h);
}

TEST(ExecutorGolden, SixEntryPointsBitExact) {
  sparse::BandedParams params;
  params.n = 3072;
  params.half_bandwidth = 32;
  const sparse::Csr a = sparse::GenerateBanded(params);
  ThreadPool pool(2);
  const ExecutorOptions options;
  vgpu::Device d0(vgpu::ScaledV100Properties(12));
  vgpu::Device d1(vgpu::ScaledV100Properties(12));

  auto sync = SyncOutOfCore(d0, a, a, options, pool);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  ExpectGolden(kGolden[0], sync->stats);

  auto async = AsyncOutOfCore(d0, a, a, options, pool);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ExpectGolden(kGolden[1], async->stats);

  auto cpu = CpuMulticore(a, a, options, pool);
  ASSERT_TRUE(cpu.ok()) << cpu.status().ToString();
  ExpectGolden(kGolden[2], cpu->stats);

  auto hybrid = Hybrid(d0, a, a, options, pool);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  ExpectGolden(kGolden[3], hybrid->stats);

  MemoryChunkSink sink;
  auto streamed = AsyncOutOfCoreStreamed(d0, a, a, options, pool, sink);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectGolden(kGolden[4], streamed->stats);

  auto multi = MultiGpuHybrid({&d0, &d1}, a, a, options, pool);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  std::int64_t h2d = 0, d2h = 0;
  for (const RunStats& per : multi->stats.per_device) {
    h2d += per.bytes_h2d;
    d2h += per.bytes_d2h;
  }
  const RunStats& combined = multi->stats.combined;
  ExpectGolden(kGolden[5], combined.total_seconds, combined.num_chunks,
               combined.num_gpu_chunks, h2d, d2h);
}

}  // namespace
}  // namespace oocgemm::core
