// Property tests of the consistent-hash ring, the fleet's placement
// function.  All inputs are deterministic (fixed keys, fixed vnode seeds),
// so the statistical bounds below are really regressions: they pass today
// and will pass identically on every machine and every run.
//
// Suites are named Fleet* so the CI TSan job's gtest filter picks them up.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "fleet/ring.hpp"

namespace oocgemm::fleet {
namespace {

constexpr int kKeys = 20000;

std::vector<int> OwnersOf(const ConsistentHashRing& ring, int keys) {
  std::vector<int> owners;
  owners.reserve(static_cast<std::size_t>(keys));
  for (int k = 0; k < keys; ++k) {
    owners.push_back(ring.Owner(static_cast<std::uint64_t>(k)));
  }
  return owners;
}

TEST(FleetRing, UniformKeySpreadChiSquare) {
  constexpr int kShards = 4;
  ConsistentHashRing ring(kShards);
  std::vector<int> counts(kShards, 0);
  for (int owner : OwnersOf(ring, kKeys)) {
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, kShards);
    ++counts[static_cast<std::size_t>(owner)];
  }
  // Two deviation sources: multinomial sampling noise (chi2 ~ df = N-1)
  // and the vnode arc-length variance (relative share std ~ 1/sqrt(V)),
  // which adds ~ kKeys * N / V to the statistic.  Bound at 3x the arc
  // term: 3 * 20000 * 4 / 64 = 3750.  A ring without virtual nodes (V=1)
  // blows through this by an order of magnitude.
  const double expected = static_cast<double>(kKeys) / kShards;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2,
            3.0 * kKeys * kShards / ConsistentHashRing::kVnodesPerShard);
  // And no shard's share is pathological: within [0.5x, 2x] of fair.
  for (int c : counts) {
    EXPECT_GT(c, expected * 0.5);
    EXPECT_LT(c, expected * 2.0);
  }
}

TEST(FleetRing, RemovalRemapsOnlyTheRemovedShardsKeys) {
  constexpr int kShards = 5;
  ConsistentHashRing ring(kShards);
  const std::vector<int> before = OwnersOf(ring, kKeys);
  ring.RemoveShard(2);
  const std::vector<int> after = OwnersOf(ring, kKeys);

  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    if (before[i] == after[i]) continue;
    // Only keys the removed shard owned may move — anyone else's
    // placement surviving untouched is the whole point of the ring.
    EXPECT_EQ(before[i], 2) << "key " << k << " moved from shard "
                            << before[i] << " without cause";
    EXPECT_NE(after[i], 2);
    ++moved;
  }
  // The removed shard owned ~K/N keys; allow 1.5x for arc-length skew.
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, kKeys * 3 / (2 * kShards));
}

TEST(FleetRing, AdditionStealsOnlyForTheNewShard) {
  ConsistentHashRing ring(3);
  const std::vector<int> before = OwnersOf(ring, kKeys);
  ring.AddShard(3);
  const std::vector<int> after = OwnersOf(ring, kKeys);
  for (int k = 0; k < kKeys; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    if (before[i] != after[i]) {
      EXPECT_EQ(after[i], 3);  // every move is a steal by the newcomer
    }
  }
}

TEST(FleetRing, DeterministicAcrossIndependentInstances) {
  // Two rings built separately (as two processes would after a restart)
  // agree on every placement.
  ConsistentHashRing a(4), b(4);
  for (int k = 0; k < 1000; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k) * 2654435761ull;
    EXPECT_EQ(a.Owner(key), b.Owner(key));
    EXPECT_EQ(a.Successors(key, 3), b.Successors(key, 3));
  }
}

TEST(FleetRing, PinnedPlacementsSurviveRestarts) {
  // Hard-coded expected owners: placement is a wire-format-like contract —
  // a process restart (or a rebuild) must keep routing the same operands
  // to the same shards, or every PanelCache in the fleet goes cold.  If
  // this test fails, the hash changed and the change is cache-breaking.
  ConsistentHashRing ring(4);
  const std::map<std::uint64_t, int> pinned = {
      {0ull, 0}, {1ull, 0}, {42ull, 0}, {1000ull, 1},
      {0xDEADBEEFull, 3}, {0xFFFFFFFFFFFFFFFFull, 3},
  };
  for (const auto& [key, shard] : pinned) {
    EXPECT_EQ(ring.Owner(key), shard) << "key " << key;
  }
}

TEST(FleetRing, SuccessorsAreDistinctAndStartAtOwner) {
  ConsistentHashRing ring(4);
  for (int k = 0; k < 200; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k) * 977ull;
    const std::vector<int> succ = ring.Successors(key, 4);
    ASSERT_EQ(succ.size(), 4u);
    EXPECT_EQ(succ[0], ring.Owner(key));
    for (std::size_t i = 0; i < succ.size(); ++i) {
      for (std::size_t j = i + 1; j < succ.size(); ++j) {
        EXPECT_NE(succ[i], succ[j]);
      }
    }
  }
}

TEST(FleetRing, EmptyAndSingleShardEdges) {
  ConsistentHashRing empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Owner(7), -1);
  EXPECT_TRUE(empty.Successors(7, 2).empty());

  ConsistentHashRing one(1);
  EXPECT_EQ(one.shard_count(), 1);
  EXPECT_EQ(one.Owner(7), 0);
  EXPECT_EQ(one.Successors(7, 3), std::vector<int>{0});
}

}  // namespace
}  // namespace oocgemm::fleet
