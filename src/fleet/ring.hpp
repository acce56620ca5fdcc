// Consistent-hash ring with virtual nodes: the fleet's placement function.
//
// Each shard owns kVnodesPerShard points on a 64-bit ring; a key is
// owned by the shard of the first point clockwise from the key's hash.
// Virtual nodes smooth the per-shard arc length, so keys spread nearly
// uniformly (chi-square-tested in test_fleet_ring.cpp), and removing a
// shard only remaps the keys that shard owned (~K/N of them) — the two
// properties that make the ring the right placement function for operand
// affinity: repeat jobs on the same B land on the same shard's PanelCache,
// and a shard loss does not reshuffle the whole fleet's cached operands.
//
// Point hashes are derived purely from (shard index, vnode index) through a
// fixed integer mix, never from pointers or process state, so placement is
// deterministic across process restarts.
#pragma once

#include <cstdint>
#include <vector>

namespace oocgemm::fleet {

class ConsistentHashRing {
 public:
  static constexpr int kVnodesPerShard = 64;

  /// A ring with shards 0..num_shards-1 already added.
  explicit ConsistentHashRing(int num_shards = 0);

  /// Idempotent; shard indices are small non-negative ints.
  void AddShard(int shard);
  /// Removes the shard's points; keys it owned move to their successors,
  /// everyone else's placement is untouched.
  void RemoveShard(int shard);
  bool Contains(int shard) const;

  bool empty() const { return points_.empty(); }
  int shard_count() const;

  /// The shard owning `key`: the first ring point clockwise from
  /// MixHash(key).  -1 on an empty ring.
  int Owner(std::uint64_t key) const;

  /// Up to `count` *distinct* shards in ring order starting at the owner —
  /// the replica set of a hot operand and the failover order after a shard
  /// loss.  Fewer than `count` entries when the ring has fewer shards.
  std::vector<int> Successors(std::uint64_t key, int count) const;

  /// SplitMix64 finalizer: the ring's point hash and key hash.
  static std::uint64_t MixHash(std::uint64_t x);

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
    bool operator<(const Point& o) const {
      return hash != o.hash ? hash < o.hash : shard < o.shard;
    }
  };

  std::vector<Point> points_;  // sorted by hash
};

}  // namespace oocgemm::fleet
