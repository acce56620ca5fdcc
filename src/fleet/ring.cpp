#include "fleet/ring.hpp"

#include <algorithm>

namespace oocgemm::fleet {

std::uint64_t ConsistentHashRing::MixHash(std::uint64_t x) {
  // SplitMix64 finalizer (Steele et al.): a fixed bijective mix, so point
  // placement depends only on the integer inputs.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

ConsistentHashRing::ConsistentHashRing(int num_shards) {
  for (int s = 0; s < num_shards; ++s) AddShard(s);
}

void ConsistentHashRing::AddShard(int shard) {
  if (shard < 0 || Contains(shard)) return;
  points_.reserve(points_.size() + kVnodesPerShard);
  for (int v = 0; v < kVnodesPerShard; ++v) {
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(shard) << 32) |
        static_cast<std::uint64_t>(v);
    points_.push_back(Point{MixHash(seed), shard});
  }
  std::sort(points_.begin(), points_.end());
}

void ConsistentHashRing::RemoveShard(int shard) {
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [shard](const Point& p) {
                                 return p.shard == shard;
                               }),
                points_.end());
}

bool ConsistentHashRing::Contains(int shard) const {
  return std::any_of(points_.begin(), points_.end(),
                     [shard](const Point& p) { return p.shard == shard; });
}

int ConsistentHashRing::shard_count() const {
  std::vector<int> shards;
  for (const Point& p : points_) shards.push_back(p.shard);
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return static_cast<int>(shards.size());
}

int ConsistentHashRing::Owner(std::uint64_t key) const {
  if (points_.empty()) return -1;
  const std::uint64_t h = MixHash(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t hash) { return p.hash < hash; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->shard;
}

std::vector<int> ConsistentHashRing::Successors(std::uint64_t key,
                                                int count) const {
  std::vector<int> out;
  if (points_.empty() || count <= 0) return out;
  const std::uint64_t h = MixHash(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t hash) { return p.hash < hash; });
  for (std::size_t walked = 0;
       walked < points_.size() && out.size() < static_cast<std::size_t>(count);
       ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->shard) == out.end()) {
      out.push_back(it->shard);
    }
  }
  return out;
}

}  // namespace oocgemm::fleet
