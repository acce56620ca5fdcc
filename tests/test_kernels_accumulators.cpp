#include "kernels/accumulators.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace oocgemm::kernels {
namespace {

template <typename Acc>
std::map<index_t, value_t> Extract(Acc& acc) {
  std::vector<index_t> cols(static_cast<std::size_t>(acc.size()));
  std::vector<value_t> vals(static_cast<std::size_t>(acc.size()));
  acc.ExtractSorted(cols.data(), vals.data());
  std::map<index_t, value_t> m;
  for (std::size_t i = 0; i < cols.size(); ++i) m[cols[i]] = vals[i];
  return m;
}

template <typename T>
class AccumulatorTest : public ::testing::Test {};

using AccumulatorTypes = ::testing::Types<HashAccumulator, DenseAccumulator,
                                          SortMergeAccumulator,
                                          RowMergeAccumulator>;
TYPED_TEST_SUITE(AccumulatorTest, AccumulatorTypes);

template <typename Acc>
void Prepare(Acc& acc, index_t cols_or_entries);

template <>
void Prepare(HashAccumulator& acc, index_t entries) {
  acc.Reserve(entries);
}
template <>
void Prepare(DenseAccumulator& acc, index_t cols) {
  acc.Reserve(cols);
}
template <>
void Prepare(SortMergeAccumulator& acc, index_t entries) {
  acc.Reserve(entries);
}
template <>
void Prepare(RowMergeAccumulator& acc, index_t entries) {
  acc.Reserve(entries);
}

TYPED_TEST(AccumulatorTest, StartsEmpty) {
  TypeParam acc;
  Prepare(acc, 64);
  EXPECT_EQ(acc.size(), 0);
}

TYPED_TEST(AccumulatorTest, AccumulatesCollisions) {
  TypeParam acc;
  Prepare(acc, 64);
  acc.Add(5, 1.0);
  acc.Add(5, 2.5);
  acc.Add(3, 1.0);
  EXPECT_EQ(acc.size(), 2);
  auto m = Extract(acc);
  EXPECT_DOUBLE_EQ(m[5], 3.5);
  EXPECT_DOUBLE_EQ(m[3], 1.0);
}

TYPED_TEST(AccumulatorTest, ExtractIsSortedByColumn) {
  TypeParam acc;
  Prepare(acc, 64);
  for (index_t c : {50, 3, 27, 9, 41}) acc.Add(c, 1.0);
  std::vector<index_t> cols(5);
  std::vector<value_t> vals(5);
  acc.ExtractSorted(cols.data(), vals.data());
  EXPECT_EQ(cols, (std::vector<index_t>{3, 9, 27, 41, 50}));
}

TYPED_TEST(AccumulatorTest, ClearForgetsEntries) {
  TypeParam acc;
  Prepare(acc, 64);
  acc.Add(1, 1.0);
  acc.Add(2, 2.0);
  acc.Clear();
  EXPECT_EQ(acc.size(), 0);
  acc.Add(1, 5.0);
  auto m = Extract(acc);
  EXPECT_DOUBLE_EQ(m[1], 5.0);  // previous 1.0 must not leak through
}

TYPED_TEST(AccumulatorTest, SymbolicCountsDistinct) {
  TypeParam acc;
  Prepare(acc, 64);
  for (index_t c : {7, 7, 2, 7, 2, 9}) acc.AddSymbolic(c);
  EXPECT_EQ(acc.size(), 3);
}

TYPED_TEST(AccumulatorTest, ManyRowsReusedMatchesMap) {
  TypeParam acc;
  Prepare(acc, 500);
  Pcg32 rng(77);
  for (int row = 0; row < 200; ++row) {
    acc.Clear();
    std::map<index_t, value_t> expected;
    const int inserts = 1 + static_cast<int>(rng.Below(60));
    for (int i = 0; i < inserts; ++i) {
      const index_t c = static_cast<index_t>(rng.Below(500));
      const value_t v = rng.Uniform(-1, 1);
      acc.Add(c, v);
      expected[c] += v;
    }
    ASSERT_EQ(acc.size(), static_cast<std::int64_t>(expected.size()));
    auto got = Extract(acc);
    for (const auto& [c, v] : expected) {
      ASSERT_NEAR(got[c], v, 1e-12);
    }
  }
}

TYPED_TEST(AccumulatorTest, AddRunMatchesSingleInserts) {
  TypeParam run_acc, single_acc;
  Prepare(run_acc, 64);
  Prepare(single_acc, 64);
  // Two sorted runs with overlap (the shape the numeric phase feeds).
  const index_t run_a[] = {2, 5, 9, 30};
  const value_t val_a[] = {1.0, 2.0, 3.0, 4.0};
  const index_t run_b[] = {5, 9, 12};
  const value_t val_b[] = {0.5, 0.25, 8.0};
  run_acc.AddRun(run_a, val_a, 4, 2.0);
  run_acc.AddRun(run_b, val_b, 3, -1.0);
  for (int i = 0; i < 4; ++i) single_acc.Add(run_a[i], 2.0 * val_a[i]);
  for (int i = 0; i < 3; ++i) single_acc.Add(run_b[i], -1.0 * val_b[i]);
  ASSERT_EQ(run_acc.size(), single_acc.size());
  auto got = Extract(run_acc);
  for (const auto& [c, v] : Extract(single_acc)) {
    ASSERT_NEAR(got[c], v, 1e-12) << "col " << c;
  }
}

TYPED_TEST(AccumulatorTest, SymbolicRunsCountDistinct) {
  TypeParam acc;
  Prepare(acc, 64);
  const index_t run_a[] = {1, 4, 7};
  const index_t run_b[] = {4, 7, 11, 13};
  acc.AddRunSymbolic(run_a, 3);
  acc.AddRunSymbolic(run_b, 4);
  EXPECT_EQ(acc.size(), 5);
}

TYPED_TEST(AccumulatorTest, ReusableAfterExtraction) {
  // size()/ExtractSorted finalize the lazy strategies; the accumulator must
  // still accept inserts afterwards (kernel launches interleave freely).
  TypeParam acc;
  Prepare(acc, 16);
  acc.Add(9, 1.0);
  EXPECT_EQ(acc.size(), 1);
  acc.Add(9, 1.0);
  acc.Add(2, 4.0);
  auto m = Extract(acc);
  EXPECT_DOUBLE_EQ(m[9], 2.0);
  EXPECT_DOUBLE_EQ(m[2], 4.0);
}

TEST(HashAccumulator, GrowsBeyondInitialReserve) {
  HashAccumulator acc;
  acc.Reserve(4);
  for (index_t c = 0; c < 1000; ++c) acc.Add(c, 1.0);
  EXPECT_EQ(acc.size(), 1000);
  std::vector<index_t> cols(1000);
  std::vector<value_t> vals(1000);
  acc.ExtractSorted(cols.data(), vals.data());
  for (index_t c = 0; c < 1000; ++c) EXPECT_EQ(cols[static_cast<std::size_t>(c)], c);
}

TEST(HashAccumulator, WorksWithoutReserve) {
  HashAccumulator acc;
  acc.Add(3, 1.0);
  acc.Add(1, 2.0);
  EXPECT_EQ(acc.size(), 2);
}

TEST(HashAccumulator, AdversarialKeysSameBucket) {
  // Keys differing only in high bits stress linear probing.
  HashAccumulator acc;
  acc.Reserve(16);
  for (int i = 0; i < 64; ++i) acc.Add(static_cast<index_t>(i << 20), 1.0);
  EXPECT_EQ(acc.size(), 64);
}

TEST(HashAccumulator, CraftedKeysNoMiddleBitsPathology) {
  // Regression for the Grow/FindSlot rehash pathology: the slot map used to
  // be `(col * phi >> 32) & mask` — a fixed middle-bit window of the
  // Fibonacci product.  Key families that coincide on that window all
  // landed in one slot, so inserts degenerated into an O(n^2) linear-probe
  // crawl (and every Grow re-inserted the same pile-up).  Craft exactly
  // such a family against a capacity-512 table and assert probing stays
  // near one step per operation under the fixed top-bits map.
  constexpr std::int64_t kCapacity = 512;
  constexpr int kKeys = 256;
  std::vector<index_t> crafted;
  for (index_t col = 1; static_cast<int>(crafted.size()) < kKeys; ++col) {
    const std::uint64_t h =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(col)) *
        0x9e3779b97f4a7c15ull;
    if (((h >> 32) & (kCapacity - 1)) == 0) crafted.push_back(col);
  }
  HashAccumulator acc;
  acc.Reserve(kKeys);  // load factor .5 => capacity 512, no growth below
  ASSERT_EQ(acc.capacity(), kCapacity);
  for (index_t col : crafted) acc.Add(col, 1.0);
  EXPECT_EQ(acc.size(), kKeys);
  // Load-factor invariant: the table never runs past half full.
  EXPECT_LE(acc.size() * 2, acc.capacity());
  // The old map would need ~n^2/2 = 32768 probe steps for this family; the
  // top-bits map spreads it like any other key set.
  EXPECT_LT(acc.total_probes(), 8 * kKeys);
  // And the values must still be correct, growth included.
  for (index_t col : crafted) acc.Add(col, 0.5);
  auto m = Extract(acc);
  for (index_t col : crafted) ASSERT_DOUBLE_EQ(m[col], 1.5);
}

TEST(HashAccumulator, LoadFactorInvariantAcrossGrowth) {
  HashAccumulator acc;  // no Reserve: every doubling path is exercised
  Pcg32 rng(1234);
  for (int i = 0; i < 5000; ++i) {
    acc.Add(static_cast<index_t>(rng.NextU32() >> 4), 1.0);
    ASSERT_LE(acc.size() * 2, acc.capacity());
  }
  // Randomized keys must also stay near one probe per FindSlot on average.
  EXPECT_LT(acc.total_probes(), 16 * 5000);
}

TEST(RowMergeAccumulator, MergesOverlappingSortedRuns) {
  RowMergeAccumulator acc;
  acc.Reserve(16);
  const index_t run_a[] = {1, 5, 9};
  const value_t val_a[] = {1.0, 1.0, 1.0};
  const index_t run_b[] = {1, 9, 20};
  const value_t val_b[] = {2.0, 2.0, 2.0};
  const index_t run_c[] = {5, 20};
  const value_t val_c[] = {4.0, 4.0};
  acc.AddRun(run_a, val_a, 3, 1.0);
  acc.AddRun(run_b, val_b, 3, 1.0);
  acc.AddRun(run_c, val_c, 2, 1.0);  // odd run out in the first round
  EXPECT_EQ(acc.size(), 4);
  auto m = Extract(acc);
  EXPECT_DOUBLE_EQ(m[1], 3.0);
  EXPECT_DOUBLE_EQ(m[5], 5.0);
  EXPECT_DOUBLE_EQ(m[9], 3.0);
  EXPECT_DOUBLE_EQ(m[20], 6.0);
}

TEST(RowMergeAccumulator, ManyRandomRunsMatchMap) {
  RowMergeAccumulator acc;
  Pcg32 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    acc.Clear();
    std::map<index_t, value_t> expected;
    const int runs = 1 + static_cast<int>(rng.Below(17));  // hits odd counts
    for (int r = 0; r < runs; ++r) {
      std::vector<index_t> cols;
      std::vector<value_t> vals;
      index_t c = static_cast<index_t>(rng.Below(8));
      const int len = static_cast<int>(rng.Below(20));
      for (int i = 0; i < len; ++i) {
        cols.push_back(c);
        vals.push_back(rng.Uniform(0.1, 1.0));
        c += static_cast<index_t>(1 + rng.Below(6));  // ascending run
      }
      const value_t scale = rng.Uniform(0.5, 2.0);
      acc.AddRun(cols.data(), vals.data(), static_cast<offset_t>(cols.size()),
                 scale);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        expected[cols[i]] += scale * vals[i];
      }
    }
    ASSERT_EQ(acc.size(), static_cast<std::int64_t>(expected.size()));
    auto got = Extract(acc);
    for (const auto& [col, v] : expected) ASSERT_NEAR(got[col], v, 1e-12);
  }
}

TEST(SortMergeAccumulator, FoldsDuplicateHeavyInput) {
  SortMergeAccumulator acc;
  acc.Reserve(1024);
  for (int rep = 0; rep < 128; ++rep) {
    for (index_t c : {3, 1, 4, 1, 5}) acc.Add(c, 1.0);
  }
  EXPECT_EQ(acc.size(), 4);  // {1, 3, 4, 5}
  auto m = Extract(acc);
  EXPECT_DOUBLE_EQ(m[1], 256.0);
  EXPECT_DOUBLE_EQ(m[3], 128.0);
}

TEST(DenseAccumulator, GenerationWrapIsSafe) {
  DenseAccumulator acc;
  acc.Reserve(8);
  // Clear enough times to approach wrap quickly is impractical for a
  // uint32 generation; instead verify many clears keep correctness.
  for (int i = 0; i < 10000; ++i) {
    acc.Clear();
    acc.Add(static_cast<index_t>(i % 8), 1.0);
    ASSERT_EQ(acc.size(), 1);
  }
}

TEST(DenseAccumulator, ReserveGrowsMonotonically) {
  DenseAccumulator acc;
  acc.Reserve(4);
  acc.Add(3, 1.0);
  acc.Clear();
  acc.Reserve(16);  // bigger panel later
  acc.Add(15, 2.0);
  EXPECT_EQ(acc.size(), 1);
}

}  // namespace
}  // namespace oocgemm::kernels
