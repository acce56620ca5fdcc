// Content-stable operand keys: equal content hashes equal regardless of
// where the matrix lives in memory, distinct content separates, and the
// digest is cheap even on large operands (it samples structure).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "fleet/placement.hpp"
#include "test_util.hpp"

namespace oocgemm::fleet {
namespace {

TEST(FleetPlacement, SameContentDifferentAllocationsSameKey) {
  // Two independent generations from the same seed: identical content,
  // different heap buffers — the restart scenario.  The batch former's
  // pointer match (serve::PeelBatchCompanions) would separate these.
  const sparse::Csr m1 = testutil::RandomRmat(7, 6.0, 42);
  const sparse::Csr m2 = testutil::RandomRmat(7, 6.0, 42);
  ASSERT_NE(m1.col_ids().data(), m2.col_ids().data());
  EXPECT_EQ(OperandPlacementKey(m1), OperandPlacementKey(m2));
}

TEST(FleetPlacement, DistinctContentDistinctKeys) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    keys.insert(OperandPlacementKey(testutil::RandomRmat(6, 5.0, seed)));
    keys.insert(
        OperandPlacementKey(testutil::RandomCsr(64, 96, 4.0, seed)));
  }
  EXPECT_EQ(keys.size(), 32u);
}

TEST(FleetPlacement, ShapeAloneSeparates) {
  // Same nnz layout pattern, different declared column count.
  sparse::Csr a(8, 8), b(8, 16);
  EXPECT_NE(OperandPlacementKey(a), OperandPlacementKey(b));
}

TEST(FleetPlacement, StructureChangeChangesKey) {
  sparse::Csr m = testutil::RandomCsr(64, 64, 4.0, 7);
  const std::uint64_t before = OperandPlacementKey(m);
  // Flip one column id: same shape, same nnz, different structure.
  ASSERT_FALSE(m.mutable_col_ids().empty());
  m.mutable_col_ids()[0] =
      m.mutable_col_ids()[0] == 0 ? 1 : m.mutable_col_ids()[0] - 1;
  EXPECT_NE(OperandPlacementKey(m), before);
}

}  // namespace
}  // namespace oocgemm::fleet
