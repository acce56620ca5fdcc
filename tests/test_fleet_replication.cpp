// The hot-operand tracker: EWMA over logical ticks, promotion at the
// threshold, hysteresis on the way down, round-robin replica cursor.
#include <gtest/gtest.h>

#include "fleet/replication.hpp"

namespace oocgemm::fleet {
namespace {

constexpr double kHot = HotOperandTracker::kHotThreshold;
constexpr double kDemoteBelow = kHot * HotOperandTracker::kDemoteMargin;

ReplicationConfig TwoWay() {
  ReplicationConfig c;
  c.replication = 2;
  return c;
}

TEST(FleetReplication, ColdKeyHasFanoutOne) {
  HotOperandTracker t(TwoWay());
  EXPECT_EQ(t.RecordAndFanout(7), 1);
  EXPECT_FALSE(t.IsHot(7));
  EXPECT_EQ(t.tracked_keys(), 1);
}

TEST(FleetReplication, SustainedTrafficPromotes) {
  HotOperandTracker t(TwoWay());
  int fanout = 1;
  for (int i = 0; i < 10; ++i) fanout = t.RecordAndFanout(7);
  // Back-to-back hits with decay 0.95 converge toward 1/(1-0.95) = 20,
  // crossing the 3.0 threshold on the 4th hit.
  EXPECT_EQ(fanout, 2);
  EXPECT_TRUE(t.IsHot(7));
  EXPECT_EQ(t.promotions(), 1);
  EXPECT_EQ(t.demotions(), 0);
}

TEST(FleetReplication, IdleTrafficDecaysAndDemotesWithHysteresis) {
  HotOperandTracker t(TwoWay());
  for (int i = 0; i < 10; ++i) t.RecordAndFanout(7);
  ASSERT_TRUE(t.IsHot(7));
  // A long burst on other keys advances the logical clock; key 7 cools
  // far enough that even the EWMA with this access's credit falls below
  // the demotion margin: 8.03 * 0.95^61 + 1 = 1.35 < 1.5.
  for (int i = 0; i < 60; ++i) t.RecordAndFanout(1000 + i);
  EXPECT_LT(t.EwmaOf(7), kDemoteBelow);  // below the demotion margin...
  EXPECT_TRUE(t.IsHot(7));            // ...but demotion happens on access
  EXPECT_EQ(t.RecordAndFanout(7), 1);
  EXPECT_FALSE(t.IsHot(7));
  EXPECT_EQ(t.demotions(), 1);
}

TEST(FleetReplication, HysteresisHoldsJustBelowThreshold) {
  HotOperandTracker t(TwoWay());
  for (int i = 0; i < 10; ++i) t.RecordAndFanout(7);
  ASSERT_TRUE(t.IsHot(7));
  // A short gap dips the EWMA below 3.0 but not below 1.5: still hot —
  // flapping would re-cool a replica's PanelCache on every dip.
  for (int i = 0; i < 25; ++i) t.RecordAndFanout(2000 + i);
  const double ewma = t.EwmaOf(7);
  ASSERT_LT(ewma, kHot);
  ASSERT_GE(ewma, kDemoteBelow);
  EXPECT_EQ(t.RecordAndFanout(7), 2);
  EXPECT_TRUE(t.IsHot(7));
  EXPECT_EQ(t.demotions(), 0);
}

TEST(FleetReplication, ReplicaCursorRoundRobins) {
  HotOperandTracker t(TwoWay());
  EXPECT_EQ(t.NextReplicaCursor(7) % 2, 0);
  EXPECT_EQ(t.NextReplicaCursor(7) % 2, 1);
  EXPECT_EQ(t.NextReplicaCursor(7) % 2, 0);
  // Independent cursor per key.
  EXPECT_EQ(t.NextReplicaCursor(8) % 2, 0);
}

TEST(FleetReplication, ReplicationOneNeverFansOut) {
  ReplicationConfig c = TwoWay();
  c.replication = 1;
  HotOperandTracker t(c);
  int fanout = 1;
  for (int i = 0; i < 20; ++i) fanout = t.RecordAndFanout(7);
  EXPECT_TRUE(t.IsHot(7));  // tracked as hot...
  EXPECT_EQ(fanout, 1);     // ...but policy says stay home
}

}  // namespace
}  // namespace oocgemm::fleet
