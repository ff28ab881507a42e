// Unit tests of the simulator's building blocks: ActionSpace, the matching
// engine, station queues and the trace log.

#include <gtest/gtest.h>

#include "fairmove/geo/city_builder.h"
#include "fairmove/sim/action.h"
#include "fairmove/sim/matching.h"
#include "fairmove/sim/station_queue.h"
#include "fairmove/sim/trace.h"

namespace fairmove {
namespace {

class ActionSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto city_or = CityBuilder(CityConfig{}.Scaled(0.1)).Build();
    ASSERT_TRUE(city_or.ok());
    city_ = std::make_unique<City>(std::move(city_or).value());
    space_ = std::make_unique<ActionSpace>(city_.get());
  }
  std::unique_ptr<City> city_;
  std::unique_ptr<ActionSpace> space_;
};

TEST_F(ActionSpaceTest, LayoutMatchesCityGeometry) {
  EXPECT_EQ(space_->size(),
            1 + city_->max_neighbors() +
                std::min(City::kNearestStations, city_->num_stations()));
  EXPECT_EQ(space_->stay_index(), 0);
  EXPECT_EQ(space_->first_move_index(), 1);
  EXPECT_EQ(space_->first_charge_index(), 1 + city_->max_neighbors());
}

TEST_F(ActionSpaceTest, StayAlwaysValidUnlessForcedToCharge) {
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    EXPECT_TRUE(space_->IsValid(r, 0, false, false));
    EXPECT_FALSE(space_->IsValid(r, 0, true, true));
  }
}

TEST_F(ActionSpaceTest, MoveSlotsValidExactlyForExistingNeighbors) {
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    const int n = static_cast<int>(city_->Neighbors(r).size());
    for (int i = 0; i < city_->max_neighbors(); ++i) {
      EXPECT_EQ(space_->IsValid(r, space_->first_move_index() + i, false,
                                false),
                i < n)
          << "region " << r << " slot " << i;
    }
  }
}

TEST_F(ActionSpaceTest, ChargeRequiresMayOrMustFlag) {
  const RegionId r = 0;
  const int charge0 = space_->first_charge_index();
  EXPECT_FALSE(space_->IsValid(r, charge0, false, false));
  EXPECT_TRUE(space_->IsValid(r, charge0, false, true));
  EXPECT_TRUE(space_->IsValid(r, charge0, true, true));
}

TEST_F(ActionSpaceTest, MustChargeMasksEverythingButStations) {
  std::vector<bool> mask;
  space_->Mask(0, /*must=*/true, /*may=*/true, &mask);
  for (int i = 0; i < space_->first_charge_index(); ++i) {
    EXPECT_FALSE(mask[static_cast<size_t>(i)]);
  }
  int valid = 0;
  for (bool b : mask) valid += b ? 1 : 0;
  EXPECT_EQ(valid, static_cast<int>(city_->NearestStations(0).size()));
}

TEST_F(ActionSpaceTest, MaterializeIndexOfRoundTrip) {
  // Property: every valid index materialises to an action that maps back to
  // the same index, in every region.
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    std::vector<bool> mask;
    space_->Mask(r, false, true, &mask);
    for (int i = 0; i < space_->size(); ++i) {
      if (!mask[static_cast<size_t>(i)]) continue;
      const Action a = space_->Materialize(r, i);
      EXPECT_EQ(space_->IndexOf(r, a), i) << "region " << r << " idx " << i;
    }
  }
}

TEST_F(ActionSpaceTest, IndexOfUnknownTargetsIsMinusOne) {
  // A station that is not among the nearest five of region 0.
  const auto& near = city_->NearestStations(0);
  for (StationId s = 0; s < city_->num_stations(); ++s) {
    if (std::find(near.begin(), near.end(), s) == near.end()) {
      EXPECT_EQ(space_->IndexOf(0, Action::Charge(s)), -1);
      break;
    }
  }
  // A region that is not adjacent to region 0.
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    const auto& nbrs = city_->Neighbors(0);
    if (r != 0 && std::find(nbrs.begin(), nbrs.end(), r) == nbrs.end()) {
      EXPECT_EQ(space_->IndexOf(0, Action::Move(r)), -1);
      break;
    }
  }
}

TEST(ActionTest, ToStringIsReadable) {
  EXPECT_EQ(Action::Stay().ToString(), "stay");
  EXPECT_EQ(Action::Move(7).ToString(), "move->7");
  EXPECT_EQ(Action::Charge(3).ToString(), "charge@3");
}

// --------------------------------------------------------- MatchingEngine --

TEST(MatchingEngineTest, FifoPerRegion) {
  MatchingEngine engine(3, 2);
  engine.AddRequests(0, 1, 10);
  engine.AddRequests(0, 1, 11);
  EXPECT_EQ(engine.PendingCount(0), 2);
  EXPECT_EQ(engine.PendingCount(1), 0);
  const Request first = engine.PopOldest(0);
  EXPECT_EQ(first.origin, 0);
  EXPECT_EQ(first.created_slot, 10);
  EXPECT_EQ(engine.PendingCount(0), 1);
  EXPECT_EQ(engine.PopOldest(0).created_slot, 11);
}

TEST(MatchingEngineTest, CohortsMergeWithinOneSlot) {
  MatchingEngine engine(2, 3);
  engine.AddRequests(1, 5, 7);
  engine.AddRequests(1, 3, 7);  // same slot: merges into one cohort
  engine.AddRequests(1, 2, 8);
  EXPECT_EQ(engine.PendingCount(1), 10);
  EXPECT_EQ(engine.PendingCount(0), 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(engine.PopOldest(1).created_slot, 7);
  }
  EXPECT_EQ(engine.PopOldest(1).created_slot, 8);
  EXPECT_EQ(engine.PendingCount(1), 1);
}

TEST(MatchingEngineTest, ExpiryDropsOnlyStaleRequests) {
  MatchingEngine engine(2, /*patience=*/2);
  engine.AddRequests(0, 1, 10);
  engine.AddRequests(0, 1, 12);
  EXPECT_EQ(engine.ExpireOld(TimeSlot(12)), 0);  // age 2 is still fine
  EXPECT_EQ(engine.ExpireOld(TimeSlot(13)), 1);  // the slot-10 one dies
  EXPECT_EQ(engine.PendingCount(0), 1);
  EXPECT_EQ(engine.PendingCount(1), 0);
}

TEST(MatchingEngineTest, ZeroPatienceExpiresNextSlot) {
  MatchingEngine engine(1, 0);
  engine.AddRequests(0, 1, 5);
  EXPECT_EQ(engine.ExpireOld(TimeSlot(5)), 0);
  EXPECT_EQ(engine.ExpireOld(TimeSlot(6)), 1);
}

TEST(MatchingEngineTest, ClearEmptiesEverything) {
  MatchingEngine engine(2, 2);
  engine.AddRequests(0, 1, 1);
  engine.AddRequests(1, 1, 1);
  engine.Clear();
  EXPECT_EQ(engine.PendingCount(0), 0);
  EXPECT_EQ(engine.PendingCount(1), 0);
}

// ----------------------------------------------------------- StationQueue --

TEST(StationQueueTest, PlugInReleasesLifecycle) {
  StationQueue q(2);
  EXPECT_EQ(q.free_points(), 2);
  q.Enqueue(7);
  q.Enqueue(8);
  q.Enqueue(9);
  EXPECT_EQ(q.waiting(), 3);
  EXPECT_EQ(q.load(), 3);
  ASSERT_TRUE(q.CanPlugIn());
  EXPECT_EQ(q.PlugInNext(), 7);
  EXPECT_EQ(q.PlugInNext(), 8);
  EXPECT_EQ(q.free_points(), 0);
  EXPECT_FALSE(q.CanPlugIn());
  EXPECT_EQ(q.load(), 3);  // 2 charging + 1 waiting
  q.Release();
  EXPECT_EQ(q.free_points(), 1);
  EXPECT_TRUE(q.CanPlugIn());
  EXPECT_EQ(q.PlugInNext(), 9);
  EXPECT_EQ(q.waiting(), 0);
}

TEST(StationQueueTest, ClearResets) {
  StationQueue q(2);
  q.Enqueue(1);
  (void)q.PlugInNext();
  q.Clear();
  EXPECT_EQ(q.occupied(), 0);
  EXPECT_EQ(q.waiting(), 0);
}

// ------------------------------------------------------------------ Trace --

TEST(TraceTest, AggregatesAlwaysCounted) {
  Trace trace(TraceLevel::kAggregatesOnly);
  TripRecord trip;
  trip.fare_cny = 25.0f;
  EXPECT_EQ(trace.AddTrip(trip), -1);  // not retained
  EXPECT_EQ(trace.total_trips(), 1);
  EXPECT_DOUBLE_EQ(trace.total_fares(), 25.0);
  EXPECT_TRUE(trace.trips().empty());
}

TEST(TraceTest, FullLevelRetainsRecords) {
  Trace trace(TraceLevel::kFull);
  TripRecord trip;
  trip.fare_cny = 30.0f;
  EXPECT_EQ(trace.AddTrip(trip), 0);
  EXPECT_EQ(trace.trips().size(), 1u);
}

TEST(TraceTest, ChargeEventsBucketedByPluginHour) {
  Trace trace(TraceLevel::kFull);
  ChargeEvent event;
  event.plugin_slot = 3 * kSlotsPerHour;  // 03:00
  event.cost_cny = 40.0f;
  trace.AddChargeEvent(event);
  EXPECT_EQ(trace.charge_starts_by_hour()[3], 1);
  EXPECT_DOUBLE_EQ(trace.total_charge_cost(), 40.0);
}

TEST(TraceTest, SetFirstCruiseBackfills) {
  Trace trace(TraceLevel::kFull);
  ChargeEvent event;
  const int64_t idx = trace.AddChargeEvent(event);
  EXPECT_LT(trace.charge_events()[0].first_cruise_min, 0.0f);
  trace.SetFirstCruise(idx, 12.5f);
  EXPECT_FLOAT_EQ(trace.charge_events()[0].first_cruise_min, 12.5f);
  trace.SetFirstCruise(-1, 99.0f);   // no-op
  trace.SetFirstCruise(100, 99.0f);  // no-op
}

TEST(TraceTest, ClearResetsEverything) {
  Trace trace(TraceLevel::kFull);
  trace.AddTrip(TripRecord{});
  trace.AddChargeEvent(ChargeEvent{});
  trace.CountExpiredRequests(5);
  trace.Clear();
  EXPECT_EQ(trace.total_trips(), 0);
  EXPECT_EQ(trace.total_charge_events(), 0);
  EXPECT_EQ(trace.expired_requests(), 0);
  EXPECT_TRUE(trace.trips().empty());
  EXPECT_TRUE(trace.charge_events().empty());
}

TEST(TaxiTest, PhaseNames) {
  EXPECT_STREQ(TaxiPhaseName(TaxiPhase::kCruising), "cruising");
  EXPECT_STREQ(TaxiPhaseName(TaxiPhase::kCharging), "charging");
}

TEST(TaxiTest, TotalsPeArithmetic) {
  TaxiTotals totals;
  totals.cruise_min = 60.0;
  totals.serve_min = 120.0;
  totals.idle_min = 30.0;
  totals.charge_min = 30.0;
  totals.revenue_cny = 200.0;
  totals.charge_cost_cny = 40.0;
  EXPECT_DOUBLE_EQ(totals.on_duty_min(), 240.0);
  EXPECT_DOUBLE_EQ(totals.profit_cny(), 160.0);
  EXPECT_DOUBLE_EQ(totals.hourly_pe(), 40.0);
}

TEST(TaxiTest, ZeroTimePeIsZero) {
  TaxiTotals totals;
  EXPECT_DOUBLE_EQ(totals.hourly_pe(), 0.0);
}

}  // namespace
}  // namespace fairmove
