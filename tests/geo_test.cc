#include <gtest/gtest.h>

#include <set>

#include "fairmove/geo/city.h"
#include "fairmove/geo/city_builder.h"
#include "fairmove/geo/point.h"

namespace fairmove {
namespace {

// ----------------------------------------------------------------- Point --

TEST(PointTest, PlanarDistance) {
  EXPECT_DOUBLE_EQ(DistanceKm({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceKm({1, 1}, {1, 1}), 0.0);
}

TEST(PointTest, HaversineKnownDistance) {
  // Shenzhen <-> Guangzhou is roughly 105 km.
  const LatLng shenzhen{22.54, 114.06};
  const LatLng guangzhou{23.13, 113.26};
  const double d = HaversineKm(shenzhen, guangzhou);
  EXPECT_GT(d, 95.0);
  EXPECT_LT(d, 115.0);
}

TEST(PointTest, HaversineZeroForSamePoint) {
  const LatLng p{22.5, 114.0};
  EXPECT_DOUBLE_EQ(HaversineKm(p, p), 0.0);
}

TEST(PointTest, PlanarToLatLngRoundTripsDistance) {
  const PointKm a{5.0, 5.0};
  const PointKm b{15.0, 5.0};  // 10 km east
  const double d = HaversineKm(PlanarToLatLng(a), PlanarToLatLng(b));
  EXPECT_NEAR(d, 10.0, 0.05);
}

TEST(RegionTest, ClassNames) {
  EXPECT_STREQ(RegionClassName(RegionClass::kDowntownCore), "downtown");
  EXPECT_STREQ(RegionClassName(RegionClass::kAirport), "airport");
  EXPECT_STREQ(RegionClassName(RegionClass::kSuburb), "suburb");
}

// ----------------------------------------------------------- CityBuilder --

TEST(CityBuilderTest, RejectsBadConfigs) {
  CityConfig cfg;
  cfg.num_regions = 2;
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
  cfg = CityConfig();
  cfg.num_stations = 0;
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
  cfg = CityConfig();
  cfg.total_charge_points = 10;  // < num_stations (123)
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
  cfg = CityConfig();
  cfg.centroid_jitter = 0.6;
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
  cfg = CityConfig();
  cfg.aspect_ratio = -1;
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
}

TEST(CityBuilderTest, FullShenzhenDimensions) {
  auto city_or = CityBuilder(CityConfig{}).Build();
  ASSERT_TRUE(city_or.ok());
  const City& city = city_or.value();
  EXPECT_EQ(city.num_regions(), 491);
  EXPECT_EQ(city.num_stations(), 123);
  EXPECT_EQ(city.total_charge_points(), 5000);
}

TEST(CityBuilderTest, DeterministicForFixedSeed) {
  CityConfig cfg = CityConfig{}.Scaled(0.1);
  auto a = CityBuilder(cfg).Build();
  auto b = CityBuilder(cfg).Build();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_regions(), b->num_regions());
  for (int r = 0; r < a->num_regions(); ++r) {
    EXPECT_EQ(a->region(r).centroid_km, b->region(r).centroid_km);
    EXPECT_EQ(a->region(r).cls, b->region(r).cls);
  }
}

TEST(CityBuilderTest, ScaledPreservesStructure) {
  const CityConfig scaled = CityConfig{}.Scaled(0.25);
  EXPECT_LT(scaled.num_regions, 491);
  EXPECT_GE(scaled.num_regions, 12);
  EXPECT_LT(scaled.num_stations, 123);
  EXPECT_GE(scaled.total_charge_points, scaled.num_stations);
}

class BuiltCityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto city_or = CityBuilder(CityConfig{}.Scaled(0.15)).Build();
    ASSERT_TRUE(city_or.ok());
    city_ = std::make_unique<City>(std::move(city_or).value());
  }
  std::unique_ptr<City> city_;
};

TEST_F(BuiltCityTest, HasExactlyOneAirportAndOnePort) {
  int airports = 0, ports = 0, downtown = 0;
  for (const Region& r : city_->regions()) {
    airports += r.cls == RegionClass::kAirport ? 1 : 0;
    ports += r.cls == RegionClass::kPort ? 1 : 0;
    downtown += r.cls == RegionClass::kDowntownCore ? 1 : 0;
  }
  EXPECT_EQ(airports, 1);
  EXPECT_EQ(ports, 1);
  EXPECT_GT(downtown, 0);
}

TEST_F(BuiltCityTest, AdjacencyIsSymmetricAndIrreflexive) {
  for (const Region& r : city_->regions()) {
    EXPECT_FALSE(r.neighbors.empty());
    for (RegionId n : r.neighbors) {
      EXPECT_NE(n, r.id);
      const auto& back = city_->region(n).neighbors;
      EXPECT_NE(std::find(back.begin(), back.end(), r.id), back.end())
          << "edge " << r.id << "->" << n << " not symmetric";
    }
  }
}

TEST_F(BuiltCityTest, NeighborsAreUnique) {
  for (const Region& r : city_->regions()) {
    std::set<RegionId> unique(r.neighbors.begin(), r.neighbors.end());
    EXPECT_EQ(unique.size(), r.neighbors.size());
  }
}

TEST_F(BuiltCityTest, TravelMatrixBasics) {
  const int n = city_->num_regions();
  for (RegionId a = 0; a < n; a += 7) {
    EXPECT_DOUBLE_EQ(city_->TravelMinutes(a, a), 0.0);
    EXPECT_DOUBLE_EQ(city_->DrivingKm(a, a), 0.0);
    for (RegionId b = 0; b < n; b += 11) {
      EXPECT_GE(city_->TravelMinutes(a, b), 0.0);
      if (a != b) {
        EXPECT_GT(city_->TravelMinutes(a, b), 0.0);
        EXPECT_GT(city_->DrivingKm(a, b), 0.0);
      }
    }
  }
}

TEST_F(BuiltCityTest, TriangleInequalityHolds) {
  // Shortest paths must satisfy d(a,c) <= d(a,b) + d(b,c).
  const int n = city_->num_regions();
  for (RegionId a = 0; a < n; a += 13) {
    for (RegionId b = 0; b < n; b += 17) {
      for (RegionId c = 0; c < n; c += 19) {
        EXPECT_LE(city_->TravelMinutes(a, c),
                  city_->TravelMinutes(a, b) + city_->TravelMinutes(b, c) +
                      1e-3);
      }
    }
  }
}

TEST_F(BuiltCityTest, NearestStationsSortedByTravelTime) {
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    const auto& stations = city_->NearestStations(r);
    EXPECT_LE(stations.size(), static_cast<size_t>(City::kNearestStations));
    EXPECT_FALSE(stations.empty());
    for (size_t i = 1; i < stations.size(); ++i) {
      EXPECT_LE(city_->TravelMinutesToStation(r, stations[i - 1]),
                city_->TravelMinutesToStation(r, stations[i]));
    }
  }
}

TEST_F(BuiltCityTest, StepTowardReducesDistance) {
  const RegionId from = 0;
  const RegionId to = city_->num_regions() - 1;
  RegionId cur = from;
  int hops = 0;
  while (cur != to && hops < city_->num_regions()) {
    const RegionId next = city_->StepToward(cur, to);
    EXPECT_NE(next, cur) << "stuck at " << cur;
    EXPECT_LT(city_->TravelMinutes(next, to), city_->TravelMinutes(cur, to));
    cur = next;
    ++hops;
  }
  EXPECT_EQ(cur, to);
}

TEST_F(BuiltCityTest, StepTowardSelfIsSelf) {
  EXPECT_EQ(city_->StepToward(3, 3), 3);
}

TEST_F(BuiltCityTest, ClassSpeedsAreSane) {
  EXPECT_LT(City::ClassSpeedKmh(RegionClass::kDowntownCore),
            City::ClassSpeedKmh(RegionClass::kSuburb));
  for (int c = 0; c < kNumRegionClasses; ++c) {
    const double v = City::ClassSpeedKmh(static_cast<RegionClass>(c));
    EXPECT_GT(v, 5.0);
    EXPECT_LT(v, 90.0);
  }
}

// Parameterized: structural invariants hold across scales and seeds.
class CityScaleSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(CityScaleSweep, InvariantsAcrossScalesAndSeeds) {
  CityConfig cfg = CityConfig{}.Scaled(std::get<0>(GetParam()));
  cfg.seed = std::get<1>(GetParam());
  auto city_or = CityBuilder(cfg).Build();
  ASSERT_TRUE(city_or.ok());
  const City& city = city_or.value();
  EXPECT_EQ(city.num_regions(), cfg.num_regions);
  EXPECT_EQ(city.num_stations(), cfg.num_stations);
  EXPECT_EQ(city.total_charge_points(), cfg.total_charge_points);
  // Connectivity: every region can reach region 0.
  for (RegionId r = 0; r < city.num_regions(); ++r) {
    EXPECT_LT(city.TravelMinutes(r, 0), 1e6);
  }
  EXPECT_GE(city.max_neighbors(), 3);
  EXPECT_LE(city.max_neighbors(), 8);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndSeeds, CityScaleSweep,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.3, 1.0),
                       ::testing::Values(1u, 20130u)));

}  // namespace
}  // namespace fairmove
