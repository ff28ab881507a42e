// Tests of the tooling added on top of the core reproduction: CLI flags,
// the repeated-experiment runner, GeoJSON export, terrain carving, station
// utilization and Double DQN.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "fairmove/common/flags.h"
#include "fairmove/core/experiment.h"
#include "fairmove/core/group_fairness.h"
#include "fairmove/data/analysis.h"
#include "fairmove/geo/city_builder.h"
#include "fairmove/geo/geojson.h"
#include "fairmove/io/binary.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/gt_policy.h"

namespace fairmove {
namespace {

// ----------------------------------------------------------------- Flags --

Flags MustParse(std::vector<const char*> argv,
                std::vector<std::string> known = {}) {
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data(),
                            std::move(known));
  EXPECT_TRUE(flags.ok()) << flags.status();
  return std::move(flags).value();
}

TEST(FlagsTest, ParsesAllForms) {
  const Flags flags = MustParse(
      {"prog", "--scale=0.5", "--days=3", "--verbose", "positional"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0).value(), 0.5);
  EXPECT_EQ(flags.GetInt("days", 0).value(), 3);
  EXPECT_TRUE(flags.GetBool("verbose", false).value());
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const Flags flags = MustParse({"prog"});
  EXPECT_EQ(flags.GetString("name", "dflt"), "dflt");
  EXPECT_EQ(flags.GetInt("n", 7).value(), 7);
  EXPECT_FALSE(flags.GetBool("quiet", false).value());
}

TEST(FlagsTest, DoubleDashEndsFlagParsing) {
  const Flags flags = MustParse({"prog", "--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(flags.Has("a"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, SchemaRejectsUnknownAndDuplicates) {
  const char* argv1[] = {"prog", "--oops=1"};
  EXPECT_FALSE(Flags::Parse(2, argv1, {"scale"}).ok());
  const char* argv2[] = {"prog", "--a=1", "--a=2"};
  EXPECT_FALSE(Flags::Parse(3, argv2).ok());
}

TEST(FlagsTest, TypedErrorsOnMalformedValues) {
  const Flags flags = MustParse({"prog", "--n=abc", "--b=maybe"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
  EXPECT_FALSE(flags.GetBool("b", false).ok());
}

// --------------------------------------------------------------- GeoJSON --

TEST(GeoJsonTest, OutputContainsAllFeatures) {
  auto city = std::move(CityBuilder(CityConfig{}.Scaled(0.06)).Build()).value();
  const std::string json = CityToGeoJson(city);
  EXPECT_NE(json.find("\"FeatureCollection\""), std::string::npos);
  // One polygon per region, one point per station.
  size_t polygons = 0, points = 0, pos = 0;
  while ((pos = json.find("\"Polygon\"", pos)) != std::string::npos) {
    ++polygons;
    pos += 9;
  }
  pos = 0;
  while ((pos = json.find("\"Point\"", pos)) != std::string::npos) {
    ++points;
    pos += 7;
  }
  EXPECT_EQ(polygons, static_cast<size_t>(city.num_regions()));
  EXPECT_EQ(points, static_cast<size_t>(city.num_stations()));
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(GeoJsonTest, WritesFile) {
  auto city = std::move(CityBuilder(CityConfig{}.Scaled(0.05)).Build()).value();
  const std::string path = ::testing::TempDir() + "/fairmove_city.geojson";
  ASSERT_TRUE(WriteCityGeoJson(city, path).ok());
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

// --------------------------------------------------------------- Terrain --

TEST(TerrainTest, CarvedCityStillConnectedWithExactRegionCount) {
  CityConfig cfg = CityConfig{}.Scaled(0.15);
  cfg.obstacle_fraction = 0.15;
  auto city_or = CityBuilder(cfg).Build();
  ASSERT_TRUE(city_or.ok()) << city_or.status();
  const City& city = city_or.value();
  EXPECT_EQ(city.num_regions(), cfg.num_regions);
  // City's constructor CHECKs connectivity; also spot-check reachability.
  for (RegionId r = 0; r < city.num_regions(); r += 7) {
    EXPECT_LT(city.TravelMinutes(0, r), 1e6);
  }
}

TEST(TerrainTest, CarvingCreatesIrregularAdjacency) {
  CityConfig flat = CityConfig{}.Scaled(0.2);
  CityConfig carved = flat;
  carved.obstacle_fraction = 0.2;
  auto flat_city = std::move(CityBuilder(flat).Build()).value();
  auto carved_city = std::move(CityBuilder(carved).Build()).value();
  auto boundaryish = [](const City& city) {
    int below_max = 0;
    for (const Region& r : city.regions()) {
      below_max += static_cast<int>(r.neighbors.size()) < 8 ? 1 : 0;
    }
    return below_max;
  };
  // Terrain adds interior boundaries: more regions with missing neighbours.
  EXPECT_GT(boundaryish(carved_city), boundaryish(flat_city));
}

TEST(TerrainTest, RejectsExcessiveCarving) {
  CityConfig cfg = CityConfig{}.Scaled(0.1);
  cfg.obstacle_fraction = 0.55;
  EXPECT_FALSE(CityBuilder(cfg).Build().ok());
}

/// CRC-32 over every region's grid cell, centroid, class and neighbour list
/// and every station's region and point count.
uint32_t CityLayoutDigest(const City& city) {
  BinaryWriter out;
  for (const Region& r : city.regions()) {
    out.WriteI32(r.grid_row);
    out.WriteI32(r.grid_col);
    out.WriteF64(r.centroid_km.x);
    out.WriteF64(r.centroid_km.y);
    out.WriteU8(static_cast<uint8_t>(r.cls));
    out.WriteU64(r.neighbors.size());
    for (RegionId n : r.neighbors) out.WriteI32(n);
  }
  for (const ChargingStation& s : city.stations()) {
    out.WriteI32(s.region);
    out.WriteI32(s.num_points);
  }
  return Crc32(out.str());
}

// Pins the carver's output. The first city rolls back 12 blobs that would
// have split it and then carves 7 cells of minor components away; the
// second rolls back one blob and carves 2 minor cells.
TEST(TerrainTest, CarvedCityIsGolden) {
  const struct {
    double scale;
    double obstacle_fraction;
    uint64_t seed;
    uint32_t crc;
  } cases[] = {{0.2, 0.4, CityConfig{}.seed, 0xfdb0af22u},
               {0.1, 0.3, 7, 0x562b07f0u}};
  for (const auto& c : cases) {
    CityConfig cfg = CityConfig{}.Scaled(c.scale);
    cfg.obstacle_fraction = c.obstacle_fraction;
    cfg.seed = c.seed;
    auto city_or = CityBuilder(cfg).Build();
    ASSERT_TRUE(city_or.ok()) << city_or.status();
    EXPECT_EQ(CityLayoutDigest(city_or.value()), c.crc)
        << "scale " << c.scale << ", obstacle_fraction "
        << c.obstacle_fraction << ", seed " << c.seed;
  }
}

// -------------------------------------------------- Station utilization --

TEST(StationUtilizationTest, BoundedAndShapedByChargingPeaks) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  GtPolicy policy;
  system->sim().RunDays(&policy, 2);
  const auto utilization = StationUtilizationByHour(system->sim(), 2);
  ASSERT_EQ(static_cast<int>(utilization.size()),
            system->city().num_stations());
  double valley = 0.0, morning = 0.0;
  for (const auto& row : utilization) {
    for (int h = 0; h < kHoursPerDay; ++h) {
      EXPECT_GE(row[static_cast<size_t>(h)], 0.0);
      EXPECT_LE(row[static_cast<size_t>(h)], 1.0 + 1e-9);
    }
    valley += row[4];
    morning += row[9];
  }
  // The 4am charging peak loads stations more than the 9am business peak.
  EXPECT_GT(valley, morning);
}

// -------------------------------------------------------- RepeatedRunner --

TEST(RepeatedComparisonTest, AggregatesAcrossSeeds) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  auto result_or =
      RunRepeatedComparison(cfg, {PolicyKind::kSd2}, /*repeats=*/2);
  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RepeatedComparison& result = result_or.value();
  EXPECT_EQ(result.repeats, 2);
  ASSERT_EQ(result.methods.size(), 2u);  // GT + SD2
  EXPECT_EQ(result.methods[0].name, "GT");
  EXPECT_EQ(result.methods[1].name, "SD2");
  EXPECT_EQ(result.methods[1].pipe.count(), 2);
  // Different seeds -> non-identical results (std > 0 almost surely).
  EXPECT_GT(result.methods[1].pe_mean.stddev(), 0.0);
  const Table table = result.ToTable();
  EXPECT_EQ(table.num_rows(), 2u);
}

// FAIRMOVE_REPEATS=1: a one-round race of one replica per method.
TEST(RepeatedComparisonTest, OneRepeatRunsEveryMethodOnce) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  auto result_or =
      RunRepeatedComparison(cfg, {PolicyKind::kSd2}, /*repeats=*/1);
  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RepeatedComparison& result = result_or.value();
  EXPECT_EQ(result.repeats, 1);
  ASSERT_EQ(result.methods.size(), 2u);  // GT + SD2
  EXPECT_EQ(result.methods[0].name, "GT");
  EXPECT_EQ(result.methods[1].name, "SD2");
  for (const RepeatedMethodResult& m : result.methods) {
    EXPECT_EQ(m.pipe.count(), 1) << m.name;
    EXPECT_EQ(m.reward.count(), 1) << m.name;
  }
}

TEST(DriverGroupsByPerformanceTest, QuantilesSortByHustle) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto groups_or = DriverGroups::ByPerformance(system->sim(), 5);
  ASSERT_TRUE(groups_or.ok());
  const DriverGroups& groups = groups_or.value();
  // Every member of a higher group out-hustles every member of a lower one
  // (quantile split), and sizes are balanced within 1.
  double prev_max = 0.0;
  for (int g = 0; g < groups.num_groups(); ++g) {
    double lo = 1e18, hi = 0.0;
    for (TaxiId id : groups.members(g)) {
      lo = std::min(lo, system->sim().hustle(id));
      hi = std::max(hi, system->sim().hustle(id));
    }
    EXPECT_GE(lo, prev_max - 1e-12) << "group " << g;
    prev_max = hi;
    EXPECT_NEAR(static_cast<double>(groups.members(g).size()),
                system->sim().num_taxis() / 5.0, 1.0);
  }
}

TEST(RepeatConfigTest, DerivesDecorrelatedPinnedSeeds) {
  FairMoveConfig base = FairMoveConfig::FullShenzhen();
  base.sim.seed = 42;
  base.city.seed = 42;
  base.trainer.seed_base = 9000;
  base.eval.seed = 7;
  const FairMoveConfig r0 = RepeatConfig(base, 0);
  const FairMoveConfig r3 = RepeatConfig(base, 3);
  // Pinned streams (see DeriveSeedTest.PinnedValues): sim and city share a
  // base seed yet get different namespaces, hence different streams.
  EXPECT_EQ(r0.sim.seed, DeriveSeed(42, kSeedNsSim, 0));
  EXPECT_EQ(r0.city.seed, DeriveSeed(42, kSeedNsCity, 0));
  EXPECT_EQ(r0.trainer.seed_base, DeriveSeed(9000, kSeedNsTrainer, 0));
  EXPECT_EQ(r3.eval.seed, DeriveSeed(7, kSeedNsEval, 3));
  EXPECT_EQ(r0.sim.seed, 0x16076ce4ec094afdULL);
  EXPECT_EQ(r0.city.seed, 0x14bd804e4d5493c4ULL);
  EXPECT_EQ(r3.eval.seed, 0x8b9ac8b2f36f34daULL);
  EXPECT_NE(r0.sim.seed, r0.city.seed);
  // Non-seed config is untouched.
  EXPECT_EQ(r0.trainer.episodes, base.trainer.episodes);
  EXPECT_EQ(r0.eval.days, base.eval.days);
}

TEST(RepeatConfigTest, ZeroTrainerSeedBaseIsPreserved) {
  FairMoveConfig base = FairMoveConfig::FullShenzhen();
  base.trainer.seed_base = 0;  // "reuse the sim seed" sentinel
  EXPECT_EQ(RepeatConfig(base, 0).trainer.seed_base, 0u);
  EXPECT_EQ(RepeatConfig(base, 5).trainer.seed_base, 0u);
}

TEST(RepeatedComparisonTest, RejectsBadRepeatCount) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  EXPECT_FALSE(RunRepeatedComparison(cfg, {}, 0).ok());
}

// ------------------------------------------------------------ Double DQN --

TEST(DoubleDqnTest, TrainsAndActs) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  DqnPolicy::Options options;
  options.double_dqn = true;
  options.min_replay = 32;
  options.minibatch = 16;
  DqnPolicy policy(system->sim(), options);
  policy.SetTraining(true);
  Trainer trainer = system->MakeTrainer();
  TrainerConfig tc = trainer.config();
  Trainer t2(&system->sim(), tc);
  // One short training episode must run without violating any contract.
  FairMoveConfig short_cfg = cfg;
  short_cfg.trainer.episodes = 1;
  short_cfg.trainer.slots_per_episode = 60;
  Trainer short_trainer(&system->sim(), short_cfg.trainer);
  const auto stats = short_trainer.Train(&policy);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].transitions, 0);
}

}  // namespace
}  // namespace fairmove
