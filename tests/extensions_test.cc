// Tests of the extension layers: CSV parsing, spatial lookup, the
// empirical (data-driven) demand model, driver-group fairness (§V), and
// the ridesharing dispatch matching mode (§V).

#include <gtest/gtest.h>

#include <fstream>

#include "fairmove/common/csv.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/group_fairness.h"
#include "fairmove/data/empirical_demand.h"
#include "fairmove/data/generator.h"
#include "fairmove/resilience/chaos.h"
#include "fairmove/rl/gt_policy.h"

namespace fairmove {
namespace {

// ------------------------------------------------------------- ParseCsv --

TEST(ParseCsvTest, RoundTripsTableOutput) {
  Table table({"a", "b", "c"});
  table.AddRow({"1", "two", "3.5"});
  table.AddRow({"x,y", "with \"quotes\"", "line\nbreak"});
  auto parsed_or = ParseCsv(table.ToCsv());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  const Table& parsed = parsed_or.value();
  ASSERT_EQ(parsed.num_rows(), 2u);
  EXPECT_EQ(parsed.row(0), table.row(0));
  EXPECT_EQ(parsed.row(1), table.row(1));
  EXPECT_EQ(parsed.header(), table.header());
}

TEST(ParseCsvTest, HandlesCrlfAndBlankLines) {
  auto parsed = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->Cell(1, "b"), "4");
}

TEST(ParseCsvTest, EmptyCellsPreserved) {
  auto parsed = ParseCsv("a,b,c\n,mid,\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->row(0)[0], "");
  EXPECT_EQ(parsed->row(0)[1], "mid");
  EXPECT_EQ(parsed->row(0)[2], "");
}

TEST(ParseCsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());     // ragged row
  EXPECT_FALSE(ParseCsv("a\n\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsv("a\nbad\"quote\n").ok());
}

TEST(ParseCsvTest, RejectsEmbeddedNulBytes) {
  const std::string nul_in_row = std::string("a,b\n1,2") + '\0' + "\n";
  EXPECT_FALSE(ParseCsv(nul_in_row).ok());
  const std::string nul_in_header = std::string("a") + '\0' + ",b\n1,2\n";
  EXPECT_FALSE(ParseCsv(nul_in_header).ok());
}

// ------------------------------------------------------ ParseCsvLenient --

TEST(ParseCsvLenientTest, QuarantinesDamagedRowsAndKeepsTheRest) {
  const std::string text = std::string("a,b\n") +
                           "1,2\n" +        // good
                           "3\n" +          // truncated
                           "4,5,6\n" +      // extra cell
                           "bad\"quote,7\n" +
                           "8,9" + '\0' + "\n" +
                           "10,11\n";       // good
  CsvQuarantine q;
  auto parsed = ParseCsvLenient(text, &q);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->Cell(0, "a"), "1");
  EXPECT_EQ(parsed->Cell(1, "b"), "11");
  EXPECT_EQ(q.ragged_rows, 2);
  EXPECT_EQ(q.malformed_quoting, 1);
  EXPECT_EQ(q.nul_rows, 1);
  EXPECT_EQ(q.total(), 4);
}

TEST(ParseCsvLenientTest, RecoversAfterUnterminatedQuote) {
  // The unterminated quote swallows the rest of the text in the strict
  // parser; the lenient one resynchronises at the next physical line.
  CsvQuarantine q;
  auto parsed = ParseCsvLenient("a,b\n\"open,2\n3,4\n", &q);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_rows(), 1u);
  EXPECT_EQ(parsed->Cell(0, "a"), "3");
  EXPECT_EQ(q.malformed_quoting, 1);
}

TEST(ParseCsvLenientTest, BrokenHeaderStillFails) {
  EXPECT_FALSE(ParseCsvLenient("").ok());
  EXPECT_FALSE(ParseCsvLenient(std::string("a") + '\0' + ",b\n1,2\n").ok());
}

TEST(ParseCsvLenientTest, CleanInputReportsNoQuarantine) {
  CsvQuarantine q;
  auto parsed = ParseCsvLenient("a,b\n1,2\n3,4\n", &q);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(q.total(), 0);
}

// ------------------------------------------- TransactionRecordsFromTable --

TEST(TransactionRecordsFromTableTest, QuarantinesNonNumericRows) {
  Table table({"vehicle_id", "pickup_time_s", "pickup_lat", "pickup_lng",
               "dropoff_lat", "dropoff_lng"});
  table.AddRow({"1", "600", "22.5", "114.0", "22.6", "114.1"});
  table.AddRow({"??garbage??", "600", "22.5", "114.0", "22.6", "114.1"});
  table.AddRow({"2", "1200", "not-a-number", "114.0", "22.6", "114.1"});
  int64_t quarantined = 0;
  auto records = TransactionRecordsFromTable(table, &quarantined);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].vehicle_id, 1);
  EXPECT_EQ((*records)[0].pickup_time_s, 600);
  EXPECT_EQ(quarantined, 2);
}

TEST(TransactionRecordsFromTableTest, MissingCoreColumnFails) {
  Table table({"vehicle_id", "pickup_time_s"});
  table.AddRow({"1", "600"});
  EXPECT_FALSE(TransactionRecordsFromTable(table).ok());
}

// -------------------------------------------------------- NearestRegion --

TEST(NearestRegionTest, CentroidsMapToThemselves) {
  auto city = std::move(CityBuilder(CityConfig{}.Scaled(0.1)).Build()).value();
  for (const Region& r : city.regions()) {
    EXPECT_EQ(city.NearestRegion(r.centroid_km), r.id);
    EXPECT_EQ(city.NearestRegion(r.centroid), r.id);
  }
}

TEST(NearestRegionTest, MatchesLinearScan) {
  auto city = std::move(CityBuilder(CityConfig{}.Scaled(0.08)).Build()).value();
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const PointKm p{rng.Uniform(-5.0, 60.0), rng.Uniform(-5.0, 30.0)};
    RegionId brute = 0;
    double best = DistanceKm(p, city.region(0).centroid_km);
    for (const Region& r : city.regions()) {
      const double d = DistanceKm(p, r.centroid_km);
      if (d < best) {
        best = d;
        brute = r.id;
      }
    }
    const RegionId indexed = city.NearestRegion(p);
    EXPECT_NEAR(DistanceKm(p, city.region(indexed).centroid_km), best, 1e-9)
        << "p=(" << p.x << "," << p.y << ") brute=" << brute
        << " indexed=" << indexed;
  }
}

TEST(PointTest, LatLngPlanarRoundTrip) {
  const PointKm p{12.3, 7.8};
  const PointKm back = LatLngToPlanar(PlanarToLatLng(p));
  EXPECT_NEAR(back.x, p.x, 1e-6);
  EXPECT_NEAR(back.y, p.y, 1e-6);
}

// -------------------------------------------------- EmpiricalDemandModel --

class EmpiricalDemandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
    system_ = std::move(FairMoveSystem::Create(cfg)).value();
    GtPolicy policy;
    system_->sim().RunDays(&policy, 2);
    DatasetGenerator generator(&system_->sim(), 9);
    transactions_ = generator.GenerateTransactions();
  }
  std::unique_ptr<FairMoveSystem> system_;
  std::vector<TransactionRecord> transactions_;
};

TEST_F(EmpiricalDemandTest, RejectsBadInputs) {
  EmpiricalDemandModel::Options options;
  EXPECT_FALSE(EmpiricalDemandModel::FromTransactions(nullptr, transactions_,
                                                      options)
                   .ok());
  EXPECT_FALSE(
      EmpiricalDemandModel::FromTransactions(&system_->city(), {}, options)
          .ok());
  options.od_hour_bucket = 5;  // does not divide 24
  EXPECT_FALSE(EmpiricalDemandModel::FromTransactions(&system_->city(),
                                                      transactions_, options)
                   .ok());
}

TEST_F(EmpiricalDemandTest, VolumeMatchesObservations) {
  EmpiricalDemandModel::Options options;
  options.days = 2;
  options.smoothing = 0.0;
  auto model = std::move(EmpiricalDemandModel::FromTransactions(
                             &system_->city(), transactions_, options))
                   .value();
  EXPECT_EQ(model.observations(),
            static_cast<int64_t>(transactions_.size()));
  EXPECT_NEAR(model.TotalTripsPerDay(),
              static_cast<double>(transactions_.size()) / 2.0,
              transactions_.size() * 0.01);
}

TEST_F(EmpiricalDemandTest, RatesCorrelateWithGenerativeModel) {
  EmpiricalDemandModel::Options options;
  options.days = 2;
  auto model = std::move(EmpiricalDemandModel::FromTransactions(
                             &system_->city(), transactions_, options))
                   .value();
  // Served demand is a censored version of requested demand, so the
  // estimated surface must strongly correlate with the generative rates.
  double sum_g = 0, sum_e = 0, sum_ge = 0, sum_gg = 0, sum_ee = 0;
  int n = 0;
  for (RegionId r = 0; r < system_->city().num_regions(); ++r) {
    for (int hour = 0; hour < kHoursPerDay; ++hour) {
      const TimeSlot slot(hour * kSlotsPerHour);
      const double g = system_->demand().Rate(r, slot);
      const double e = model.Rate(r, slot);
      sum_g += g;
      sum_e += e;
      sum_ge += g * e;
      sum_gg += g * g;
      sum_ee += e * e;
      ++n;
    }
  }
  const double cov = sum_ge / n - (sum_g / n) * (sum_e / n);
  const double var_g = sum_gg / n - (sum_g / n) * (sum_g / n);
  const double var_e = sum_ee / n - (sum_e / n) * (sum_e / n);
  const double corr = cov / std::sqrt(var_g * var_e);
  // Served trips are a censored view of requested demand (expiry clips the
  // busiest region-slots) and pickup coordinates carry street-level jitter
  // across region borders, so the correlation is strong but not perfect.
  EXPECT_GT(corr, 0.7) << "estimated surface lost the spatial structure";
}

TEST_F(EmpiricalDemandTest, DestinationsAreValidAndLocal) {
  EmpiricalDemandModel::Options options;
  options.days = 2;
  auto model = std::move(EmpiricalDemandModel::FromTransactions(
                             &system_->city(), transactions_, options))
                   .value();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const RegionId origin = static_cast<RegionId>(
        rng.NextBounded(system_->city().num_regions()));
    const RegionId dest = model.SampleDestination(
        origin, TimeSlot(static_cast<int64_t>(rng.NextBounded(kSlotsPerDay))),
        rng);
    EXPECT_GE(dest, 0);
    EXPECT_LT(dest, system_->city().num_regions());
  }
}

TEST_F(EmpiricalDemandTest, CsvRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/fairmove_empirical_test.csv";
  ASSERT_TRUE(
      TransactionRecordsTable(transactions_).WriteCsv(path).ok());
  EmpiricalDemandModel::Options options;
  options.days = 2;
  auto model_or =
      EmpiricalDemandModel::FromCsvFile(&system_->city(), path, options);
  ASSERT_TRUE(model_or.ok()) << model_or.status();
  EXPECT_EQ(model_or->observations(),
            static_cast<int64_t>(transactions_.size()));
  std::remove(path.c_str());
}

TEST_F(EmpiricalDemandTest, FromCsvFileMissingPathFails) {
  const StatusOr<EmpiricalDemandModel> model =
      EmpiricalDemandModel::FromCsvFile(&system_->city(), "/no/such/file.csv",
                                        EmpiricalDemandModel::Options());
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound) << model.status();
}

TEST_F(EmpiricalDemandTest, SurvivesCorruptedCsv) {
  // Chaos-corrupt the exported transaction log (dropped, truncated,
  // mangled and NUL-damaged rows), then ingest it: the damaged rows must
  // be quarantined, the surviving ones must still build a model.
  RecordCorruption corruption;
  corruption.drop_prob = 0.02;
  corruption.truncate_prob = 0.05;
  corruption.mangle_prob = 0.05;
  corruption.nul_prob = 0.03;
  corruption.seed = 77;
  CorruptionStats stats;
  const std::string corrupted = CorruptCsvText(
      TransactionRecordsTable(transactions_).ToCsv(), corruption, &stats);
  ASSERT_GT(stats.total_corrupted(), 0);

  const std::string path =
      ::testing::TempDir() + "/fairmove_corrupted_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(out));
    out << corrupted;
  }
  EmpiricalDemandModel::Options options;
  options.days = 2;
  int64_t quarantined = 0;
  auto model_or = EmpiricalDemandModel::FromCsvFile(&system_->city(), path,
                                                    options, &quarantined);
  std::remove(path.c_str());
  ASSERT_TRUE(model_or.ok()) << model_or.status();
  // Every original row is either dropped, quarantined, or ingested. (A
  // truncated row can survive ingestion when only the tail of its last
  // numeric cell was cut, so quarantined <= corrupted - dropped.)
  EXPECT_EQ(model_or->observations() + quarantined + stats.dropped,
            static_cast<int64_t>(transactions_.size()));
  EXPECT_GE(quarantined, stats.mangled + stats.nul_injected);
  EXPECT_LE(quarantined + stats.dropped, stats.total_corrupted());
  EXPECT_GT(model_or->observations(), 0);
}

TEST_F(EmpiricalDemandTest, DrivesTheSimulator) {
  EmpiricalDemandModel::Options options;
  options.days = 2;
  auto model = std::move(EmpiricalDemandModel::FromTransactions(
                             &system_->city(), transactions_, options))
                   .value();
  SimConfig sim_cfg = system_->config().sim;
  auto sim = std::move(Simulator::Create(&system_->city(), &model,
                                         TouTariff::Shenzhen(), sim_cfg))
                 .value();
  GtPolicy policy;
  sim->RunDays(&policy, 1);
  EXPECT_GT(sim->trace().total_trips(), 1000);
}

// ----------------------------------------------------------- DriverGroups --

TEST(DriverGroupsTest, CreateValidatesInputs) {
  EXPECT_FALSE(DriverGroups::Create(0, 5, 1).ok());
  EXPECT_FALSE(DriverGroups::Create(10, 0, 1).ok());
  EXPECT_FALSE(DriverGroups::Create(3, 5, 1).ok());
  EXPECT_TRUE(DriverGroups::Create(100, 5, 1).ok());
}

TEST(DriverGroupsTest, AssignmentIsDeterministicAndBalanced) {
  auto a = std::move(DriverGroups::Create(1000, 5, 7)).value();
  auto b = std::move(DriverGroups::Create(1000, 5, 7)).value();
  for (TaxiId id = 0; id < 1000; ++id) {
    EXPECT_EQ(a.group(id), b.group(id));
    EXPECT_GE(a.group(id), 0);
    EXPECT_LT(a.group(id), 5);
  }
  for (int g = 0; g < 5; ++g) {
    EXPECT_GT(a.members(g).size(), 100u);  // roughly balanced
    EXPECT_LT(a.members(g).size(), 300u);
  }
}

TEST(DriverGroupsTest, StatsPartitionTheFleet) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  GtPolicy policy;
  system->sim().RunDays(&policy, 1);
  auto groups =
      std::move(DriverGroups::Create(system->sim().num_taxis(), 5, 3))
          .value();
  const auto stats = groups.ComputeStats(system->sim());
  int64_t total = 0;
  for (const auto& s : stats) {
    total += s.taxis;
    EXPECT_GT(s.pe_mean, 0.0);
    EXPECT_GE(s.pe_variance, 0.0);
  }
  EXPECT_EQ(total, system->sim().num_taxis());
  // Within-group PF is at most slightly above fleet PF for a random
  // (rating-independent) assignment, and must be positive.
  const double within = groups.WithinGroupPf(system->sim());
  EXPECT_GT(within, 0.0);
  const FleetMetrics m = ComputeFleetMetrics(system->sim());
  EXPECT_LT(within, m.pf * 1.2);
}

TEST(DriverGroupsTest, TrainerAcceptsGroupBaseline) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto groups =
      std::move(DriverGroups::Create(system->sim().num_taxis(), 5, 3))
          .value();
  Trainer trainer = system->MakeTrainer();
  trainer.SetDriverGroups(&groups);
  GtPolicy policy;
  const auto stats = trainer.RunEvaluationEpisode(&policy, 11, 72);
  EXPECT_GT(stats.transitions, 0);
}

// ------------------------------------------------------- Dispatch mode --

TEST(DispatchModeTest, ValidatesRadius) {
  SimConfig cfg;
  cfg.dispatch_radius_minutes = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(DispatchModeTest, RaisesServiceRateOverStreetHail) {
  FairMoveConfig base = FairMoveConfig::FullShenzhen().Scaled(0.05);
  auto street_system = std::move(FairMoveSystem::Create(base)).value();
  GtPolicy p1;
  street_system->sim().RunDays(&p1, 1);
  const FleetMetrics street = ComputeFleetMetrics(street_system->sim());

  FairMoveConfig dispatch_cfg = base;
  dispatch_cfg.sim.dispatch_radius_minutes = 12.0;
  auto dispatch_system =
      std::move(FairMoveSystem::Create(dispatch_cfg)).value();
  GtPolicy p2;
  dispatch_system->sim().RunDays(&p2, 1);
  const FleetMetrics dispatch = ComputeFleetMetrics(dispatch_system->sim());

  EXPECT_GT(dispatch.ServiceRate(), street.ServiceRate());
  EXPECT_GT(dispatch.trips, street.trips);
}

TEST(DispatchModeTest, InvariantsStillHold) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
  cfg.sim.dispatch_radius_minutes = 15.0;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  GtPolicy policy;
  system->sim().RunDays(&policy, 1);
  int64_t pending = 0;
  for (RegionId r = 0; r < system->city().num_regions(); ++r) {
    pending += system->sim().PendingRequests(r);
  }
  EXPECT_EQ(system->sim().total_requests(),
            system->sim().trace().total_trips() +
                system->sim().trace().expired_requests() + pending);
  for (double soc : system->sim().fleet().soc) {
    EXPECT_GE(soc, 0.0);
    EXPECT_LE(soc, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace fairmove
